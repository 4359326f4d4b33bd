package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) straight off a
// registry snapshot: counters and gauges as single samples, histograms
// as the conventional cumulative _bucket/_sum/_count triple. Metric
// names are sanitized (dots become underscores); the original dotted
// name is preserved in the HELP line.

// PromContentType is the Content-Type of the exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// PromOptions tunes WritePrometheus.
type PromOptions struct {
	// Prefix is prepended to every metric name (e.g. "vacsem_"). It is
	// sanitized like the rest of the name.
	Prefix string
}

// promName sanitizes a metric name into the Prometheus charset
// [a-zA-Z0-9_:], mapping every other rune to '_' and prefixing names
// that would start with a digit.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i, r := range name {
		ok := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(r >= '0' && r <= '9' && i > 0)
		if r >= '0' && r <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(r)
			continue
		}
		if ok {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string: backslash and newline (quotes are
// legal in HELP text).
func escapeHelp(v string) string {
	var b strings.Builder
	b.Grow(len(v))
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a float the way the exposition format expects
// (shortest round-trip representation; +Inf/-Inf/NaN spellings).
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Every metric gets HELP (carrying the original
// dotted name) and TYPE lines; histograms expose cumulative buckets
// with the conventional le label, +Inf bucket, _sum and _count.
func (s Snapshot) WritePrometheus(w io.Writer, opt PromOptions) error {
	prefix := promName(opt.Prefix)
	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, c := range s.Counters {
		name := prefix + promName(c.Name)
		pf("# HELP %s %s\n", name, escapeHelp(c.Name))
		pf("# TYPE %s counter\n", name)
		pf("%s %d\n", name, c.Value)
	}
	for _, g := range s.Gauges {
		name := prefix + promName(g.Name)
		pf("# HELP %s %s\n", name, escapeHelp(g.Name))
		pf("# TYPE %s gauge\n", name)
		pf("%s %d\n", name, g.Value)
	}
	for _, h := range s.Histograms {
		name := prefix + promName(h.Name)
		pf("# HELP %s %s\n", name, escapeHelp(h.Name))
		pf("# TYPE %s histogram\n", name)
		// The registry's buckets are disjoint ranges; the exposition
		// format wants cumulative counts per upper bound.
		cum := uint64(0)
		for i, bound := range h.Bounds {
			cum += h.Buckets[i]
			pf("%s_bucket{le=\"%s\"} %d\n", name, formatFloat(bound), cum)
		}
		cum += h.Buckets[len(h.Buckets)-1]
		pf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
		pf("%s_sum %s\n", name, formatFloat(h.Sum))
		pf("%s_count %d\n", name, cum)
	}
	return err
}
