package obs

import (
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestWritePrometheusGolden pins the exact text exposition of a small
// controlled registry: name sanitization (dots, leading digits), the
// HELP/TYPE preamble, and the cumulative _bucket/_sum/_count triple.
func TestWritePrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("counter.decisions").Add(5)
	r.Counter("7bad.name").Add(2)
	r.Gauge("solver.depth").Set(-3)
	h := r.Histogram("lat.seconds", []float64{0.1, 1})
	for _, v := range []float64{0.05, 0.5, 0.5, 3} {
		h.Observe(v)
	}

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb, PromOptions{Prefix: "vacsem_"}); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	want := `# HELP vacsem__7bad_name 7bad.name
# TYPE vacsem__7bad_name counter
vacsem__7bad_name 2
# HELP vacsem_counter_decisions counter.decisions
# TYPE vacsem_counter_decisions counter
vacsem_counter_decisions 5
# HELP vacsem_solver_depth solver.depth
# TYPE vacsem_solver_depth gauge
vacsem_solver_depth -3
# HELP vacsem_lat_seconds lat.seconds
# TYPE vacsem_lat_seconds histogram
vacsem_lat_seconds_bucket{le="0.1"} 1
vacsem_lat_seconds_bucket{le="1"} 3
vacsem_lat_seconds_bucket{le="+Inf"} 4
vacsem_lat_seconds_sum 4.05
vacsem_lat_seconds_count 4
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

var (
	promCommentRe = regexp.MustCompile(`^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	promSampleRe  = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_:][a-zA-Z0-9_:]*="(?:[^"\\]|\\.)*"(,[a-zA-Z_:][a-zA-Z0-9_:]*="(?:[^"\\]|\\.)*")*\})? (-?[0-9.eE+]+|\+Inf|-Inf|NaN)$`)
)

// TestWritePrometheusParses feeds a realistic registry (dotted names,
// default latency buckets, zero and non-zero metrics) through a strict
// line parser for the 0.0.4 grammar and checks the histogram
// invariants: buckets cumulative and monotone, +Inf bucket == _count.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("counter.decisions").Add(123456)
	r.Counter("engine.sub_miters") // zero-valued
	r.Gauge("cache.entries").Set(42)
	h := r.Histogram("core.run_seconds", nil) // default LatencyBuckets
	for i := 0; i < 500; i++ {
		h.Observe(float64(i%37) * 0.01)
	}

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb, PromOptions{Prefix: "vacsem_"}); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("exposition must end with a newline")
	}

	type hist struct {
		bounds []float64
		cum    []uint64
		inf    uint64
		count  uint64
		hasInf bool
	}
	hists := map[string]*hist{}
	getHist := func(name string) *hist {
		if hists[name] == nil {
			hists[name] = &hist{}
		}
		return hists[name]
	}
	leRe := regexp.MustCompile(`\{le="([^"]+)"\}`)
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !promCommentRe.MatchString(line) {
				t.Errorf("bad comment line: %q", line)
			}
			continue
		}
		m := promSampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("bad sample line: %q", line)
			continue
		}
		name, value := m[1], m[4]
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le := leRe.FindStringSubmatch(line)
			if le == nil {
				t.Errorf("bucket without le label: %q", line)
				continue
			}
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Errorf("bucket value %q: %v", value, err)
				continue
			}
			hs := getHist(base)
			if le[1] == "+Inf" {
				hs.inf, hs.hasInf = n, true
			} else {
				bound, err := strconv.ParseFloat(le[1], 64)
				if err != nil {
					t.Errorf("le bound %q: %v", le[1], err)
					continue
				}
				hs.bounds = append(hs.bounds, bound)
				hs.cum = append(hs.cum, n)
			}
		case strings.HasSuffix(name, "_count"):
			n, _ := strconv.ParseUint(value, 10, 64)
			getHist(strings.TrimSuffix(name, "_count")).count = n
		}
	}

	if len(hists) != 1 {
		t.Fatalf("parsed %d histograms, want 1", len(hists))
	}
	for name, hs := range hists {
		if !hs.hasInf {
			t.Errorf("%s: no +Inf bucket", name)
		}
		if hs.inf != hs.count {
			t.Errorf("%s: +Inf bucket %d != _count %d", name, hs.inf, hs.count)
		}
		if hs.count != 500 {
			t.Errorf("%s: _count = %d, want 500", name, hs.count)
		}
		if !sort.Float64sAreSorted(hs.bounds) {
			t.Errorf("%s: le bounds not ascending: %v", name, hs.bounds)
		}
		for i := 1; i < len(hs.cum); i++ {
			if hs.cum[i] < hs.cum[i-1] {
				t.Errorf("%s: bucket counts not cumulative at le=%g: %d < %d",
					name, hs.bounds[i], hs.cum[i], hs.cum[i-1])
			}
		}
		if n := len(hs.cum); n > 0 && hs.cum[n-1] > hs.inf {
			t.Errorf("%s: last finite bucket %d exceeds +Inf %d", name, hs.cum[n-1], hs.inf)
		}
	}
}
