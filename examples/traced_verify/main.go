// Traced verification: run a MED check of an approximate adder with the
// observability layer enabled, then parse the emitted JSONL trace and
// print the span tree — run, backend, and one sub-miter span per
// deviation bit, each with its wall time and solver statistics.
//
// The example doubles as an executable contract: it exits non-zero if
// the trace fails to parse, if any span is unbalanced, or if the
// per-sub-miter statistics in the trace do not sum to the
// Result.TotalStats the API reports. scripts/check.sh runs it.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"vacsem"
)

// span is one reassembled span_start/span_end pair.
type span struct {
	id, parent uint64
	kind       string
	durUS      float64
	fields     map[string]any
	children   []*span
	ended      bool
}

func main() {
	exact := vacsem.RippleCarryAdder(8)
	approx := vacsem.LowerORAdder(8, 3)

	// Trace into a buffer; a real tool would hand NewTracer a file.
	var buf bytes.Buffer
	tr := vacsem.NewTracer(&buf)
	vacsem.SetTracer(tr)
	res, err := vacsem.Verify(context.Background(), exact, approx, vacsem.MetricSpec{Kind: vacsem.MetricMED}, vacsem.Options{Workers: 4})
	vacsem.SetTracer(nil)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("MED(%s, %s) = %s (%s)  in %v\n\n",
		exact.Name, approx.Name, res.Value.RatString(),
		approxFloat(res), res.Runtime.Round(time.Microsecond))

	spans, events := parseSpans(buf.Bytes())
	fmt.Printf("trace: %d events, %d spans\n", events, len(spans))
	roots := link(spans)
	for _, r := range roots {
		printTree(r, 0)
	}

	// Self-check: every span balanced, and the per-sub-miter decision
	// counts in the trace must sum to what the API reported.
	var decisions float64
	for _, s := range spans {
		if !s.ended {
			log.Fatalf("span %d (%s) never ended", s.id, s.kind)
		}
		if s.kind == "sub_miter" {
			if stats, ok := s.fields["stats"].(map[string]any); ok {
				decisions += num(stats["Decisions"])
			}
		}
	}
	if uint64(decisions) != res.TotalStats.Decisions {
		log.Fatalf("trace decisions %d != TotalStats.Decisions %d",
			uint64(decisions), res.TotalStats.Decisions)
	}
	fmt.Printf("\ntrace is consistent: %d decisions across sub-miter spans == TotalStats\n",
		res.TotalStats.Decisions)
}

func approxFloat(res *vacsem.Result) string {
	return fmt.Sprintf("~%.6g", res.Float())
}

// parseSpans decodes the JSONL stream and pairs span_start/span_end
// events by id, keeping the end event's fields (they carry the result).
func parseSpans(data []byte) (map[uint64]*span, int) {
	spans := map[uint64]*span{}
	events := 0
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		events++
		var raw map[string]any
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			log.Fatalf("bad trace line: %v\n%s", err, line)
		}
		id := uint64(num(raw["id"]))
		switch raw["ev"] {
		case "span_start":
			spans[id] = &span{
				id:     id,
				parent: uint64(num(raw["parent"])),
				kind:   raw["span"].(string),
				fields: raw,
			}
		case "span_end":
			s, ok := spans[id]
			if !ok {
				log.Fatalf("span_end %d without span_start", id)
			}
			s.ended = true
			s.durUS = num(raw["dur_us"])
			for k, v := range raw {
				s.fields[k] = v
			}
		}
	}
	return spans, events
}

func link(spans map[uint64]*span) []*span {
	var roots []*span
	ids := make([]uint64, 0, len(spans))
	for id := range spans {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		s := spans[id]
		if p, ok := spans[s.parent]; ok {
			p.children = append(p.children, s)
		} else {
			roots = append(roots, s)
		}
	}
	return roots
}

func printTree(s *span, depth int) {
	indent := strings.Repeat("  ", depth)
	label := s.kind
	switch s.kind {
	case "run":
		label = fmt.Sprintf("run metric=%v backend=%v", s.fields["metric"], s.fields["backend"])
	case "backend":
		label = fmt.Sprintf("backend %v (%v tasks)", s.fields["backend"], s.fields["tasks"])
	case "sub_miter":
		stats, _ := s.fields["stats"].(map[string]any)
		label = fmt.Sprintf("sub_miter %v count=%v dec=%.0f sim=%.0f",
			s.fields["output"], s.fields["count"],
			num(stats["Decisions"]), num(stats["SimCalls"]))
	}
	fmt.Printf("%s%-60s %8.0f us\n", indent, label, s.durUS)
	for _, c := range s.children {
		printTree(c, depth+1)
	}
	if depth == 0 && len(s.children) == 0 {
		fmt.Fprintln(os.Stderr, "warning: root span has no children")
	}
}

func num(v any) float64 {
	f, _ := v.(float64)
	return f
}
