package obs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/obs"
)

// event is the decoded JSONL schema; Fields keeps everything else.
type event struct {
	Ev     string
	Span   string
	ID     uint64
	Parent uint64
	Fields map[string]json.RawMessage
}

func parseTrace(t *testing.T, data []byte) []event {
	t.Helper()
	var evs []event
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if line == "" {
			continue
		}
		fields := map[string]json.RawMessage{}
		if err := json.Unmarshal([]byte(line), &fields); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		var e event
		e.Fields = fields
		str := func(key string) string {
			var s string
			json.Unmarshal(fields[key], &s)
			return s
		}
		num := func(key string) uint64 {
			var n uint64
			json.Unmarshal(fields[key], &n)
			return n
		}
		e.Ev, e.Span = str("ev"), str("span")
		e.ID, e.Parent = num("id"), num("parent")
		if e.Ev == "" {
			t.Fatalf("trace line %d has no \"ev\" key: %s", i+1, line)
		}
		if _, ok := fields["t_us"]; !ok {
			t.Fatalf("trace line %d has no \"t_us\" key: %s", i+1, line)
		}
		evs = append(evs, e)
	}
	return evs
}

// TestTracedRunStatsConsistent is the tentpole's acceptance check: a
// traced MED verification (parallel workers) must produce a parseable
// JSONL stream whose per-sub-miter span stats sum exactly to the
// Result.TotalStats the API reports — and tracing must not perturb the
// verified count.
func TestTracedRunStatsConsistent(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	approx := als.LowerORAdder(8, 3)
	opt := core.Options{Workers: 4}

	baseline, err := core.Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricMED}, opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	tr.SetHotEvery(1) // sample everything: schema coverage matters here
	obs.SetTracer(tr)
	res, err := core.Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricMED}, opt)
	obs.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if res.Count.Cmp(baseline.Count) != 0 {
		t.Fatalf("tracing changed the count: %v (traced) vs %v (untraced)", res.Count, baseline.Count)
	}

	evs := parseTrace(t, buf.Bytes())
	started := map[uint64]string{0: "root"}
	var sessions, plans, runs, subEnds int
	var sum counter.Stats
	for _, e := range evs {
		if _, ok := started[e.Parent]; !ok {
			t.Errorf("event %+v references unknown parent span %d", e.Ev, e.Parent)
		}
		switch e.Ev {
		case "span_start":
			started[e.ID] = e.Span
			switch e.Span {
			case "session":
				sessions++
			case "plan":
				plans++
			case "run":
				runs++
			}
		case "span_end":
			if started[e.ID] != e.Span {
				t.Errorf("span_end %d kind %q does not match its start %q", e.ID, e.Span, started[e.ID])
			}
			if _, ok := e.Fields["dur_us"]; !ok {
				t.Errorf("span_end %d has no dur_us", e.ID)
			}
			if e.Span == "sub_miter" {
				subEnds++
				var st counter.Stats
				if err := json.Unmarshal(e.Fields["stats"], &st); err != nil {
					t.Fatalf("sub_miter span_end stats: %v", err)
				}
				sum.Add(st)
			}
		}
	}
	if sessions != 1 || plans != 1 || runs != 1 {
		t.Errorf("trace has %d session / %d plan / %d run spans, want 1 each",
			sessions, plans, runs)
	}
	// One sub_miter span per unique counting task: bits whose task was
	// deduplicated (Shared) produce no span of their own.
	unique := 0
	for _, sub := range res.Subs {
		if !sub.Shared {
			unique++
		}
	}
	if subEnds != unique {
		t.Errorf("trace has %d sub_miter span ends, want %d unique tasks (of %d bits)",
			subEnds, unique, len(res.Subs))
	}
	if sum != res.TotalStats {
		t.Errorf("sub_miter span stats sum %+v != Result.TotalStats %+v", sum, res.TotalStats)
	}
}
