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
	"vacsem/internal/engine"
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

// collect drains a live subscription after its producer finished.
func collect(ch <-chan []byte, cancel func()) [][]byte {
	cancel()
	var lines [][]byte
	for line := range ch {
		lines = append(lines, line)
	}
	return lines
}

// TestOneSchemaAllBackends installs a trace file and a live subscriber
// together and runs a MED session on every backend: each line the
// subscriber gets is byte-identical to a trace line, every line carries
// the session's run id, and each task has exactly one sub_miter
// start/end pair.
func TestOneSchemaAllBackends(t *testing.T) {
	exact := gen.RippleCarryAdder(6)
	approx := als.LowerORAdder(6, 2)
	for _, name := range engine.Names() {
		method, err := core.MethodByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tr := obs.NewTracer(&buf)
		obs.SetTracer(tr)
		ch, cancel := obs.Stream.Subscribe(0, 1<<16)
		dropped := obs.Default.Counter("obs.stream_dropped").Value()
		res, err := core.Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricMED},
			core.Options{Method: method, Workers: 2, Seed: 1})
		live := collect(ch, cancel)
		obs.SetTracer(nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if d := obs.Default.Counter("obs.stream_dropped").Value() - dropped; d != 0 {
			t.Fatalf("%s: the subscriber dropped %d lines", name, d)
		}
		trace := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
		if len(live) != len(trace) {
			t.Errorf("%s: %d live lines, %d trace lines", name, len(live), len(trace))
		}
		inTrace := make(map[string]bool, len(trace))
		for _, l := range trace {
			inTrace[l] = true
		}
		for _, l := range live {
			if !inTrace[string(l)] {
				t.Errorf("%s: live line is no trace line: %s", name, l)
			}
		}
		runs := map[uint64]bool{}
		starts, ends := map[uint64]int{}, map[uint64]int{}
		for _, e := range parseTrace(t, buf.Bytes()) {
			var run uint64
			if json.Unmarshal(e.Fields["run_id"], &run) != nil || run == 0 {
				t.Errorf("%s: %s line carries no run id", name, e.Ev)
			}
			runs[run] = true
			if e.Span != "sub_miter" {
				continue
			}
			var index uint64
			json.Unmarshal(e.Fields["index"], &index)
			switch e.Ev {
			case "span_start":
				starts[index]++
			case "span_end":
				ends[index]++
			}
		}
		if len(runs) != 1 {
			t.Errorf("%s: one session's lines carry %d run ids", name, len(runs))
		}
		unique := 0
		for _, sub := range res.Subs {
			if !sub.Shared {
				unique++
			}
		}
		if len(starts) != unique || len(ends) != unique {
			t.Errorf("%s: sub_miter spans for %d/%d tasks, want %d", name, len(starts), len(ends), unique)
		}
		for j, n := range starts {
			if n != 1 || ends[j] != 1 {
				t.Errorf("%s: task %d has %d sub_miter starts and %d ends, want 1 each", name, j, n, ends[j])
			}
		}
	}
}

// A session whose plan fails (a threshold metric without its
// threshold) still ends its session span, with the error, on the live
// stream.
func TestFailedPlanEndsSession(t *testing.T) {
	ch, cancel := obs.Stream.Subscribe(0, 1024)
	_, err := core.Verify(context.Background(), gen.RippleCarryAdder(4), als.LowerORAdder(4, 1),
		core.MetricSpec{Kind: core.MetricThresholdProb}, core.Options{})
	lines := collect(ch, cancel)
	if err == nil {
		t.Fatal("a threshold metric without a threshold verified")
	}
	for _, e := range parseTrace(t, bytes.Join(lines, []byte("\n"))) {
		if e.Ev == "span_end" && e.Span == "session" {
			var msg string
			json.Unmarshal(e.Fields["error"], &msg)
			if msg != err.Error() {
				t.Errorf("session span_end error = %q, want %q", msg, err)
			}
			if _, ok := e.Fields["run_id"]; !ok {
				t.Error("session span_end carries no run id")
			}
			return
		}
	}
	t.Fatalf("the live stream never ended the session span; got %d lines", len(lines))
}

// Search-scale events keep the trace file's gate: a live subscriber
// alone does not turn them on.
func TestLiveSubscriberEmitsNoSearchEvents(t *testing.T) {
	search := map[string]bool{"component": true, "cache": true, "stats": true,
		"sim_decision": true, "sim_batch": true, "bdd_growth": true}
	exact, approx := gen.RippleCarryAdder(8), als.LowerORAdder(8, 3)
	spec := core.MetricSpec{Kind: core.MetricMED}
	count := func(lines []byte) (n int) {
		for _, e := range parseTrace(t, lines) {
			if search[e.Ev] {
				n++
			}
		}
		return n
	}

	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	obs.SetTracer(tr)
	_, err := core.Verify(context.Background(), exact, approx, spec, core.Options{Workers: 1})
	obs.SetTracer(nil)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	if count(buf.Bytes()) == 0 {
		t.Fatal("the traced session emitted no search events; the check below would be vacuous")
	}

	ch, cancel := obs.Stream.Subscribe(0, 1<<14)
	_, err = core.Verify(context.Background(), exact, approx, spec, core.Options{Workers: 1})
	lines := collect(ch, cancel)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 {
		t.Fatal("the live subscriber got no lines")
	}
	if n := count(bytes.Join(lines, []byte("\n"))); n != 0 {
		t.Errorf("a live subscriber alone got %d search events", n)
	}
}
