package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	var wg sync.WaitGroup
	const workers, per = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				g.SetMax(int64(w*per + i))
				h.Observe(float64(i % 200))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got < workers*per {
		t.Errorf("gauge = %d, want >= %d (SetMax raised it beyond the adds)", got, workers*per)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	wantSum := 0.0
	for i := 0; i < per; i++ {
		wantSum += float64(i % 200)
	}
	wantSum *= workers
	if got := h.Sum(); got != wantSum {
		t.Errorf("histogram sum = %g, want %g", got, wantSum)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram([]float64{1, 10})
	for _, v := range []float64{0.5, 1, 2, 10, 11, 1e9} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 2} // <=1, <=10, overflow
	for i, w := range want {
		if got := h.buckets[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
}

func TestGaugeSetMax(t *testing.T) {
	var g Gauge
	g.SetMax(5)
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Errorf("SetMax lowered the gauge: got %d, want 5", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Errorf("SetMax(9) = %d, want 9", got)
	}
}

func TestSnapshotSortedAndJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("z.last").Add(2)
	r.Counter("a.first").Inc()
	r.Gauge("m.mid").Set(-7)
	r.Histogram("lat", nil).Observe(0.5)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Errorf("counters not sorted: %+v", s.Counters)
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(buf.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if len(round.Counters) != 2 || round.Counters[1].Value != 2 {
		t.Errorf("round-tripped snapshot = %+v", round)
	}
	var table bytes.Buffer
	s.WriteTable(&table)
	for _, want := range []string{"a.first", "z.last", "m.mid", "lat"} {
		if !strings.Contains(table.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, table.String())
		}
	}
}

// traced installs a trace file sink on a buffer for the test and
// returns the function that removes it and decodes its lines.
func traced(t *testing.T) (*Tracer, func() []map[string]any) {
	t.Helper()
	if Enabled() {
		t.Fatal("a sink is installed at test start")
	}
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	SetTracer(tr)
	t.Cleanup(func() { SetTracer(nil) })
	return tr, func() []map[string]any {
		SetTracer(nil)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var lines []map[string]any
		for sc.Scan() {
			var m map[string]any
			if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			lines = append(lines, m)
		}
		return lines
	}
}

// TestTracerJSONL drives spans and events into the trace file, then
// checks every line is a valid JSON object with the schema's header.
func TestTracerJSONL(t *testing.T) {
	_, finish := traced(t)
	ctx := WithRun(context.Background(), 12)
	ctx, run := Start(ctx, "run", Fields{"metric": "ER"})
	subCtx, sub := Start(ctx, "sub_miter", Fields{"index": 0, "output": "dev0"})
	Event(subCtx, "sim_decision", Fields{"accepted": true, "density": 2.5, "gates": 30, "k": 5})
	sub.End(Fields{"count": "12"})
	run.End(nil)
	lines := finish()

	if len(lines) != 5 {
		t.Fatalf("got %d events, want 5", len(lines))
	}
	if lines[0]["ev"] != "span_start" || lines[0]["span"] != "run" {
		t.Errorf("first event = %v", lines[0])
	}
	if lines[1]["parent"] != lines[0]["id"] {
		t.Errorf("sub_miter parent = %v, want %v", lines[1]["parent"], lines[0]["id"])
	}
	if lines[2]["ev"] != "sim_decision" || lines[2]["accepted"] != true || lines[2]["parent"] != lines[1]["id"] {
		t.Errorf("sim_decision event = %v", lines[2])
	}
	if lines[3]["ev"] != "span_end" || lines[3]["count"] != "12" || lines[3]["id"] != lines[1]["id"] {
		t.Errorf("span_end event = %v", lines[3])
	}
	if lines[3]["parent"] != lines[0]["id"] {
		t.Errorf("span_end parent = %v, want %v", lines[3]["parent"], lines[0]["id"])
	}
	if _, ok := lines[3]["dur_us"]; !ok {
		t.Errorf("span_end missing dur_us: %v", lines[3])
	}
	prev := -1.0
	for i, l := range lines {
		if l["run_id"] != float64(12) {
			t.Errorf("line %d run_id = %v, want 12", i, l["run_id"])
		}
		tus, ok := l["t_us"].(float64)
		if !ok || tus < prev {
			t.Errorf("line %d t_us = %v after %v", i, l["t_us"], prev)
		}
		prev = tus
	}
}

// TestTracerConcurrent hammers the trace file from many goroutines and
// verifies the output is still line-wise valid JSON (the race detector
// additionally checks the locking).
func TestTracerConcurrent(t *testing.T) {
	_, finish := traced(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, sp := Start(context.Background(), "sub_miter", Fields{"worker": w, "i": i})
				Event(ctx, "component", Fields{"vars": i})
				sp.End(nil)
			}
		}(w)
	}
	wg.Wait()
	if got, want := len(finish()), 8*200*3; got != want {
		t.Errorf("got %d lines, want %d", got, want)
	}
}

func TestReservedKeysNotOverridden(t *testing.T) {
	_, finish := traced(t)
	_, sp := Start(WithRun(context.Background(), 3), "run",
		Fields{"ev": "spoof", "id": 999, "run_id": 7, "t_us": -1, "note": "kept"})
	sp.End(Fields{"dur_us": -1, "span": "spoof"})
	lines := finish()
	m := lines[0]
	if m["ev"] != "span_start" || m["id"] != float64(sp.id) || m["run_id"] != float64(3) || m["t_us"] == float64(-1) {
		t.Errorf("reserved keys overridden by fields: %v", m)
	}
	if m["note"] != "kept" {
		t.Errorf("regular field dropped: %v", m)
	}
	if end := lines[1]; end["dur_us"] == float64(-1) || end["span"] != "run" {
		t.Errorf("reserved keys overridden on span_end: %v", end)
	}
}

func TestGlobalTracerAndContextSpan(t *testing.T) {
	tr, finish := traced(t)
	if Active() != tr || !Enabled() {
		t.Fatal("SetTracer did not install the tracer")
	}
	ctx, sp := Start(context.Background(), "session", nil)
	if got := scopeFrom(ctx).span; got != sp.id || got == 0 {
		t.Errorf("context span = %d, want the new span %d", got, sp.id)
	}
	if got := scopeFrom(context.Background()).span; got != 0 {
		t.Errorf("empty context span = %d, want 0", got)
	}
	sp.End(nil)
	finish()
	if Enabled() || Active() != nil {
		t.Error("SetTracer(nil) did not disable tracing")
	}
	bg := context.Background()
	if ctx, sp := Start(bg, "session", nil); ctx != bg || sp != (Span{}) {
		t.Error("Start without a sink returned a span or a new context")
	}
}

// BenchmarkEmitDisabled measures the producers' cost with no sink
// installed: Start+End of a span, and a point event.
func BenchmarkEmitDisabled(b *testing.B) {
	if Enabled() {
		b.Fatal("a sink is installed")
	}
	ctx := WithRun(context.Background(), 1)
	b.Run("span", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, sp := Start(ctx, "sub_miter", nil)
			sp.End(nil)
		}
	})
	b.Run("event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Event(ctx, "progress", nil)
		}
	})
}
