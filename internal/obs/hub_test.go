package obs

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
)

// Events reach a live subscriber with the header the encoder stamps; the
// header wins over colliding caller fields.
func TestHubPublishSubscribe(t *testing.T) {
	if Enabled() {
		t.Fatal("a sink is installed at test start")
	}
	ch, cancel := Stream.Subscribe(0, 8)
	defer cancel()
	if !Stream.Active() || !Enabled() {
		t.Fatal("a live subscriber did not enable emission")
	}
	if Active() != nil {
		t.Fatal("a live subscriber installed a trace file")
	}

	ctx := WithRun(context.Background(), 41)
	Event(ctx, "progress", Fields{"index": 3, "ev": "spoofed", "run_id": 999})
	line := <-ch
	var got map[string]any
	if err := json.Unmarshal(line, &got); err != nil {
		t.Fatalf("event not JSON: %v (%q)", err, line)
	}
	if got["ev"] != "progress" {
		t.Errorf("ev = %v, want progress (caller's spoof must lose)", got["ev"])
	}
	if got["run_id"] != float64(41) {
		t.Errorf("run_id = %v, want the context's 41", got["run_id"])
	}
	if got["index"].(float64) != 3 {
		t.Errorf("index = %v", got["index"])
	}
	if _, ok := got["t_us"]; !ok {
		t.Error("t_us header missing")
	}
	for _, k := range []string{"seq", "t_ms"} {
		if _, ok := got[k]; ok {
			t.Errorf("line carries the retired %q key: %s", k, line)
		}
	}
	cancel()
	if Enabled() {
		t.Error("emission still enabled after the last subscriber left")
	}
}

// A subscriber to one run gets only that run's lines; a subscriber to
// run 0 gets every line; both get the same bytes.
func TestHubFanout(t *testing.T) {
	one, cancelOne := Stream.Subscribe(7, 8)
	all, cancelAll := Stream.Subscribe(0, 8)
	defer cancelOne()
	defer cancelAll()
	Event(WithRun(context.Background(), 7), "a", nil)
	Event(WithRun(context.Background(), 8), "b", nil)
	Event(context.Background(), "c", nil)
	cancelOne()
	cancelAll()
	var gotOne, gotAll [][]byte
	for line := range one {
		gotOne = append(gotOne, line)
	}
	for line := range all {
		gotAll = append(gotAll, line)
	}
	if len(gotOne) != 1 || len(gotAll) != 3 {
		t.Fatalf("run 7 subscriber got %d lines, all-runs subscriber %d; want 1 and 3", len(gotOne), len(gotAll))
	}
	if string(gotOne[0]) != string(gotAll[0]) {
		t.Errorf("the two subscribers got different bytes: %s vs %s", gotOne[0], gotAll[0])
	}
	var ev map[string]any
	if err := json.Unmarshal(gotOne[0], &ev); err != nil || ev["ev"] != "a" {
		t.Errorf("run 7 line = %s (%v)", gotOne[0], err)
	}
}

// A full subscriber buffer drops events (counted) instead of blocking
// the producer.
func TestHubDropOnSlow(t *testing.T) {
	h := NewHub()
	_, cancel := h.Subscribe(0, 1) // deliberately tiny, never drained
	defer cancel()
	before := Default.Counter("obs.stream_dropped").Value()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			h.send(0, []byte(`{"ev":"x"}`))
		}
		close(done)
	}()
	<-done // sending must complete despite the stuck subscriber
	if got := Default.Counter("obs.stream_dropped").Value(); got < before+49 {
		t.Errorf("stream_dropped rose by %d, want >= 49", got-before)
	}
}

// Cancel is idempotent and concurrent sends never send on a closed
// channel (run with -race).
func TestHubCancelRace(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		ch, cancel := h.Subscribe(uint64(i%2), 4)
		wg.Add(2)
		go func() {
			defer wg.Done()
			for range ch {
			}
		}()
		go func() {
			defer wg.Done()
			cancel()
			cancel()
		}()
	}
	for i := 0; i < 200; i++ {
		h.send(uint64(i%3), []byte(`{"ev":"x"}`))
	}
	wg.Wait()
	if h.Active() {
		t.Error("hub still active after all cancels")
	}
}
