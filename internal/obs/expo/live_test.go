package expo

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/core"
	"vacsem/internal/gen"
	"vacsem/internal/obs"
)

// TestLiveIntrospectedVerify checks a verification while the
// introspection server is scraped concurrently (run under -race in CI):
// it must
//
//   - serve parseable /metrics whose counter values only ever grow,
//   - stream the run's lifecycle and per-task progress on
//     /debug/vacsem/progress,
//   - and report counts bit-identical to the uninstrumented run.
func TestLiveIntrospectedVerify(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	apx := als.LowerORAdder(8, 3)
	opt := core.Options{Workers: 4}

	baseline, err := core.Verify(context.Background(), exact, apx, core.MetricSpec{Kind: core.MetricMED}, opt)
	if err != nil {
		t.Fatal(err)
	}

	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	// Progress subscriber: collect stream events for the whole run.
	progResp, err := http.Get(base + "/debug/vacsem/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer progResp.Body.Close()
	var (
		evMu     sync.Mutex
		events   []map[string]any
		evDone   = make(chan struct{})
		streamed = bufio.NewScanner(progResp.Body)
	)
	go func() {
		defer close(evDone)
		for streamed.Scan() {
			var ev map[string]any
			if json.Unmarshal(streamed.Bytes(), &ev) == nil {
				evMu.Lock()
				events = append(events, ev)
				evMu.Unlock()
			}
		}
	}()
	// Make sure the subscription landed before the run starts.
	deadline := time.Now().Add(2 * time.Second)
	for !obs.Stream.Active() {
		if time.Now().After(deadline) {
			t.Fatal("progress stream never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	// Metrics scraper: hammer /metrics during the solve and require the
	// decisions counter to be monotone across scrapes.
	decRe := regexp.MustCompile(`(?m)^vacsem_counter_decisions (\d+)$`)
	scrape := func() uint64 {
		resp, err := http.Get(base + "/metrics")
		if err != nil {
			t.Errorf("scrape: %v", err)
			return 0
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
			t.Errorf("scrape Content-Type = %q", ct)
		}
		body, _ := io.ReadAll(resp.Body)
		m := decRe.FindSubmatch(body)
		if m == nil {
			t.Errorf("scrape missing vacsem_counter_decisions:\n%.400s", body)
			return 0
		}
		n, _ := strconv.ParseUint(string(m[1]), 10, 64)
		return n
	}
	solveDone := make(chan struct{})
	scrapeDone := make(chan struct{})
	go func() {
		defer close(scrapeDone)
		var prev uint64
		for {
			n := scrape()
			if n < prev {
				t.Errorf("decisions counter went backwards: %d -> %d", prev, n)
			}
			prev = n
			select {
			case <-solveDone:
				return
			default:
			}
		}
	}()

	// The run id every stream event of this run carries.
	var runID atomic.Uint64
	opt.Progress = func(ev core.ProgressEvent) { runID.Store(ev.RunID) }
	res, err := core.Verify(context.Background(), exact, apx, core.MetricSpec{Kind: core.MetricMED}, opt)
	close(solveDone)
	<-scrapeDone
	if err != nil {
		t.Fatal(err)
	}

	// Bit-identical to the uninstrumented run.
	if res.Count.Cmp(baseline.Count) != 0 {
		t.Errorf("instrumented count %s != baseline %s", res.Count, baseline.Count)
	}
	if res.Value.Cmp(baseline.Value) != 0 {
		t.Errorf("instrumented value %s != baseline %s", res.Value.RatString(), baseline.Value.RatString())
	}

	id := runID.Load()
	if id == 0 {
		t.Fatal("progress events carried no run id")
	}

	// The stream saw the run's lifecycle and per-task progress. Events
	// are delivered asynchronously; give stragglers a moment.
	wanted := map[string]bool{
		"span_start session": false, "span_end sub_miter": false,
		"progress": false, "span_end session": false,
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		evMu.Lock()
		for _, ev := range events {
			kind, _ := ev["ev"].(string)
			if span, ok := ev["span"].(string); ok {
				kind += " " + span
			}
			if _, ok := wanted[kind]; ok {
				if got, _ := ev["run_id"].(float64); uint64(got) == id {
					wanted[kind] = true
					if _, ok := ev["error"]; kind == "span_end session" && ok {
						t.Errorf("successful session ended with an error: %v", ev)
					}
				}
			}
		}
		evMu.Unlock()
		all := true
		for _, seen := range wanted {
			all = all && seen
		}
		if all || time.Now().After(deadline) {
			for kind, seen := range wanted {
				if !seen {
					t.Errorf("stream never delivered %q for run %d", kind, id)
				}
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	progResp.Body.Close()
	<-evDone
}

// A run cut by its TimeLimit still closes its lifecycle on the stream:
// the session span ends with the error.
func TestRunEndOnTimeout(t *testing.T) {
	id := obs.NextRunID()
	ch, cancel := obs.Stream.Subscribe(id, 1024)
	defer cancel()
	ctx := obs.WithRun(context.Background(), id)
	_, err := core.Verify(ctx, gen.RippleCarryAdder(8), als.LowerORAdder(8, 3),
		core.MetricSpec{Kind: core.MetricMED}, core.Options{Workers: 1, TimeLimit: time.Nanosecond})
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("err = %v, want core.ErrTimeout", err)
	}
	var started bool
	timeout := time.After(5 * time.Second)
	for {
		select {
		case line := <-ch:
			var ev map[string]any
			if json.Unmarshal(line, &ev) != nil || ev["span"] != "session" {
				continue
			}
			if got, _ := ev["run_id"].(float64); uint64(got) != id {
				t.Fatalf("a run %d subscriber got a line of run %v", id, ev["run_id"])
			}
			switch ev["ev"] {
			case "span_start":
				started = true
			case "span_end":
				if !started {
					t.Error("the session ended without starting")
				}
				if msg, _ := ev["error"].(string); msg != core.ErrTimeout.Error() {
					t.Errorf("session error = %q, want %q", msg, core.ErrTimeout)
				}
				return
			}
		case <-timeout:
			t.Fatalf("stream never ended the session of run %d", id)
		}
	}
}
