package expo

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"sync"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/core"
	"vacsem/internal/gen"
	"vacsem/internal/obs"
)

// TestLiveIntrospectedVerify is the acceptance check for the tentpole:
// a verification with the flight recorder sampling and the introspection
// server being scraped concurrently (run under -race in CI) must
//
//   - serve parseable /metrics whose counter values only ever grow,
//   - stream per-task progress on /debug/vacsem/progress,
//   - attach a non-empty time-series to the result,
//   - and report counts bit-identical to the uninstrumented run.
func TestLiveIntrospectedVerify(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	apx := als.LowerORAdder(8, 3)
	opt := core.Options{Workers: 4}

	baseline, err := core.Verify(context.Background(), exact, apx, core.MetricSpec{Kind: core.MetricMED}, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Install the full live stack: fast-sampling recorder + server.
	rec := obs.NewRecorder(nil, time.Millisecond, nil)
	rec.Start()
	obs.SetRecorder(rec)
	defer func() {
		obs.SetRecorder(nil)
		rec.Close()
	}()
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

	// Non-empty time-series attached to the result.
	ts := res.Timeseries
	if ts == nil {
		t.Fatal("result carries no Timeseries despite active recorder")
	}
	if ts.RunID == 0 || ts.Label != "MED" || len(ts.TMs) == 0 {
		t.Errorf("timeseries = run %d %q with %d points", ts.RunID, ts.Label, len(ts.TMs))
	}
	for i, name := range ts.Names {
		if name == "counter.decisions" {
			s := ts.Series[i]
			if got, want := s[len(s)-1], res.TotalStats.Decisions; got != want {
				t.Errorf("timeseries final decisions = %d, want the run's %d", got, want)
			}
		}
	}

	// The flight endpoint now lists the finished run.
	runsResp, err := http.Get(base + "/debug/vacsem/runs")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.FlightSnapshot
	err = json.NewDecoder(runsResp.Body).Decode(&snap)
	runsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range snap.Recent {
		if r.RunID == ts.RunID {
			found = true
		}
	}
	if !found {
		t.Errorf("/debug/vacsem/runs recent lacks run %d: %+v", ts.RunID, snap.Recent)
	}

	// The stream saw the run's lifecycle and per-task progress. Events
	// are delivered asynchronously; give stragglers a moment.
	wanted := map[string]bool{"run_start": false, "task_done": false, "progress": false, "run_end": false}
	deadline = time.Now().Add(5 * time.Second)
	for {
		evMu.Lock()
		for _, ev := range events {
			kind, _ := ev["ev"].(string)
			if _, ok := wanted[kind]; ok {
				if id, _ := ev["run_id"].(float64); uint64(id) == ts.RunID {
					wanted[kind] = true
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
					t.Errorf("stream never delivered %q for run %d", kind, ts.RunID)
				}
			}
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	progResp.Body.Close()
	<-evDone
}
