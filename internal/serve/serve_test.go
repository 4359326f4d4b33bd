package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/engine"
	"vacsem/internal/gen"
	"vacsem/internal/store"
)

func blifText(t *testing.T, c *circuit.Circuit) string {
	t.Helper()
	var buf bytes.Buffer
	if err := blif.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// adderRequest builds the standard test submission: ER+MED over a
// ripple-carry adder vs its lower-OR approximation.
func adderRequest(t *testing.T, width, cut int) *VerifyRequest {
	t.Helper()
	return &VerifyRequest{
		ExactBLIF:  blifText(t, gen.RippleCarryAdder(width)),
		ApproxBLIF: blifText(t, als.LowerORAdder(width, cut)),
		Metrics:    []string{"er", "med"},
	}
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	hs := httptest.NewServer(s)
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("server close: %v", err)
		}
	})
	return s, hs
}

func submit(t *testing.T, base string, vr *VerifyRequest) SubmitResponse {
	t.Helper()
	resp := postJSON(t, base, vr)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	var sr SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	return sr
}

func postJSON(t *testing.T, base string, vr *VerifyRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(vr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/verify", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// waitDone polls a job to a terminal state.
func waitDone(t *testing.T, base, id string) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st JobStatus
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case StateDone:
			return &st
		case StateError:
			t.Fatalf("job %s failed: %s", id, st.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return nil
}

func runJobHTTP(t *testing.T, base string, vr *VerifyRequest) *JobStatus {
	t.Helper()
	sr := submit(t, base, vr)
	return waitDone(t, base, sr.JobID)
}

func sameMetrics(t *testing.T, label string, a, b []MetricResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d metrics", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Value != b[i].Value || a[i].Count != b[i].Count {
			t.Errorf("%s: metric %s diverged: %s (%s) vs %s (%s)", label,
				a[i].Metric, a[i].Value, a[i].Count, b[i].Value, b[i].Count)
		}
	}
}

// TestServeDedupAcrossRequests is the cross-request dedup acceptance
// test: the same adder-pair verify submitted twice to one serve
// instance must return bit-identical results, with the second job
// solving nothing — all its non-trivial tasks served from the store —
// and the cycle must survive a snapshot/reload into a fresh server.
func TestServeDedupAcrossRequests(t *testing.T) {
	snapPath := filepath.Join(t.TempDir(), "store.json")
	s, hs := newTestServer(t, Config{SnapshotPath: snapPath})
	req := adderRequest(t, 12, 4)

	cold := runJobHTTP(t, hs.URL, req)
	if cold.Result.StoreConeHits != 0 {
		t.Errorf("cold job reports %d store hits", cold.Result.StoreConeHits)
	}
	if cold.Result.Decisions == 0 {
		t.Error("cold job reports zero decisions; the pair is too trivial to test dedup")
	}
	warm := runJobHTTP(t, hs.URL, req)
	if warm.Result.StoreConeHits == 0 {
		t.Fatal("warm job served nothing from the store")
	}
	if warm.Result.Decisions != 0 || warm.Result.Components != 0 {
		t.Errorf("warm job still solved: decisions=%d components=%d",
			warm.Result.Decisions, warm.Result.Components)
	}
	sameMetrics(t, "cold vs warm", cold.Result.Metrics, warm.Result.Metrics)

	st := s.Store().Stats()
	if st.Cones.Hits == 0 {
		t.Error("store reports no cone hits after the warm job")
	}

	// Drain + snapshot, then restart from the snapshot: the reloaded
	// server must serve the same request store-warm.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	hs.Close()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	reloaded := store.New(store.Config{})
	if err := reloaded.LoadFile(snapPath); err != nil {
		t.Fatalf("reload snapshot: %v", err)
	}
	s2, hs2 := newTestServer(t, Config{Store: reloaded})
	_ = s2
	again := runJobHTTP(t, hs2.URL, req)
	if again.Result.StoreConeHits == 0 {
		t.Fatal("job after snapshot/reload served nothing from the store")
	}
	if again.Result.Decisions != 0 {
		t.Errorf("job after reload still solved: decisions=%d", again.Result.Decisions)
	}
	sameMetrics(t, "cold vs reloaded", cold.Result.Metrics, again.Result.Metrics)
}

// TestServeConcurrentMatchesSequential is the shared-store determinism
// contract over HTTP: N jobs submitted concurrently (several running at
// once over one store) return results bit-identical to N sequential
// standalone core.VerifyMetrics calls without any store. Run under
// -race this also pins the locking of the whole service path.
func TestServeConcurrentMatchesSequential(t *testing.T) {
	type jobSpec struct {
		width, cut int
		metrics    []string
	}
	jobs := []jobSpec{
		{9, 3, []string{"er"}},
		{9, 3, []string{"med"}},
		{9, 3, []string{"er", "med", "mhd"}},
		{10, 3, []string{"er", "med"}},
		{10, 3, []string{"er", "med"}}, // duplicate: may be store-served
		{10, 4, []string{"mhd"}},
		{8, 2, []string{"er"}},
		{8, 3, []string{"med"}},
	}

	// Sequential reference: fresh standalone sessions, no store.
	want := make([][]MetricResult, len(jobs))
	for i, js := range jobs {
		specs := make([]core.MetricSpec, len(js.metrics))
		for k, m := range js.metrics {
			sp, err := core.MetricSpecByName(m, nil)
			if err != nil {
				t.Fatal(err)
			}
			specs[k] = sp
		}
		sr, err := core.VerifyMetrics(context.Background(),
			gen.RippleCarryAdder(js.width), als.LowerORAdder(js.width, js.cut), specs,
			core.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = shapeResult(sr).Metrics
	}

	_, hs := newTestServer(t, Config{JobWorkers: 4})
	got := make([]*JobStatus, len(jobs))
	var wg sync.WaitGroup
	for i, js := range jobs {
		wg.Add(1)
		go func(i int, js jobSpec) {
			defer wg.Done()
			req := &VerifyRequest{
				ExactBLIF:  blifText(t, gen.RippleCarryAdder(js.width)),
				ApproxBLIF: blifText(t, als.LowerORAdder(js.width, js.cut)),
				Metrics:    js.metrics,
			}
			got[i] = runJobHTTP(t, hs.URL, req)
		}(i, js)
	}
	wg.Wait()
	for i := range jobs {
		sameMetrics(t, fmt.Sprintf("job %d", i), want[i], got[i].Result.Metrics)
	}
}

// TestServeAdmissionControl pins the 429 path deterministically: with a
// single job worker held inside beforeJob and a queue of one, a third
// submit must be rejected, and releasing the worker completes the rest.
func TestServeAdmissionControl(t *testing.T) {
	s := New(Config{QueueDepth: 1})
	entered := make(chan *Job, 1)
	release := make(chan struct{})
	s.beforeJob = func(j *Job) {
		entered <- j
		<-release
	}
	hs := httptest.NewServer(s)
	defer hs.Close()

	req := adderRequest(t, 8, 2)
	first := submit(t, hs.URL, req)
	<-entered // the worker holds job 1; the queue is empty again
	second := submit(t, hs.URL, req)
	resp := postJSON(t, hs.URL, req) // queue full -> rejected
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("third submit status %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()

	close(release)
	<-entered // worker picks up job 2
	waitDone(t, hs.URL, first.JobID)
	waitDone(t, hs.URL, second.JobID)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
	// A submit after Close is refused outright.
	resp = postJSON(t, hs.URL, req)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-close submit status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeEvents checks the per-job event stream: with two jobs
// running at once, each stream carries only its own run's lines (plus
// the synthesized open/terminal lines), the job's session and job spans
// end before the closing job_state line, and a subscriber that arrives
// after completion still gets the terminal state.
func TestServeEvents(t *testing.T) {
	s, hs := newTestServer(t, Config{JobWorkers: 2})
	release := make(chan struct{})
	var once sync.Once
	open := func() { once.Do(func() { close(release) }) }
	t.Cleanup(open)
	s.beforeJob = func(*Job) { <-release }

	jobs := []SubmitResponse{submit(t, hs.URL, adderRequest(t, 10, 3)), submit(t, hs.URL, adderRequest(t, 8, 2))}
	decs := make([]*json.Decoder, len(jobs))
	for i, j := range jobs {
		resp, err := http.Get(hs.URL + "/v1/jobs/" + j.JobID + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("content type %q", ct)
		}
		decs[i] = json.NewDecoder(resp.Body)
	}
	readAll := func(dec *json.Decoder) []map[string]any {
		var lines []map[string]any
		for dec.More() {
			var m map[string]any
			if err := dec.Decode(&m); err != nil {
				t.Fatal(err)
			}
			lines = append(lines, m)
		}
		return lines
	}
	// The stream_open line is written after the subscription, so once
	// both arrived the jobs may run.
	runs := make([]uint64, len(jobs))
	for i, dec := range decs {
		var first map[string]any
		if err := dec.Decode(&first); err != nil || first["ev"] != "stream_open" {
			t.Fatalf("job %d first line = %v (%v), want stream_open", i, first, err)
		}
		runs[i] = uint64(first["run_id"].(float64))
	}
	if runs[0] == runs[1] {
		t.Fatalf("both jobs have run %d", runs[0])
	}
	open()

	for i, run := range runs {
		lines := readAll(decs[i])
		if len(lines) == 0 {
			t.Fatalf("job %d stream closed without lines", i)
		}
		last := lines[len(lines)-1]
		if last["ev"] != "job_state" || last["state"] != string(StateDone) {
			t.Errorf("job %d terminal line = %v", i, last)
		}
		ended := map[string]bool{}
		for _, l := range lines {
			if id, ok := l["run_id"].(float64); !ok || uint64(id) != run {
				t.Errorf("job %d (run %d) stream carries a line of run %v: %v", i, run, l["run_id"], l)
			}
			if l["ev"] == "span_end" {
				ended[l["span"].(string)] = true
			}
		}
		for _, span := range []string{"session", "job", "sub_miter"} {
			if !ended[span] {
				t.Errorf("job %d stream closed before its %s span ended", i, span)
			}
		}
	}

	// A subscriber arriving after completion gets the open and terminal
	// lines only.
	resp, err := http.Get(hs.URL + "/v1/jobs/" + jobs[0].JobID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	late := readAll(json.NewDecoder(resp.Body))
	resp.Body.Close()
	if len(late) != 2 || late[0]["ev"] != "stream_open" || late[1]["ev"] != "job_state" {
		t.Errorf("late subscriber got %v", late)
	}

	// Unknown jobs 404 on both endpoints.
	for _, p := range []string{"/v1/jobs/nope", "/v1/jobs/nope/events"} {
		resp, err := http.Get(hs.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", p, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestServeBadRequests pins the validation layer.
func TestServeBadRequests(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	good := adderRequest(t, 8, 2)
	cases := []struct {
		name string
		mut  func(*VerifyRequest)
	}{
		{"missing approx", func(v *VerifyRequest) { v.ApproxBLIF = "" }},
		{"bad blif", func(v *VerifyRequest) { v.ExactBLIF = ".model x\n.garbage\n" }},
		{"bad metric", func(v *VerifyRequest) { v.Metrics = []string{"wce?"} }},
		{"bad method", func(v *VerifyRequest) { v.Method = "quantum" }},
		{"thr without threshold", func(v *VerifyRequest) { v.Metrics = []string{"thr"} }},
		{"bad threshold", func(v *VerifyRequest) { v.Metrics = []string{"thr"}; v.Threshold = "2.5" }},
	}
	for _, c := range cases {
		vr := *good
		c.mut(&vr)
		resp := postJSON(t, hs.URL, &vr)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c.name, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// Unknown fields are rejected (catches misspelled options instead of
	// silently ignoring them).
	resp, err := http.Post(hs.URL+"/v1/verify", "application/json",
		strings.NewReader(`{"exact_blif":"x","bogus_field":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestServeStoreEndpointAndMetrics checks the operational surfaces the
// smoke scripts scrape: /v1/store statistics and the store counters on
// /metrics.
func TestServeStoreEndpointAndMetrics(t *testing.T) {
	_, hs := newTestServer(t, Config{})
	req := adderRequest(t, 10, 3)
	runJobHTTP(t, hs.URL, req)
	runJobHTTP(t, hs.URL, req)

	resp, err := http.Get(hs.URL + "/v1/store")
	if err != nil {
		t.Fatal(err)
	}
	var st store.Stats
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cones.Hits == 0 || st.Cones.Stores == 0 {
		t.Errorf("store stats show no activity: %+v", st.Cones)
	}

	resp, err = http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.String()
	for _, name := range []string{"store_cone_hits", "store_cone_stores", "serve_jobs_done"} {
		if !strings.Contains(body, name) {
			t.Errorf("/metrics is missing %s", name)
		}
	}
}

// panicBackend panics in Count, standing in for a library bug.
type panicBackend struct{}

func (panicBackend) Name() string { return core.Method(99).String() }
func (panicBackend) Count(context.Context, *engine.Request, []int, *engine.Emitter) error {
	panic("backend bug")
}

// TestServeJobPanicIsolated: a job whose backend panics ends in
// StateError with the panic counted in serve.jobs_panicked, and the
// server keeps running jobs afterwards.
func TestServeJobPanicIsolated(t *testing.T) {
	engine.Register(panicBackend{})
	s, hs := newTestServer(t, Config{Workers: 1})
	before := mPanicked.Value()
	j := &Job{
		exact:  gen.RippleCarryAdder(4),
		approx: als.LowerORAdder(4, 2),
		specs:  []core.MetricSpec{{Kind: core.MetricER}},
		opt:    core.Options{Method: core.Method(99)},
	}
	if err := s.submit(j); err != nil {
		t.Fatalf("submit: %s", err.msg)
	}
	<-j.done
	s.mu.Lock()
	state, msg := j.state, j.errMsg
	s.mu.Unlock()
	if state != StateError || !strings.Contains(msg, "backend bug") {
		t.Errorf("panicking job: state %q, error %q; want %q with the panic value", state, msg, StateError)
	}
	if got := mPanicked.Value() - before; got != 1 {
		t.Errorf("serve.jobs_panicked advanced by %d, want 1", got)
	}
	if st := runJobHTTP(t, hs.URL, adderRequest(t, 4, 2)); len(st.Result.Metrics) != 2 {
		t.Errorf("job after the panic returned %d metrics, want 2", len(st.Result.Metrics))
	}
}
