package serve

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"strings"
	"time"

	"vacsem/internal/blif"
	"vacsem/internal/core"
	"vacsem/internal/miter"
	"vacsem/internal/obs"
	"vacsem/internal/obs/expo"
)

// maxBodyBytes bounds a submit body (two BLIF circuits plus options).
const maxBodyBytes = 64 << 20

// VerifyRequest is the POST /v1/verify body. Circuits travel as BLIF
// text (the stack's textual interchange format).
type VerifyRequest struct {
	// ExactBLIF and ApproxBLIF are the circuit pair.
	ExactBLIF  string `json:"exact_blif"`
	ApproxBLIF string `json:"approx_blif"`
	// Metrics lists the requested metrics: "er", "med", "mhd", "thr"
	// (which needs Threshold). Default: ["er"].
	Metrics []string `json:"metrics,omitempty"`
	// Threshold is the decimal deviation threshold of "thr".
	Threshold string `json:"threshold,omitempty"`
	// Method picks the backend ("vacsem", "dpll", "enum", "bdd",
	// "approx"; default "vacsem").
	Method string `json:"method,omitempty"`
	// Epsilon/Delta/Seed tune the approx method (see core.Options).
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	Seed    int64   `json:"seed,omitempty"`
	// TimeLimitMS bounds the job (clamped to the server's MaxTimeLimit;
	// 0 = the server's DefaultTimeLimit).
	TimeLimitMS int64 `json:"time_limit_ms,omitempty"`
	// NoSynth skips the synthesis passes.
	NoSynth bool `json:"no_synth,omitempty"`
}

// SubmitResponse answers an accepted POST /v1/verify.
type SubmitResponse struct {
	JobID string   `json:"job_id"`
	State JobState `json:"state"`
}

// MetricResult is one metric's verdict inside a JobResult.
type MetricResult struct {
	Metric string `json:"metric"`
	// Value is the exact rational ("num/den"); Float its float64 form.
	Value string  `json:"value"`
	Float float64 `json:"float"`
	// Count is the weighted pattern count (the numerator over 2^inputs).
	Count      string  `json:"count"`
	Approx     bool    `json:"approx,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Confidence float64 `json:"confidence"`
	BestEffort bool    `json:"best_effort,omitempty"`
}

// JobResult is a finished job's payload.
type JobResult struct {
	Metrics        []MetricResult `json:"metrics"`
	Method         string         `json:"method"`
	NumInputs      int            `json:"num_inputs"`
	RuntimeMS      float64        `json:"runtime_ms"`
	TasksRequested int            `json:"tasks_requested"`
	TasksUnique    int            `json:"tasks_unique"`
	TasksDeduped   int            `json:"tasks_deduped"`
	// StoreConeHits counts tasks served whole from the cross-request
	// store — the dedup the service exists for.
	StoreConeHits int    `json:"store_cone_hits"`
	Decisions     uint64 `json:"decisions"`
	Components    uint64 `json:"components"`
}

// JobStatus is the GET /v1/jobs/{id} body.
type JobStatus struct {
	JobID  string     `json:"job_id"`
	RunID  uint64     `json:"run_id"`
	State  JobState   `json:"state"`
	Error  string     `json:"error,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	// QueuedMS is time spent waiting; RunMS the execution time so far
	// (or total, once finished).
	QueuedMS float64 `json:"queued_ms"`
	RunMS    float64 `json:"run_ms,omitempty"`
}

// apiError is an HTTP-shaped error from the service layer.
type apiError struct {
	status int
	msg    string
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// parseRequest validates a submit body into a ready-to-run Job.
func (s *Server) parseRequest(vr *VerifyRequest) (*Job, *apiError) {
	bad := func(format string, args ...any) (*Job, *apiError) {
		return nil, &apiError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
	}
	if vr.ExactBLIF == "" || vr.ApproxBLIF == "" {
		return bad("exact_blif and approx_blif are required")
	}
	exact, err := blif.Parse(strings.NewReader(vr.ExactBLIF))
	if err != nil {
		return bad("exact_blif: %v", err)
	}
	approx, err := blif.Parse(strings.NewReader(vr.ApproxBLIF))
	if err != nil {
		return bad("approx_blif: %v", err)
	}
	method, err := core.MethodByName(strings.ToLower(orDefault(vr.Method, "vacsem")))
	if err != nil {
		return bad("%v", err)
	}
	names := vr.Metrics
	if len(names) == 0 {
		names = []string{"er"}
	}
	var threshold *big.Int
	if vr.Threshold != "" {
		t, ok := new(big.Int).SetString(vr.Threshold, 10)
		if !ok {
			return bad("threshold %q is not a decimal integer", vr.Threshold)
		}
		threshold = t
	}
	specs := make([]core.MetricSpec, len(names))
	for i, n := range names {
		sp, err := core.MetricSpecByName(strings.ToLower(n), threshold)
		if err != nil {
			return bad("%v", err)
		}
		if sp.Kind == core.MetricThresholdProb {
			// Fail at submit, not inside the job: thr needs a threshold.
			if err := miter.CheckThreshold(sp.Threshold); err != nil {
				return bad("%v", err)
			}
		}
		specs[i] = sp
	}
	limit := s.cfg.DefaultTimeLimit
	if vr.TimeLimitMS > 0 {
		limit = time.Duration(vr.TimeLimitMS) * time.Millisecond
	}
	if s.cfg.MaxTimeLimit > 0 && (limit <= 0 || limit > s.cfg.MaxTimeLimit) {
		limit = s.cfg.MaxTimeLimit
	}
	return &Job{
		exact: exact, approx: approx, specs: specs,
		opt: core.Options{
			Method:    method,
			NoSynth:   vr.NoSynth,
			TimeLimit: limit,
			Workers:   s.cfg.Workers,
			Epsilon:   vr.Epsilon,
			Delta:     vr.Delta,
			Seed:      vr.Seed,
			Store:     s.store,
		},
	}, nil
}

func orDefault(v, def string) string {
	if v == "" {
		return def
	}
	return v
}

// shapeResult converts a core session result into the wire form.
func shapeResult(sr *core.SessionResult) *JobResult {
	jr := &JobResult{
		Metrics:        make([]MetricResult, len(sr.Results)),
		Method:         sr.Method.String(),
		NumInputs:      sr.NumInputs,
		RuntimeMS:      float64(sr.Runtime.Microseconds()) / 1e3,
		TasksRequested: sr.TasksRequested,
		TasksUnique:    sr.TasksUnique,
		TasksDeduped:   sr.TasksDeduped,
		StoreConeHits:  sr.StoreConeHits,
		Decisions:      sr.TotalStats.Decisions,
		Components:     sr.TotalStats.Components,
	}
	for i, r := range sr.Results {
		f, _ := r.Value.Float64()
		jr.Metrics[i] = MetricResult{
			Metric:     r.Metric,
			Value:      r.Value.RatString(),
			Float:      f,
			Count:      r.Count.String(),
			Approx:     r.Approx,
			Epsilon:    r.Epsilon,
			Delta:      r.Delta,
			Confidence: r.Confidence,
			BestEffort: r.BestEffort,
		}
	}
	return jr
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	var vr VerifyRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&vr); err != nil {
		writeErr(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	j, aerr := s.parseRequest(&vr)
	if aerr != nil {
		writeErr(w, aerr.status, "%s", aerr.msg)
		return
	}
	if aerr := s.submit(j); aerr != nil {
		writeErr(w, aerr.status, "%s", aerr.msg)
		return
	}
	writeJSON(w, http.StatusAccepted, SubmitResponse{JobID: j.ID, State: StateQueued})
}

// status snapshots a job under the server lock.
func (s *Server) status(id string) (*JobStatus, chan struct{}, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, nil, 0, false
	}
	st := &JobStatus{
		JobID: j.ID, RunID: j.RunID, State: j.state,
		Error: j.errMsg, Result: j.result,
	}
	now := time.Now()
	switch j.state {
	case StateQueued:
		st.QueuedMS = ms(now.Sub(j.created))
	case StateRunning:
		st.QueuedMS = ms(j.started.Sub(j.created))
		st.RunMS = ms(now.Sub(j.started))
	default:
		st.QueuedMS = ms(j.started.Sub(j.created))
		st.RunMS = ms(j.finished.Sub(j.started))
	}
	return st, j.done, j.RunID, true
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	st, _, _, ok := s.status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStore(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.Stats())
}

// handleEvents streams the event lines of the job's run to one client
// until the job finishes (a final job_state line is synthesized from the
// job record, so a subscriber that arrived after completion — or after
// the job's last event — still gets a terminal line) or the client
// disconnects. NDJSON by default, SSE with Accept:
// text/event-stream — the same convention as /debug/vacsem/progress.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	st, done, runID, ok := s.status(r.PathValue("id"))
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeLine := expo.LineWriter(w, r)
	if writeLine == nil {
		writeErr(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	final := func() {
		st, _, _, ok := s.status(st.JobID)
		if !ok {
			return
		}
		line, _ := json.Marshal(obs.Fields{
			"ev": "job_state", "job_id": st.JobID, "run_id": st.RunID,
			"state": st.State, "error": st.Error,
		})
		writeLine(line)
	}

	// Subscribe before checking for completion, so no event between the
	// two is lost.
	ch, cancel := obs.Stream.Subscribe(runID, 0)
	defer cancel()
	open, _ := json.Marshal(obs.Fields{
		"ev": "stream_open", "job_id": st.JobID, "run_id": runID, "state": st.State,
	})
	if !writeLine(open) {
		return
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !writeLine(ev) {
				return
			}
		case <-done:
			// Drain whatever the hub already buffered for this run, then
			// close with the job's terminal state.
			for {
				select {
				case ev, ok := <-ch:
					if ok && !writeLine(ev) {
						return
					}
					if !ok {
						final()
						return
					}
					continue
				default:
				}
				break
			}
			final()
			return
		}
	}
}
