// Package serve is the long-lived verification service: an HTTP/JSON
// front end (vacsem-serve) over the core verification stack, built
// around one process-global cross-request result store
// (internal/store). Requests submit circuit pairs as jobs; a bounded
// FIFO scheduler runs them over the engine's worker pool; every
// completed count lands in the store, so a later request for the same
// cone — same circuit pair, same metric bit, or a structurally
// identical cone from a different pair — is served without solving.
//
// The API:
//
//	POST /v1/verify            submit a job (JSON body; 202 + job id,
//	                           429 when the queue is full)
//	GET  /v1/jobs/{id}         job status and, when done, the result
//	GET  /v1/jobs/{id}/events  live progress for one job: the event
//	                           lines of its run (job, session and task
//	                           spans, per-bit progress), closed by a
//	                           job_state line (NDJSON; SSE with
//	                           Accept: text/event-stream)
//	GET  /v1/store             store statistics (both tiers)
//	/metrics, /debug/...       the obs/expo introspection handler
//
// Exact results served through the store are bit-identical to
// standalone core.Verify calls; approximate results reuse only entries
// whose (ε, δ) guarantee is at least as tight as requested.
package serve

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/obs"
	"vacsem/internal/obs/expo"
	"vacsem/internal/store"
)

var (
	mSubmitted = obs.Default.Counter("serve.jobs_submitted")
	mRejected  = obs.Default.Counter("serve.jobs_rejected")
	mDone      = obs.Default.Counter("serve.jobs_done")
	mFailed    = obs.Default.Counter("serve.jobs_failed")
	mPanicked  = obs.Default.Counter("serve.jobs_panicked")
	gQueue     = obs.Default.Gauge("serve.queue_depth")
	hJobRun    = obs.Default.Histogram("serve.job_seconds", nil)
)

// Config tunes a Server. The zero value serves with a fresh store, one
// job at a time, a queue of 64, and no per-job time-limit defaults.
type Config struct {
	// Store is the cross-request result store (nil = a fresh
	// store.New(store.Config{})). One store per process is the point of
	// the service; inject the same store into every server sharing it.
	Store *store.Store
	// Workers bounds each job's engine worker pool (core.Options.Workers);
	// 0 = one worker per CPU.
	Workers int
	// JobWorkers is the number of jobs run concurrently (default 1:
	// strict FIFO; higher values trade latency for throughput — results
	// stay correct at any setting because the store is content-addressed
	// and counts are function-determined).
	JobWorkers int
	// QueueDepth caps the number of jobs queued behind the running ones;
	// submits beyond it are rejected with 429 (default 64).
	QueueDepth int
	// MaxJobs bounds the finished jobs retained for GET /v1/jobs/{id}
	// (default 256; the oldest finished jobs are pruned first).
	MaxJobs int
	// DefaultTimeLimit applies to jobs that specify none; 0 = unlimited.
	DefaultTimeLimit time.Duration
	// MaxTimeLimit caps any requested time limit; 0 = uncapped.
	MaxTimeLimit time.Duration
	// SnapshotPath, when set, is where Close writes the store snapshot
	// (atomic rename) after draining.
	SnapshotPath string
}

// JobState is a job's lifecycle phase.
type JobState string

const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateError   JobState = "error"
)

// Job is one queued or completed verification request. Fields are
// guarded by the owning Server's mutex; handlers read them through
// snapshots.
type Job struct {
	ID    string
	RunID uint64

	state    JobState
	result   *JobResult
	errMsg   string
	created  time.Time
	started  time.Time
	finished time.Time
	done     chan struct{}

	exact, approx *circuit.Circuit
	specs         []core.MetricSpec
	opt           core.Options
}

// Server is the verification service. Create with New, mount as an
// http.Handler, and Close to drain and snapshot.
type Server struct {
	cfg   Config
	store *store.Store
	mux   *http.ServeMux

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string // insertion order, for pruning
	nextID uint64
	closed bool

	queue   chan *Job
	wg      sync.WaitGroup
	jobCtx  context.Context
	jobStop context.CancelFunc

	// beforeJob, when set, runs on the scheduler goroutine right before
	// each job executes — a deterministic hold point for tests (e.g.
	// filling the queue to provoke 429 without timing races).
	beforeJob func(*Job)
}

// New starts a server's scheduler (JobWorkers goroutines) and returns
// it. The caller owns the HTTP listener; the server is the handler.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		cfg.Store = store.New(store.Config{})
	}
	if cfg.JobWorkers <= 0 {
		cfg.JobWorkers = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 256
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		store:   cfg.Store,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueDepth),
		jobCtx:  ctx,
		jobStop: stop,
	}
	s.mux = s.buildMux()
	s.wg.Add(cfg.JobWorkers)
	for i := 0; i < cfg.JobWorkers; i++ {
		go s.runner()
	}
	return s
}

// Store returns the server's cross-request store.
func (s *Server) Store() *store.Store { return s.store }

// ServeHTTP dispatches to the API mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// buildMux wires the API routes plus the expo introspection handler
// (which brings /metrics, the live progress stream and pprof along).
func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/store", s.handleStore)
	mux.Handle("/", expo.NewHandler(expo.Options{}))
	return mux
}

// submit validates admission and enqueues a parsed job. It returns the
// job and a nil error, or an *apiError shaped for the HTTP layer.
func (s *Server) submit(j *Job) *apiError {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return &apiError{status: http.StatusServiceUnavailable, msg: "server is draining"}
	}
	// Fully initialize the job before it becomes reachable from the
	// queue — a runner may pick it up the instant the send lands.
	s.nextID++
	j.ID = fmt.Sprintf("job-%d", s.nextID)
	j.RunID = obs.NextRunID()
	j.state = StateQueued
	j.created = time.Now()
	j.done = make(chan struct{})
	select {
	case s.queue <- j:
	default:
		mRejected.Inc()
		return &apiError{status: http.StatusTooManyRequests,
			msg: fmt.Sprintf("job queue full (%d queued)", cap(s.queue))}
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.pruneLocked()
	mSubmitted.Inc()
	gQueue.Set(int64(len(s.queue)))
	return nil
}

// pruneLocked drops the oldest finished jobs beyond Config.MaxJobs.
// Queued and running jobs are never pruned — the map can exceed the
// bound by at most the queue depth plus the running jobs.
func (s *Server) pruneLocked() {
	excess := len(s.jobs) - s.cfg.MaxJobs
	if excess <= 0 {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		j := s.jobs[id]
		if excess > 0 && j != nil && (j.state == StateDone || j.state == StateError) {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// runner is one scheduler goroutine: it drains the FIFO queue until
// Close closes it.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue {
		gQueue.Set(int64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one job against the shared store, under its "job"
// span, and records its outcome. The job's run ID is stamped on the
// context before core runs, so every event line of the job carries it —
// the events endpoint subscribes to the stream by it. The span ends
// before the job is marked finished, so a stream that closes on
// completion has the job's every line.
func (s *Server) runJob(j *Job) {
	if h := s.beforeJob; h != nil {
		h(j)
	}
	s.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	s.mu.Unlock()
	ctx, span := obs.Start(obs.WithRun(s.jobCtx, j.RunID), "job", obs.Fields{
		"job_id": j.ID, "session": sessionName(j.specs),
	})
	sr, err := verifyJob(ctx, j)
	end := obs.Fields{"job_id": j.ID}
	if err != nil {
		end["error"] = err.Error()
	}
	span.End(end)

	s.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateError
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
		j.result = shapeResult(sr)
	}
	runSec := j.finished.Sub(j.started).Seconds()
	s.mu.Unlock()
	close(j.done)
	if err != nil {
		mFailed.Inc()
	} else {
		mDone.Inc()
	}
	hJobRun.Observe(runSec)
}

// verifyJob runs the job's session. A panic anywhere in the library
// becomes the job's error (and counts in serve.jobs_panicked) instead
// of taking down the process and its warm store; the engine re-raises
// panics from its worker goroutines on this one, so they land here too.
func verifyJob(ctx context.Context, j *Job) (sr *core.SessionResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			mPanicked.Inc()
			sr, err = nil, fmt.Errorf("serve: job panicked: %v", r)
		}
	}()
	return core.VerifyMetrics(ctx, j.exact, j.approx, j.specs, j.opt)
}

func sessionName(specs []core.MetricSpec) string {
	name := ""
	for i, sp := range specs {
		if i > 0 {
			name += "+"
		}
		name += sp.MetricName()
	}
	return name
}

// Close drains the service: no new submits are admitted, queued and
// running jobs finish, and — when Config.SnapshotPath is set — the
// store is snapshotted to disk. If ctx expires first, the in-flight
// jobs are cancelled (their contexts are children of the server's) and
// the snapshot still runs over whatever completed; the ctx error is
// returned after the workers exit.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.queue) // submits check closed under mu, so no send can race this
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.jobStop() // cut in-flight jobs loose
		<-drained
	}
	s.jobStop()
	if s.cfg.SnapshotPath != "" {
		if serr := s.store.SnapshotFile(s.cfg.SnapshotPath); serr != nil && err == nil {
			err = serr
		}
	}
	return err
}
