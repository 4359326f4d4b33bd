package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/obs"
)

// SubRecord is the wall time and outcome of one sub-miter inside one
// verification run — the per-sub-miter breakdown the text tables never
// showed (they only print geomean totals).
type SubRecord struct {
	Output    string  `json:"output"`
	Seconds   float64 `json:"seconds"`
	Count     string  `json:"count"`
	Trivial   bool    `json:"trivial,omitempty"`
	Decisions uint64  `json:"decisions,omitempty"`
	SimCalls  uint64  `json:"sim_calls,omitempty"`
	CacheHits uint64  `json:"cache_hits,omitempty"`
	// CacheCross counts hits on components first solved inside another
	// sub-miter of the same run (nonzero only with the shared cache).
	CacheCross uint64 `json:"cache_cross_hits,omitempty"`
	// Approx marks an (ε, δ)-estimated count; Epsilon/Delta are its
	// per-task tolerance and failure probability.
	Approx  bool    `json:"approx,omitempty"`
	Epsilon float64 `json:"epsilon,omitempty"`
	Delta   float64 `json:"delta,omitempty"`
	// BestEffort marks an approx count whose round schedule was cut
	// short by the time limit (Delta above is already widened).
	BestEffort bool `json:"best_effort,omitempty"`
	// SupportBefore/SupportAfter are the approx sampling-set sizes
	// around independent-support minimization; HashDensity is the mean
	// density of the hash rows drawn.
	SupportBefore int     `json:"support_before,omitempty"`
	SupportAfter  int     `json:"support_after,omitempty"`
	HashDensity   float64 `json:"hash_density,omitempty"`
}

// RunRecord is one (benchmark, metric, method, version) measurement.
type RunRecord struct {
	Bench      string        `json:"bench"`
	Metric     string        `json:"metric"`
	Method     string        `json:"method"`
	Version    int           `json:"version"`
	Seconds    float64       `json:"seconds"`
	Value      string        `json:"value,omitempty"` // exact rational metric value
	Count      string        `json:"count,omitempty"`
	NumInputs  int           `json:"num_inputs,omitempty"`
	TimedOut   bool          `json:"timed_out,omitempty"`
	Infeasible bool          `json:"infeasible,omitempty"`
	Err        string        `json:"error,omitempty"`
	Subs       []SubRecord   `json:"subs,omitempty"`
	Stats      counter.Stats `json:"stats"`
	// Approx marks a value estimated by the approx backend rather than
	// computed exactly; Epsilon/Delta/Confidence are then the metric's
	// aggregated (ε, δ) guarantee. Exact runs omit all four fields, so
	// approximate and exact records are directly distinguishable when
	// comparing values across a report.
	Approx     bool    `json:"approx,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Delta      float64 `json:"delta,omitempty"`
	Confidence float64 `json:"confidence,omitempty"`
	// BestEffort marks an approx run whose round schedule was cut short
	// by the time limit on at least one task (Delta is already widened).
	BestEffort bool `json:"best_effort,omitempty"`
}

// newRunRecord flattens one verification outcome into a RunRecord. res
// may be nil (timeout, infeasible, error); wall is the caller-observed
// duration, used when res carries no runtime of its own.
func newRunRecord(bench, metric string, m core.Method, version int, res *core.Result, err error, wall time.Duration) RunRecord {
	rec := RunRecord{
		Bench:   bench,
		Metric:  metric,
		Method:  m.String(),
		Version: version,
		Seconds: wall.Seconds(),
	}
	switch classify(err) {
	case outcomeTimeout:
		rec.TimedOut = true
	case outcomeTooLarge, outcomeBlowUp:
		rec.Infeasible = true
	case outcomeError:
		rec.Err = err.Error()
	}
	if res == nil {
		return rec
	}
	if res.Runtime > 0 {
		rec.Seconds = res.Runtime.Seconds()
	}
	rec.Value = res.Value.RatString()
	rec.Count = res.Count.String()
	rec.NumInputs = res.NumInputs
	rec.Stats = res.TotalStats
	if res.Approx {
		rec.Approx = true
		rec.Epsilon = res.Epsilon
		rec.Delta = res.Delta
		rec.Confidence = res.Confidence
		rec.BestEffort = res.BestEffort
	}
	rec.Subs = make([]SubRecord, len(res.Subs))
	for i, sub := range res.Subs {
		rec.Subs[i] = SubRecord{
			Output:        sub.Output,
			Seconds:       sub.Runtime.Seconds(),
			Count:         sub.Count.String(),
			Trivial:       sub.Trivial,
			Decisions:     sub.Stats.Decisions,
			SimCalls:      sub.Stats.SimCalls,
			CacheHits:     sub.Stats.CacheHits,
			CacheCross:    sub.Stats.CacheCrossHits,
			Approx:        sub.Approx,
			Epsilon:       sub.Epsilon,
			Delta:         sub.Delta,
			BestEffort:    sub.BestEffort,
			SupportBefore: sub.SupportBefore,
			SupportAfter:  sub.SupportAfter,
			HashDensity:   sub.HashDensity,
		}
	}
	return rec
}

// outcome recovers the outcome classify gave the run. Infeasible
// covers two outcomes, told apart by the method: only the bdd backend
// has a node budget to blow.
func (r *RunRecord) outcome() outcome {
	switch {
	case r.Err != "":
		return outcomeError
	case r.TimedOut:
		return outcomeTimeout
	case r.Infeasible && r.Method == core.MethodBDD.String():
		return outcomeBlowUp
	case r.Infeasible:
		return outcomeTooLarge
	}
	return outcomeOK
}

// MetricRecord is one metric's verified value inside a multi-metric
// session record.
type MetricRecord struct {
	Metric string `json:"metric"`
	Value  string `json:"value"`
	Count  string `json:"count"`
}

// SessionRecord is one multi-metric verification session (the -table
// multi mode): all metrics of one (benchmark, version) pair verified in
// a single shared-base, task-deduplicated run. The standalone runs it
// is compared with are RunRecords under "<bench>/standalone".
type SessionRecord struct {
	Bench   string         `json:"bench"`
	Method  string         `json:"method"`
	Version int            `json:"version"`
	Seconds float64        `json:"seconds"`
	Metrics []MetricRecord `json:"metrics,omitempty"`
	// TasksRequested counts metric output bits before deduplication;
	// TasksUnique the counting tasks actually solved.
	TasksRequested int `json:"tasks_requested"`
	TasksUnique    int `json:"tasks_unique"`
	TasksDeduped   int `json:"tasks_deduped"`
	// BaseNodesBefore/After is the shared base miter's gate count around
	// its single synthesis pass.
	BaseNodesBefore int `json:"base_nodes_before"`
	BaseNodesAfter  int `json:"base_nodes_after"`
	// CacheCrossHits counts component-cache hits on entries first stored
	// by another sub-miter solver — with the session-wide shared cache
	// this includes hits across metrics.
	CacheCrossHits uint64        `json:"cache_cross_hits"`
	TimedOut       bool          `json:"timed_out,omitempty"`
	Err            string        `json:"error,omitempty"`
	Stats          counter.Stats `json:"stats"`
}

// newSessionRecord flattens one session outcome. sess may be nil.
func newSessionRecord(bench string, m core.Method, version int, sess *core.SessionResult, err error, wall time.Duration) SessionRecord {
	rec := SessionRecord{
		Bench:   bench,
		Method:  m.String(),
		Version: version,
		Seconds: wall.Seconds(),
	}
	switch classify(err) {
	case outcomeOK:
	case outcomeTimeout:
		rec.TimedOut = true
	default:
		rec.Err = err.Error()
	}
	if sess == nil {
		return rec
	}
	if sess.Runtime > 0 {
		rec.Seconds = sess.Runtime.Seconds()
	}
	rec.TasksRequested = sess.TasksRequested
	rec.TasksUnique = sess.TasksUnique
	rec.TasksDeduped = sess.TasksDeduped
	rec.BaseNodesBefore = sess.BaseNodesBefore
	rec.BaseNodesAfter = sess.BaseNodesAfter
	rec.CacheCrossHits = sess.TotalStats.CacheCrossHits
	rec.Stats = sess.TotalStats
	rec.Metrics = make([]MetricRecord, len(sess.Results))
	for i, res := range sess.Results {
		rec.Metrics[i] = MetricRecord{
			Metric: res.Metric,
			Value:  res.Value.RatString(),
			Count:  res.Count.String(),
		}
	}
	return rec
}

// Report is the machine-readable run summary cmd/vacsem-bench writes as
// BENCH_<timestamp>.json: every individual verification (with
// per-sub-miter wall times) plus the end-of-run metric totals, so the
// performance trajectory of the repository can be tracked from data
// instead of eyeballing table output.
type Report struct {
	Generated  string `json:"generated"` // RFC 3339
	Suite      string `json:"suite"`     // "scaled" or "full"
	Versions   int    `json:"versions"`
	TimeLimit  string `json:"time_limit"`
	Workers    int    `json:"workers"`
	SimWorkers int    `json:"sim_workers"`
	Tables     string `json:"tables"`

	Runs     []RunRecord     `json:"runs"`
	Sessions []SessionRecord `json:"sessions,omitempty"`
	Metrics  *obs.Snapshot   `json:"metrics,omitempty"`
}

// NewReport creates a report describing one vacsem-bench invocation.
func NewReport(cfg Config, tables string, now time.Time) *Report {
	cfg = cfg.withDefaults()
	return &Report{
		Generated:  now.Format(time.RFC3339),
		Suite:      cfg.suite(),
		Versions:   cfg.Versions,
		TimeLimit:  cfg.TimeLimit.String(),
		Workers:    cfg.Workers,
		SimWorkers: cfg.SimWorkers,
		Tables:     tables,
	}
}

// AttachMetrics snapshots the default metrics registry into the report.
func (r *Report) AttachMetrics() {
	s := obs.Default.Snapshot()
	r.Metrics = &s
}

// WriteJSON serializes the report.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DefaultReportPath names the report file for a run started at now:
// BENCH_<timestamp>.json in the current directory, next to the text
// tables on stdout.
func DefaultReportPath(now time.Time) string {
	return fmt.Sprintf("BENCH_%s.json", now.Format("20060102T150405"))
}
