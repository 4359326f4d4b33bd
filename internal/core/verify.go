// Package core orchestrates average-error verification: it compiles the
// requested metrics into a verification session (internal/plan) over a
// shared base miter (Section II-B of the paper), resolves the
// configured method to a verification backend (internal/engine), and
// shapes the session's outcome into the metric-level API of the paper.
// The built-in backends cover the paper's contribution (the
// simulation-enhanced counter), its three comparison flows (plain
// DPLL counting, exhaustive enumeration, ROBDDs), and an (ε, δ)
// approximate-counting mode (XOR streamlining over the same counter).
//
// Every entry point takes a context: VerifyMetrics verifies several
// metrics in one deduplicated session, Verify runs a single-metric
// session with bit-identical results, VerifyMiter counts a caller-built
// deviation miter, and VerifyWCE searches the worst-case error.
package core

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"time"

	"vacsem/internal/bdd"
	"vacsem/internal/circuit"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/obs"
	"vacsem/internal/plan"
	"vacsem/internal/store"
)

// Session- and run-level metrics. A session is one VerifyMetrics,
// Verify or VerifyMiter call; a run is one metric verified inside it.
var (
	mSessions   = obs.Default.Counter("core.sessions")
	mRuns       = obs.Default.Counter("core.runs")
	mRunErrors  = obs.Default.Counter("core.run_errors")
	hRunSeconds = obs.Default.Histogram("core.run_seconds", nil)
)

// Method selects the verification engine.
type Method int

const (
	// MethodVACSEM is the paper's contribution: the DPLL model counter
	// with the simulation hook and dynamic controller enabled.
	MethodVACSEM Method = iota
	// MethodDPLL is the same counter with simulation disabled — the role
	// GANAK plays in the paper's comparisons.
	MethodDPLL
	// MethodEnum is exhaustive word-parallel logic simulation of the
	// miter over all 2^I input patterns.
	MethodEnum
	// MethodBDD is the prior-art decision-diagram approach ([3]-[6] in
	// the paper): build ROBDDs of the deviation bits and count over the
	// diagrams. It fails with ErrBDDTooLarge when the diagram explodes —
	// the scalability wall the paper's footnote 2 describes.
	MethodBDD
	// MethodApprox is (ε, δ) approximate counting: each task's count is
	// estimated by XOR streamlining (random parity constraints hashing
	// the solution space into cells) plus exact cell counting, so the
	// reported value is within a (1+ε) factor of the exact value with
	// probability at least 1-δ. Options.Epsilon, Delta and Seed tune it.
	MethodApprox
)

// String returns the method name, which doubles as the backend's key in
// the engine registry.
func (m Method) String() string {
	switch m {
	case MethodVACSEM:
		return "vacsem"
	case MethodDPLL:
		return "dpll"
	case MethodEnum:
		return "enum"
	case MethodBDD:
		return "bdd"
	case MethodApprox:
		return "approx"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// MethodByName resolves a method name ("vacsem", "dpll", "ganak",
// "enum", "bdd", "approx") to its Method value, for CLI flag parsing.
func MethodByName(name string) (Method, error) {
	switch name {
	case "vacsem":
		return MethodVACSEM, nil
	case "dpll", "ganak":
		return MethodDPLL, nil
	case "enum":
		return MethodEnum, nil
	case "bdd":
		return MethodBDD, nil
	case "approx":
		return MethodApprox, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q (backends: %v)", name, engine.Names())
	}
}

// ErrTimeout is returned when the configured Options.TimeLimit expires
// before verification completes. Cancellation through a caller-supplied
// context is reported as that context's own error instead
// (context.Canceled / context.DeadlineExceeded).
var ErrTimeout = errors.New("core: time limit exceeded")

// ErrTooLarge is returned by MethodEnum when the input space exceeds the
// enumeration capability (more than 62 inputs).
var ErrTooLarge = engine.ErrTooLarge

// ErrBDDTooLarge is returned by MethodBDD when the decision diagram
// exceeds the node budget (Options.BDDNodeLimit).
var ErrBDDTooLarge = bdd.ErrNodeLimit

// MetricKind selects an average-error metric in a MetricSpec; see
// plan.Kind.
type MetricKind = plan.Kind

// The metric kinds VerifyMetrics accepts.
const (
	MetricER            = plan.ER
	MetricMED           = plan.MED
	MetricMHD           = plan.MHD
	MetricThresholdProb = plan.ThresholdProb
)

// MetricSpec requests one metric in a VerifyMetrics session; see
// plan.Spec. MetricThresholdProb carries its threshold t in
// Spec.Threshold.
type MetricSpec = plan.Spec

// MetricSpecByName resolves a CLI metric name ("er", "med", "mhd",
// "thr") to a spec; "thr" attaches the given deviation threshold.
func MetricSpecByName(name string, threshold *big.Int) (MetricSpec, error) {
	switch name {
	case "er":
		return MetricSpec{Kind: MetricER}, nil
	case "med":
		return MetricSpec{Kind: MetricMED}, nil
	case "mhd":
		return MetricSpec{Kind: MetricMHD}, nil
	case "thr":
		var t *big.Int
		if threshold != nil {
			t = new(big.Int).Set(threshold)
		}
		return MetricSpec{Kind: MetricThresholdProb, Threshold: t}, nil
	default:
		return MetricSpec{}, fmt.Errorf("core: unknown metric %q (want er, med, mhd or thr)", name)
	}
}

// ProgressEvent reports the completion of one metric output bit; see
// plan.ProgressEvent.
type ProgressEvent = plan.ProgressEvent

// ProgressFunc observes per-bit completion events; see plan.ProgressFunc.
type ProgressFunc = plan.ProgressFunc

// Options configures a verification run. The zero value uses MethodVACSEM
// with synthesis enabled, no time limit, and one worker per CPU.
type Options struct {
	Method Method
	// NoSynth skips the synthesis (compress) steps: the session's base
	// compression, the per-task cone compression, and the bdd backend's
	// own pass.
	NoSynth bool
	// TimeLimit bounds the entire verification (all tasks of the
	// session). 0 = none. It is applied as a context deadline on top of
	// the caller's context, which every entry point also honours.
	TimeLimit time.Duration
	// Alpha overrides the density-score scaling factor (default 2).
	Alpha float64
	// DisableSharedCache gives every task solver a private component
	// cache instead of the session-wide shared one (ablation; results
	// are bit-identical either way, sharing only adds cross-task hits —
	// including across metrics of one session).
	DisableSharedCache bool
	// Store, when non-nil, is a cross-request result store shared across
	// verification calls (typically one per process — vacsem-serve
	// injects its global store). Counting backends serve tasks whose
	// canonical cone keys already have compatible stored counts without
	// re-solving them, record fresh solves back with provenance, and use
	// the store's component tier as the session's shared cache. Exact
	// results are bit-identical with or without a store; approximate
	// results reuse only entries whose (ε, δ) guarantee is at least as
	// tight as the request's.
	Store *store.Store
	// BDDNodeLimit caps the decision-diagram size for MethodBDD
	// (default 1<<22 nodes).
	BDDNodeLimit int
	// Workers bounds the number of tasks solved concurrently, and the
	// goroutines of MethodVACSEM's session sweep (the tasks its
	// controller simulates whole, counted in one pass per input support).
	// 0 means runtime.GOMAXPROCS(0); 1 forces sequential solving.
	// Results are deterministic regardless of the worker count.
	Workers int
	// SimWorkers bounds the goroutines MethodEnum's simulation kernel
	// spreads the pattern-block range across. 0 means
	// runtime.GOMAXPROCS(0); counts are bit-identical at any setting.
	SimWorkers int
	// Epsilon is MethodApprox's multiplicative tolerance: every task
	// count is within a (1+ε) factor of the exact count with probability
	// 1-δ. 0 means counter.DefaultEpsilon. Exact methods ignore it.
	Epsilon float64
	// Delta is MethodApprox's per-task failure probability (0 means
	// counter.DefaultDelta). Exact methods ignore it.
	Delta float64
	// Seed drives every randomized path of the run — today MethodApprox's
	// XOR sampling (hash rows are a pure function of Seed and position,
	// so results are reproducible at any worker count and structurally
	// identical tasks share probe outcomes). The exact methods are fully
	// deterministic and ignore it.
	Seed int64
	// Progress, when non-nil, receives one event per completed metric
	// output bit (possibly out of output order under concurrency; calls
	// are serialized). The callback must not block.
	Progress ProgressFunc
}

// engineConfig maps the method-independent options onto the backend
// configuration.
func (o *Options) engineConfig() engine.Config {
	return engine.Config{
		NoSynth:      o.NoSynth,
		Alpha:        o.Alpha,
		SharedCache:  !o.DisableSharedCache,
		Store:        o.Store,
		BDDNodeLimit: o.BDDNodeLimit,
		Workers:      o.Workers,
		SimWorkers:   o.SimWorkers,
		Epsilon:      o.Epsilon,
		Delta:        o.Delta,
		Seed:         o.Seed,
	}
}

// SubResult reports one metric output bit's #SAT problem. Count is
// always non-nil, including trivial and error paths. See plan.SubResult
// for the sharing semantics of deduplicated bits.
type SubResult = plan.SubResult

// Result reports a verified metric.
type Result struct {
	Metric    string
	Method    Method
	Value     *big.Rat // the metric value (e.g. ER in [0,1], MED >= 0)
	Count     *big.Int // weighted pattern count (the numerator of Value)
	NumInputs int
	Runtime   time.Duration
	Subs      []SubResult
	// TotalStats aggregates the counter statistics of every sub-miter
	// (Stats.Add over Subs), so reporting layers need not re-sum fields.
	// Deduplicated bits carry zero Stats (the owning bit reports them),
	// so the sum counts each task's work exactly once.
	TotalStats counter.Stats
	// Approx marks a value estimated by MethodApprox rather than
	// computed exactly. Epsilon is then the largest per-task tolerance —
	// the weighted numerator is a sum of nonnegative terms, so it is
	// within a (1+Epsilon) factor of the exact numerator whenever every
	// term is — and Delta bounds the probability that any term misses
	// its band (union bound over the metric's distinct approximate
	// tasks). Confidence is 1-Delta; exact results report Confidence 1.
	Approx         bool
	Epsilon, Delta float64
	Confidence     float64
	// BestEffort marks an approximate value whose round schedule was cut
	// short by the time limit on at least one task: the (1+Epsilon) band
	// is unchanged but Delta (and Confidence) already reflect the
	// widened per-task failure probabilities.
	BestEffort bool
}

// Float returns the metric value as a float64 (inexact for huge MEDs).
func (r *Result) Float() float64 {
	f, _ := r.Value.Float64()
	return f
}

// SessionResult reports a multi-metric verification session: one Result
// per requested spec, in order, plus the session-wide work accounting
// the individual results cannot express (how much the shared base and
// the task dedup saved).
type SessionResult struct {
	// Results holds one metric result per spec, in request order.
	Results []*Result
	Method  Method
	// NumInputs is the shared input count of the circuit pair.
	NumInputs int
	// Runtime is the wall time of the whole session; each Result carries
	// the same value (the session solves all metrics together, so no
	// narrower per-metric wall time exists).
	Runtime time.Duration
	// TasksRequested counts metric output bits before deduplication;
	// TasksUnique the counting tasks actually solved; TasksDeduped the
	// difference.
	TasksRequested int
	TasksUnique    int
	TasksDeduped   int
	// StoreConeHits counts the session's tasks served whole from the
	// cross-request cone store (Options.Store) instead of being solved;
	// always 0 without a store. TasksUnique - StoreConeHits tasks
	// actually ran a solver (or resolved trivially).
	StoreConeHits int
	// BaseNodesBefore/After record the shared base miter's gate count
	// around its single synthesis pass.
	BaseNodesBefore int
	BaseNodesAfter  int
	// TotalStats aggregates the counter statistics over all tasks of
	// the session (equals the sum of the per-Result TotalStats).
	TotalStats counter.Stats
}

// VerifyMetrics verifies several average-error metrics of one circuit
// pair in a single session: the base miter (both circuit copies over
// shared inputs) is built and synthesized once, every metric's
// deviation bits compile to counting tasks, structurally identical
// tasks are deduplicated across metrics, and one backend run solves the
// remaining tasks with a shared component cache. Per-metric results are
// bit-identical to standalone Verify calls at any worker count.
func VerifyMetrics(ctx context.Context, exact, approx *circuit.Circuit, specs []MetricSpec, opt Options) (*SessionResult, error) {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.MetricName()
	}
	return session(ctx, strings.Join(names, "+"), len(specs), exact.NumInputs(), opt,
		func(ctx context.Context) (*plan.Plan, error) {
			return plan.Build(ctx, exact, approx, specs, opt.NoSynth)
		})
}

// Verify verifies one metric: a single-spec VerifyMetrics session whose
// only result it returns. Specs come from MetricSpecByName or literals:
// MetricER is the error rate (Eq. 2), MetricMED the mean error distance
// (Eq. 4, outputs read as unsigned binary numbers, LSB first), MetricMHD
// the mean Hamming distance, and MetricThresholdProb the probability
// P(|int(y) - int(y')| > t) with t in spec.Threshold.
func Verify(ctx context.Context, exact, approx *circuit.Circuit, spec MetricSpec, opt Options) (*Result, error) {
	sr, err := VerifyMetrics(ctx, exact, approx, []MetricSpec{spec}, opt)
	if err != nil {
		return nil, err
	}
	return sr.Results[0], nil
}

// VerifyMiter verifies a user-supplied deviation miter: the metric value
// is sum_j weight_j * P(output_j = 1). This is the extension point for
// custom average-error metrics (Section II-A: "other average error
// metrics can also be converted into #SAT problems similarly"). The
// weights are defensively copied, so mutating the slice (or its
// elements) after the call cannot corrupt the reported results.
func VerifyMiter(ctx context.Context, name string, m *circuit.Circuit, weights []*big.Int, opt Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(weights) != m.NumOutputs() {
		return nil, fmt.Errorf("core: %d weights for %d outputs", len(weights), m.NumOutputs())
	}
	sr, err := session(ctx, name, 1, m.NumInputs(), opt,
		func(ctx context.Context) (*plan.Plan, error) {
			return plan.FromMiter(ctx, name, m, weights, opt.NoSynth)
		})
	if err != nil {
		return nil, err
	}
	return sr.Results[0], nil
}

// session runs one verification session on opt.Method's backend: build
// compiles its plan and runPlan executes it, both under the session's
// "session" span, which ends on every path — with the error when the
// plan or the run fails. A caller that already allocated a run id on ctx
// (vacsem-serve stamps each job's, so its event stream can follow the
// run) keeps it; otherwise a fresh one is stamped.
func session(ctx context.Context, name string, metrics, inputs int, opt Options, build func(context.Context) (*plan.Plan, error)) (*SessionResult, error) {
	be, err := engine.Lookup(opt.Method.String())
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if obs.RunFrom(ctx) == 0 {
		ctx = obs.WithRun(ctx, obs.NextRunID())
	}
	ctx, span := obs.Start(ctx, "session", obs.Fields{
		"session": name, "backend": opt.Method.String(),
		"metrics": metrics, "inputs": inputs,
	})
	p, err := build(ctx)
	var sr *SessionResult
	if err == nil {
		sr, err = runPlan(ctx, p, be, opt, start)
	}
	if err != nil {
		span.End(obs.Fields{"error": err.Error()})
		return nil, err
	}
	span.End(obs.Fields{
		"tasks": sr.TasksUnique, "tasks_deduped": sr.TasksDeduped,
		"stats": sr.TotalStats,
	})
	return sr, nil
}

// errRunDeadline is the cancellation cause installed by withTimeLimit,
// so mapErr can tell the run's own TimeLimit expiry apart from a
// deadline the caller layered onto the context.
var errRunDeadline = errors.New("core: run time limit reached")

// withTimeLimit layers Options.TimeLimit onto the caller's context as a
// deadline, tagged with errRunDeadline as the cancellation cause. The
// returned cancel func must always be called.
func withTimeLimit(ctx context.Context, opt Options) (context.Context, context.CancelFunc) {
	if opt.TimeLimit > 0 {
		return context.WithTimeoutCause(ctx, opt.TimeLimit, errRunDeadline)
	}
	return context.WithCancel(ctx)
}

// mapErr shapes backend errors for the public API: when the run's own
// TimeLimit produced the deadline — identified by the errRunDeadline
// cancellation cause, not by TimeLimit merely being set — expiry
// surfaces as the historical ErrTimeout. Every other error, including
// context.Canceled and a context.DeadlineExceeded from a deadline the
// caller put on the context, propagates verbatim. (An earlier version
// mapped any DeadlineExceeded to ErrTimeout whenever TimeLimit > 0,
// swallowing caller deadlines; before that, every counter error became
// a timeout.)
func mapErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) && errors.Is(context.Cause(ctx), errRunDeadline) {
		return ErrTimeout
	}
	return err
}

// approxBand aggregates the per-task (ε, δ) guarantees of a metric's
// bits. The metric tolerance is the largest per-task epsilon (a sum of
// nonnegative weighted counts lands in the (1+ε) band when every term
// does), and the failure probability is the union bound min(Σ δ_t, 1)
// over the metric's distinct approximate tasks — shared bits reuse one
// task's estimate, so each task contributes its δ once. The union bound
// (rather than the independence product 1 - Π(1-δ_t)) is deliberate:
// sibling tasks draw their hash rows from one session seed, so their
// estimates are correlated, and the union bound is the tightest
// aggregate valid under arbitrary correlation.
func approxBand(subs []SubResult) (approx bool, eps, delta float64) {
	seen := make(map[int]bool)
	for i := range subs {
		s := &subs[i]
		if !s.Approx || seen[s.Task] {
			continue
		}
		seen[s.Task] = true
		approx = true
		if s.Epsilon > eps {
			eps = s.Epsilon
		}
		delta += s.Delta
	}
	if delta > 1 {
		delta = 1
	}
	return approx, eps, delta
}

// runPlan executes a compiled plan on a backend and shapes the outcome
// into the session result. The backend and sub_miter spans nest under
// ctx's session span, and one leaf "run" span per metric records the
// assembled value.
func runPlan(ctx context.Context, p *plan.Plan, be engine.Backend, opt Options, start time.Time) (*SessionResult, error) {
	mSessions.Inc()
	ctx, cancel := withTimeLimit(ctx, opt)
	defer cancel()
	out, err := p.Run(ctx, be, opt.engineConfig(), opt.Progress)
	if err != nil {
		mRunErrors.Inc()
		hRunSeconds.Observe(time.Since(start).Seconds())
		return nil, mapErr(ctx, err)
	}
	sr := &SessionResult{
		Results:         make([]*Result, len(out.Metrics)),
		Method:          opt.Method,
		NumInputs:       p.TotalInputs,
		Runtime:         time.Since(start),
		TasksRequested:  p.TasksRequested,
		TasksUnique:     len(p.Tasks),
		TasksDeduped:    p.TasksDeduped(),
		BaseNodesBefore: p.BaseNodesBefore,
		BaseNodesAfter:  p.BaseNodesAfter,
	}
	for i := range out.TaskResults {
		if out.TaskResults[i].FromStore {
			sr.StoreConeHits++
		}
	}
	denom := new(big.Int).Lsh(big.NewInt(1), uint(p.TotalInputs))
	for i := range out.Metrics {
		mo := &out.Metrics[i]
		mRuns.Inc()
		res := &Result{
			Metric:     mo.Name,
			Method:     opt.Method,
			NumInputs:  p.TotalInputs,
			Count:      mo.Count,
			Subs:       mo.Subs,
			Runtime:    sr.Runtime,
			TotalStats: mo.Stats,
			Value:      new(big.Rat).SetFrac(new(big.Int).Set(mo.Count), denom),
			Confidence: 1,
		}
		if ap, eps, delta := approxBand(mo.Subs); ap {
			res.Approx, res.Epsilon, res.Delta = true, eps, delta
			res.Confidence = 1 - delta
			for j := range mo.Subs {
				if mo.Subs[j].BestEffort {
					res.BestEffort = true
					break
				}
			}
		}
		sr.Results[i] = res
		sr.TotalStats.Add(mo.Stats)
		if obs.Enabled() {
			_, rs := obs.Start(ctx, "run", obs.Fields{
				"metric": mo.Name, "backend": opt.Method.String(),
			})
			rs.End(obs.Fields{
				"metric": mo.Name, "count": res.Count.String(),
				"value": res.Value.RatString(), "stats": mo.Stats,
			})
		}
	}
	hRunSeconds.Observe(sr.Runtime.Seconds())
	return sr, nil
}
