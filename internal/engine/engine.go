// Package engine is the pluggable-backend seam of the verification
// stack. Execute runs a verification session: a list of prepared
// single-output counting tasks (built and deduplicated by the plan
// layer, internal/plan) plus the combined session miter the tasks were
// cut from.
//
// Execute is the only owner of a task's lifecycle. It resolves the
// trivial tasks (constant or bare-input outputs) and the tasks the
// cross-request store already holds, hands the rest to a Backend,
// records the backend's counts in the store, and turns every finished
// task into its "sub_miter" span, its task_start/task_done hub lines,
// its engine.sub_miter* metrics and its progress event. Backends only
// count. The built-in backends wrap the repository's flows (the
// simulation-enhanced counter, the plain DPLL counter, exhaustive
// enumeration, the prior-art ROBDD flow, and (ε, δ) approximate
// counting by XOR streamlining), registered by name in a small
// registry that internal/core resolves its Options.Method through.
//
// All backends accept a context.Context and propagate it into their hot
// loops (the counter's decision loop, the simulator's block loop, the
// BDD apply loop), so callers get real cooperative cancellation — not
// just deadline expiry.
package engine

import (
	"context"
	"errors"
	"math/big"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/counter"
	"vacsem/internal/store"
)

// ErrTooLarge is returned by the enumeration backend when the input
// space exceeds the exhaustive-simulation capability (more than 62
// inputs).
var ErrTooLarge = errors.New("engine: input space too large for enumeration")

// Config carries the method-independent tuning knobs of a verification
// run. It mirrors core.Options minus the method selection (which picks
// the backend), the time limit (which arrives as a context deadline)
// and the progress callback. The counter's search knobs (simulation
// caps, cache and search-engine ablations) are not mirrored: they live
// on counter.Config alone.
type Config struct {
	// NoSynth skips the synthesis (compress) step in backends that
	// synthesize their own working copy (the bdd backend); the plan
	// layer honours the same flag when preparing task sub-miters.
	NoSynth bool
	// Alpha overrides the density-score scaling factor (default 2).
	Alpha float64
	// SharedCache shares one component-count cache across all task
	// solvers of a session (the tasks of one session share both circuit
	// copies plus the subtractor, so residual components recur across
	// tasks — and across metrics). Counts are bit-identical either way;
	// sharing only trades memory for cross-task hits.
	SharedCache bool
	// Store, when non-nil, is a cross-request result store shared across
	// sessions (and typically across the whole process — vacsem-serve
	// injects one). Execute consults its cone tier by each task's
	// canonical key before handing the task to any backend and records
	// every count a backend computes back with provenance; the counting
	// backends also use its component tier as the session's shared
	// component cache (superseding SharedCache).
	// Cone keys are exact content addresses and counts are
	// function-determined, so a store hit returns precisely the count
	// the solver would have computed — exact results are bit-identical
	// with or without the store; approximate results are served only
	// under a guarantee at least as tight as requested (see
	// store.Req).
	Store *store.Store
	// BDDNodeLimit caps the decision-diagram size for the bdd backend
	// (default 1<<22 nodes).
	BDDNodeLimit int
	// Workers bounds the number of tasks the runner's pool solves
	// concurrently for the backends that count task by task (vacsem,
	// dpll, approx), and the goroutines of the vacsem backend's session
	// sweep. 0 means runtime.GOMAXPROCS(0); 1 forces sequential solving.
	Workers int
	// SimWorkers bounds the goroutines the enum backend's compiled
	// simulation kernel spreads the pattern-block range across. 0 means
	// runtime.GOMAXPROCS(0); 1 forces serial enumeration. Counts are
	// bit-identical at any setting.
	SimWorkers int
	// Epsilon is the multiplicative tolerance of the approx backend:
	// each task's count is within a (1+ε) factor of the exact count with
	// probability 1-δ. 0 means counter.DefaultEpsilon. Exact backends
	// ignore it.
	Epsilon float64
	// Delta is the per-task failure probability of the approx backend.
	// 0 means counter.DefaultDelta. Exact backends ignore it.
	Delta float64
	// Seed makes the approx backend's XOR sampling deterministic. Hash
	// rows are a pure function of Seed and the row's position — never of
	// the task index or worker identity — so results are reproducible at
	// any worker count.
	Seed int64
}

// CountTask is one single-output weighted-counting job of a session:
// #SAT over the task's sub-miter, scaled to the full input space of the
// session miter. Several metric outputs may map to one task when their
// deviation bits are structurally identical (the plan layer's dedup).
type CountTask struct {
	// Sub is the task's single-output sub-miter: the logic cone of the
	// session miter's matching output, already synthesized by the plan
	// layer (unless the session ran with NoSynth). Execute recognizes
	// trivial tasks on it and counting backends solve it directly;
	// enumeration and BDD backends work on the session miter instead.
	// A task without one is always left to the backend.
	Sub *circuit.Circuit
	// Label names the task in spans and progress events; by convention
	// "<metric>/<output>" of the first metric output that produced it.
	Label string
	// Key is the canonical cone key of Sub (plan's coneKey over the
	// synthesized cone): a content address equal within and across
	// sessions exactly when the cones are isomorphic, whichever session
	// inputs they read. Empty when the request was built without the
	// plan layer; Execute then skips the cone tier for this task.
	Key string
	// KeyInputs is the number of inputs the cone actually reaches
	// (pinned by Key). Counts stored under Key live in this 2^KeyInputs
	// space; backends rescale to the session's full input space by
	// shifting.
	KeyInputs int
	// NodesBefore and NodesAfter record the task's gate count before and
	// after the plan layer's synthesis pass.
	NodesBefore int
	NodesAfter  int
}

// Request is one verification session handed to a backend: the combined
// session miter whose i-th output computes the i-th task's bit, plus the
// prepared task list. Backends must not mutate the request.
type Request struct {
	// Session labels the run in spans ("ER+MED+MHD", a single metric
	// name, or a custom miter's name).
	Session string
	// Miter is the combined session miter: one primary output per task,
	// in task order, over the full shared input set. Enumeration
	// simulates it in one pass; the bdd backend builds its diagrams from
	// it; counting backends use the per-task sub-miters instead and only
	// read its input count.
	Miter *circuit.Circuit
	// Tasks lists the session's deduplicated counting tasks.
	Tasks []CountTask
	// Config tunes the backend.
	Config Config
	// Progress, when non-nil, receives one event per completed task.
	// Events may arrive out of task order (concurrent solving) but calls
	// are serialized; the callback must not block.
	Progress TaskProgressFunc
}

// TaskResult reports one task's count. Count is always non-nil,
// including trivial and error paths, so reporting layers never
// nil-check; it is the number of input patterns (over the full 2^I
// space of the session miter) setting the task's bit.
type TaskResult struct {
	Count *big.Int
	// Runtime is set by Execute: the wall time from the task's start to
	// its result. A task counted on the runner's pool starts when a
	// worker picks it up; a task of a backend that counts the whole batch
	// at once (enum, bdd) starts with the batch; a task the vacsem backend
	// sweeps with others (simulateWhole) reports its equal share of the
	// sweep.
	Runtime time.Duration
	Stats   counter.Stats
	Trivial bool // solved by constant propagation alone
	// Approx marks a count estimated by XOR streamlining rather than
	// computed exactly; Epsilon and Delta are then its tolerance and
	// failure probability (Count is within a (1+Epsilon) factor of the
	// exact count with probability 1-Delta). The approx backend clears
	// Approx on tasks it happened to solve exactly (small cell counts),
	// so exactness is per task, not per backend.
	Approx         bool
	Epsilon, Delta float64
	// BestEffort marks an approx count whose round schedule was cut
	// short by the context deadline: the (1+Epsilon) band is unchanged
	// but holds with the widened Delta reported above.
	BestEffort bool
	// FromStore marks a count served from the cross-request cone store
	// (Config.Store): no solver ran for this task in this session.
	// Runtime then covers only the lookup; Stats is zero. Approx,
	// Epsilon and Delta describe the stored entry's provenance, which is
	// at least as strong as the request's guarantee.
	FromStore bool
	// SupportBefore and SupportAfter are the approx sampling-set sizes
	// around independent-support minimization; HashDensity is the mean
	// density of the hash rows actually drawn. All zero for exact
	// backends and trivial tasks.
	SupportBefore, SupportAfter int
	HashDensity                 float64
}

// TaskEvent reports the completion of one task: its result plus where it
// stands in the session.
type TaskEvent struct {
	TaskResult
	Backend string
	// Index is the task's index in Request.Tasks; Label its name.
	Index int
	Label string
	// Done counts completed tasks so far (including this one); Total is
	// the number of tasks of the session.
	Done, Total int
}

// TaskProgressFunc observes per-task completion events.
type TaskProgressFunc func(TaskEvent)

// Backend counts the tasks of a session that Execute could not resolve
// by itself. Implementations must be safe for concurrent use by multiple
// goroutines (they are registered once and shared) and must honour ctx
// cancellation in their long-running loops.
type Backend interface {
	// Name is the registry key ("vacsem", "dpll", "enum", "bdd", ...).
	Name() string
	// Count computes the tasks listed in todo — indexes into req.Tasks,
	// ascending, none of them trivial or served by the store, at least
	// one — and reports each result to emit exactly once before it
	// returns (the built-in counting backends through the runner's
	// pool). ctx errors are returned verbatim.
	Count(ctx context.Context, req *Request, todo []int, emit *Emitter) error
}

// A Backend that cannot take every session implements validator.
// Execute asks it before triage, so whether a session is rejected never
// depends on what the store holds.
type validator interface {
	Validate(req *Request) error
}
