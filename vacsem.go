package vacsem

import (
	"context"
	"io"
	"math/big"

	"vacsem/internal/aiger"
	"vacsem/internal/als"
	"vacsem/internal/blif"
	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/dist"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/obs"
	"vacsem/internal/synth"
	"vacsem/internal/verilog"
)

// Circuit is a combinational gate-level netlist (see NewCircuit and the
// generator functions below).
type Circuit = circuit.Circuit

// Kind enumerates node functions of a Circuit.
type Kind = circuit.Kind

// Node kinds usable with (*Circuit).AddGate.
const (
	Const0 = circuit.Const0
	Input  = circuit.Input
	Buf    = circuit.Buf
	Not    = circuit.Not
	And    = circuit.And
	Nand   = circuit.Nand
	Or     = circuit.Or
	Nor    = circuit.Nor
	Xor    = circuit.Xor
	Xnor   = circuit.Xnor
	Mux    = circuit.Mux
	Maj    = circuit.Maj
)

// NewCircuit returns an empty circuit with the given name.
func NewCircuit(name string) *Circuit { return circuit.New(name) }

// Method selects the verification engine.
type Method = core.Method

// Verification engines.
const (
	// MethodVACSEM is the paper's simulation-enhanced model counter.
	MethodVACSEM = core.MethodVACSEM
	// MethodDPLL disables the simulation hook (the GANAK baseline role).
	MethodDPLL = core.MethodDPLL
	// MethodEnum exhaustively simulates all 2^I input patterns.
	MethodEnum = core.MethodEnum
	// MethodBDD is the prior-art decision-diagram flow the paper
	// compares against; it fails with ErrBDDTooLarge on large circuits.
	MethodBDD = core.MethodBDD
	// MethodApprox estimates each count by XOR streamlining instead of
	// counting exactly: the value is within a (1+ε) factor of the exact
	// value with probability 1-δ (Options.Epsilon/Delta/Seed tune it,
	// Result.Approx/Epsilon/Delta/Confidence report it).
	MethodApprox = core.MethodApprox
)

// Options configures verification; see core.Options. Notable fields:
// Workers bounds the number of sub-miters solved concurrently, and
// SimWorkers the goroutines MethodEnum's simulation kernel spreads the
// pattern-block range across (both 0 = one per CPU; results are
// bit-identical regardless). Progress streams per-sub-miter completion
// events. Epsilon, Delta and Seed tune MethodApprox's (ε, δ) guarantee
// and make its XOR sampling reproducible.
type Options = core.Options

// Result reports a verified metric; see core.Result. Result.TotalStats
// aggregates the counter statistics of every sub-miter.
type Result = core.Result

// SubResult reports one per-output-bit #SAT problem.
type SubResult = core.SubResult

// ProgressEvent reports the completion of one sub-miter: output name,
// count, solver statistics, runtime, and done/total progress.
type ProgressEvent = core.ProgressEvent

// ProgressFunc observes per-sub-miter completion events via
// Options.Progress. Calls are serialized; the callback must not block.
type ProgressFunc = core.ProgressFunc

// MetricKind identifies a built-in average-error metric for
// multi-metric sessions (see VerifyMetrics).
type MetricKind = core.MetricKind

// Metric kinds usable in a MetricSpec.
const (
	// MetricER is the error rate.
	MetricER = core.MetricER
	// MetricMED is the mean error distance.
	MetricMED = core.MetricMED
	// MetricMHD is the mean Hamming distance.
	MetricMHD = core.MetricMHD
	// MetricThresholdProb is P(|int(y)-int(y')| > t); MetricSpec.Threshold
	// carries t.
	MetricThresholdProb = core.MetricThresholdProb
)

// MetricSpec requests one metric from Verify, VerifyMetrics or
// VerifyBiased.
type MetricSpec = core.MetricSpec

// MetricSpecByName parses a metric name ("er", "med", "mhd", "thr") into
// a MetricSpec; threshold is only consulted for "thr".
func MetricSpecByName(name string, threshold *big.Int) (MetricSpec, error) {
	return core.MetricSpecByName(name, threshold)
}

// SessionResult reports a multi-metric session: one Result per spec plus
// session-wide accounting (tasks requested/unique/deduplicated, base
// miter size around its single synthesis pass, aggregate solver stats).
type SessionResult = core.SessionResult

// Every Verify* function takes a context first: it reaches the solver's
// inner loops, so cancelling it aborts the verification within one poll
// interval with the context's own error.

// VerifyMetrics verifies several metrics of one circuit pair in a single
// session: the shared base miter is built and synthesized once, every
// metric's deviation bits compile to counting tasks, structurally
// identical tasks are deduplicated across metrics, and one backend run
// solves the rest with a shared component cache. Each Result is
// bit-identical to the corresponding standalone Verify call.
func VerifyMetrics(ctx context.Context, exact, approx *Circuit, specs []MetricSpec, opt Options) (*SessionResult, error) {
	return core.VerifyMetrics(ctx, exact, approx, specs, opt)
}

// Verify verifies one metric of approx against exact: MetricER is the
// error rate, MetricMED the mean error distance (outputs read as
// unsigned binary numbers, least-significant bit first), MetricMHD the
// mean Hamming distance and MetricThresholdProb P(|int(y) - int(y')| > t)
// with t in spec.Threshold.
func Verify(ctx context.Context, exact, approx *Circuit, spec MetricSpec, opt Options) (*Result, error) {
	return core.Verify(ctx, exact, approx, spec, opt)
}

// ErrTimeout is returned when Options.TimeLimit expires. Cancellation
// through the caller's context is reported as the context's own error
// instead.
var ErrTimeout = core.ErrTimeout

// ErrTooLarge is returned by MethodEnum beyond 62 inputs.
var ErrTooLarge = core.ErrTooLarge

// ErrBDDTooLarge is returned by MethodBDD when the diagram exceeds
// Options.BDDNodeLimit.
var ErrBDDTooLarge = core.ErrBDDTooLarge

// WCEResult reports a worst-case-error verification.
type WCEResult = core.WCEResult

// VerifyWCE computes the exact worst-case error max|int(y)-int(y')| by
// binary search over threshold miters with early-exit SAT queries.
func VerifyWCE(ctx context.Context, exact, approx *Circuit, opt Options) (*WCEResult, error) {
	return core.VerifyWCE(ctx, exact, approx, opt)
}

// VerifyMiter verifies a user-supplied deviation miter with per-output
// weights: the metric value is sum_j weight_j * P(output_j = 1). This is
// the extension point for custom average-error metrics.
func VerifyMiter(ctx context.Context, name string, m *Circuit, weights []*big.Int, opt Options) (*Result, error) {
	return core.VerifyMiter(ctx, name, m, weights, opt)
}

// AppendCircuit instantiates src inside dst, connecting src's primary
// inputs to the dst nodes listed in inputMap, and returns the dst node
// ids of src's outputs. It is the building block for custom deviation
// miters (see examples/custom_metric).
func AppendCircuit(dst, src *Circuit, inputMap []int) []int {
	return circuit.Append(dst, src, inputMap)
}

// ERMiter builds the single-output error-rate approximation miter.
func ERMiter(exact, approx *Circuit) (*Circuit, error) { return miter.ER(exact, approx) }

// MEDMiter builds the multi-output |int(y)-int(y')| approximation miter.
func MEDMiter(exact, approx *Circuit) (*Circuit, error) { return miter.MED(exact, approx) }

// Compress shrinks a circuit with the built-in function-preserving
// synthesis pipeline (the role of ABC compress2rs in the paper's flow).
func Compress(c *Circuit) *Circuit { return synth.Compress(c) }

// ToAIG converts a circuit to an AND-inverter graph.
func ToAIG(c *Circuit) *Circuit { return synth.ToAIG(c) }

// Benchmark circuit generators (the paper's Table III workloads).

// RippleCarryAdder builds an n-bit adder (2n inputs, n+1 outputs).
func RippleCarryAdder(n int) *Circuit { return gen.RippleCarryAdder(n) }

// CarryLookaheadAdder builds an n-bit adder with 4-bit lookahead groups.
func CarryLookaheadAdder(n int) *Circuit { return gen.CarryLookaheadAdder(n) }

// ArrayMultiplier builds an n x n array multiplier (2n inputs/outputs).
func ArrayMultiplier(n int) *Circuit { return gen.ArrayMultiplier(n) }

// WallaceMultiplier builds an n x n Wallace-tree multiplier.
func WallaceMultiplier(n int) *Circuit { return gen.WallaceMultiplier(n) }

// BenchmarkByName builds any Table III benchmark ("adder32", "mult12",
// "sin", ...) plus parametric adderN/multN names.
func BenchmarkByName(name string) (*Circuit, error) { return gen.ByName(name) }

// Approximate circuit generation (the ALSRAC role).

// ALSConfig tunes Approximate; see als.Config.
type ALSConfig = als.Config

// Approximate derives an approximate circuit within an error budget by
// simulation-guided signal substitution. Deterministic in ALSConfig.Seed.
func Approximate(exact *Circuit, cfg ALSConfig) *Circuit { return als.Approximate(exact, cfg) }

// LowerORAdder builds the classic LOA approximate adder (low k bits OR).
func LowerORAdder(n, k int) *Circuit { return als.LowerORAdder(n, k) }

// TruncatedMultiplier builds an n x n multiplier without the k least
// significant partial-product columns.
func TruncatedMultiplier(n, k int) *Circuit { return als.TruncatedMultiplier(n, k) }

// Non-uniform input distributions (the paper's stated future work).

// Bias is a dyadic input probability Num/2^Bits for the biased-input
// verification functions.
type Bias = dist.Bias

// UniformBias is the default 1/2 input probability.
func UniformBias() Bias { return dist.Uniform() }

// VerifyBiased verifies spec when input i is 1 with probability
// biases[i] (independent inputs with dyadic probabilities).
func VerifyBiased(ctx context.Context, exact, approx *Circuit, spec MetricSpec, biases []Bias, opt Options) (*Result, error) {
	return dist.VerifyBiased(ctx, exact, approx, spec, biases, opt)
}

// VerifyERConditional verifies ER restricted to input patterns on which
// the single-output condition circuit evaluates to 1. On MethodApprox
// the value is a ratio of two estimates, and Result.Epsilon/Delta
// describe the ratio's band.
func VerifyERConditional(ctx context.Context, exact, approx, cond *Circuit, opt Options) (*Result, error) {
	return dist.VerifyERConditional(ctx, exact, approx, cond, opt)
}

// VerifyMEDConditional verifies MED restricted to patterns with cond=1.
func VerifyMEDConditional(ctx context.Context, exact, approx, cond *Circuit, opt Options) (*Result, error) {
	return dist.VerifyMEDConditional(ctx, exact, approx, cond, opt)
}

// File formats.

// ReadBLIF parses a combinational BLIF netlist.
func ReadBLIF(r io.Reader) (*Circuit, error) { return blif.Parse(r) }

// WriteBLIF serializes a circuit as BLIF.
func WriteBLIF(w io.Writer, c *Circuit) error { return blif.Write(w, c) }

// ReadAIGER parses an ASCII AIGER (aag) combinational AIG.
func ReadAIGER(r io.Reader) (*Circuit, error) { return aiger.Parse(r) }

// WriteAIGER serializes a circuit as ASCII AIGER.
func WriteAIGER(w io.Writer, c *Circuit) error { return aiger.Write(w, c) }

// WriteVerilog serializes a circuit as a structural Verilog module.
func WriteVerilog(w io.Writer, c *Circuit) error { return verilog.Write(w, c) }

// Observability (see internal/obs): span-based JSONL tracing and a
// process-wide metrics registry. Tracing is off by default and costs one
// atomic load per instrumented operation when disabled; enabling it
// never changes verified counts.

// Tracer is the trace file sink: it writes the span and point events of
// every verification as JSON lines; see NewTracer.
type Tracer = obs.Tracer

// MetricsSnapshot is a point-in-time copy of the metrics registry.
type MetricsSnapshot = obs.Snapshot

// NewTracer returns a tracer writing JSONL events to w. The caller owns
// w; Close flushes buffered events but does not close w.
func NewTracer(w io.Writer) *Tracer { return obs.NewTracer(w) }

// SetTracer installs t as the process-wide tracer observed by every
// verification started afterwards. Pass nil to disable tracing.
func SetTracer(t *Tracer) { obs.SetTracer(t) }

// Metrics snapshots the process-wide metrics registry (cumulative
// counters, gauges and latency histograms of every verification run in
// this process). Use its WriteTable or WriteJSON to render it.
func Metrics() MetricsSnapshot { return obs.Default.Snapshot() }
