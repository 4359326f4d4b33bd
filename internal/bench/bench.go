// Package bench regenerates the paper's experimental tables (Tables
// III-VI): benchmark inventory, ER and MED verification of approximate
// adders and multipliers with the three methods (VACSEM, the DPLL/GANAK
// baseline, exhaustive enumeration), and ER verification of the EPFL and
// BACS circuits.
//
// Two workload scales exist: the default scaled-down suite keeps a full
// table run in minutes on a laptop (our counter is pure Go and, unlike
// the paper's GANAK fork, has no CDCL machinery), and Full restores the
// paper's circuit sizes. Approximate versions are generated
// deterministically with internal/als, so runs are reproducible.
//
// Each table is a run and a render: the Run* functions verify and
// return one RunRecord per verification (the records of the JSON
// report), and the text tables are pure functions of those records,
// so a committed report re-renders its tables exactly.
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/synth"
)

// Config controls a table run.
type Config struct {
	// Options are the verification options every run uses; each run
	// sets only Method. A zero TimeLimit gets the suite default below.
	core.Options
	// Full restores the paper's circuit sizes (slow!). Default uses a
	// scaled suite with the same structure.
	Full bool
	// Versions is the number of approximate versions per benchmark
	// (paper: 10; scaled default: 3).
	Versions int
	// Methods to compare; nil means all three.
	Methods []core.Method
}

func (c Config) withDefaults() Config {
	if c.Versions == 0 {
		if c.Full {
			c.Versions = 10
		} else {
			c.Versions = 3
		}
	}
	if c.TimeLimit == 0 {
		if c.Full {
			c.TimeLimit = 4 * time.Hour
		} else {
			c.TimeLimit = 30 * time.Second
		}
	}
	if c.Methods == nil {
		c.Methods = []core.Method{core.MethodVACSEM, core.MethodDPLL, core.MethodEnum}
	}
	return c
}

// options builds the per-run verification options for one method.
func (c Config) options(m core.Method) core.Options {
	o := c.Options
	o.Method = m
	return o
}

// suite names the workload scale, in table titles and reports.
func (c Config) suite() string {
	if c.Full {
		return "full"
	}
	return "scaled"
}

// approxGuarantee is the (ε, δ) the approx backend applies under c:
// the configured values, with zeros resolved to the counter defaults.
func (c Config) approxGuarantee() (eps, delta float64) {
	eps, delta = c.Epsilon, c.Delta
	if eps == 0 {
		eps = counter.DefaultEpsilon
	}
	if delta == 0 {
		delta = counter.DefaultDelta
	}
	return eps, delta
}

// outcome is a verification error classified once, by classify when
// the record is made; RunRecord.outcome recovers it from the record.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeTimeout          // the run's own time limit expired
	outcomeTooLarge         // enumeration beyond 62 inputs
	outcomeBlowUp           // a BDD past its node budget
	outcomeError            // anything else: bad input, an internal failure
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, core.ErrTimeout):
		return outcomeTimeout
	case errors.Is(err, core.ErrTooLarge):
		return outcomeTooLarge
	case errors.Is(err, core.ErrBDDTooLarge):
		return outcomeBlowUp
	default:
		return outcomeError
	}
}

// String is the status label -diff prints; a record keeps both
// infeasible outcomes under one flag.
func (o outcome) String() string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomeTimeout:
		return "timeout"
	case outcomeError:
		return "error"
	default:
		return "infeasible"
	}
}

// Spec is one benchmark row: an exact circuit plus its approximate
// versions.
type Spec struct {
	Name   string
	Exact  *circuit.Circuit
	Approx []*circuit.Circuit
}

// Metric selects what a table verifies.
type Metric int

// Metrics the tables verify; MHD only in multi-metric sessions.
const (
	ER Metric = iota
	MED
	MHD
)

func (m Metric) String() string { return m.spec().MetricName() }

// spec is the core metric spec m verifies.
func (m Metric) spec() core.MetricSpec {
	switch m {
	case MED:
		return core.MetricSpec{Kind: core.MetricMED}
	case MHD:
		return core.MetricSpec{Kind: core.MetricMHD}
	}
	return core.MetricSpec{Kind: core.MetricER}
}

// AdderMultSpecs builds the Table IV/V workload: approximate adders and
// multipliers with deterministic ALS-generated approximate versions.
func AdderMultSpecs(cfg Config) []Spec {
	cfg = cfg.withDefaults()
	if cfg.Full {
		return adderMultSpecs([]int{32, 64, 128}, []int{10, 12, 14, 15, 16}, cfg.Versions)
	}
	return adderMultSpecs([]int{8, 16, 32}, []int{6, 8, 10}, cfg.Versions)
}

// adderMultSpecs builds ripple-carry adders and array multipliers of
// the given widths, each with its deterministic approximate versions.
func adderMultSpecs(adderBits, multBits []int, versions int) []Spec {
	var specs []Spec
	for _, n := range adderBits {
		exact := gen.RippleCarryAdder(n)
		specs = append(specs, Spec{fmt.Sprintf("adder%d", n), exact, adderVersions(exact, n, versions)})
	}
	for _, n := range multBits {
		exact := gen.ArrayMultiplier(n)
		specs = append(specs, Spec{fmt.Sprintf("mult%d", n), exact, multVersions(exact, n, versions)})
	}
	return specs
}

// adderVersions mixes structured approximations (LOA, truncation) with
// ALS-generated ones, as the literature's approximate adders do.
func adderVersions(exact *circuit.Circuit, n, count int) []*circuit.Circuit {
	var out []*circuit.Circuit
	for i := 0; len(out) < count; i++ {
		switch i % 3 {
		case 0:
			out = append(out, als.LowerORAdder(n, 2+i%4))
		case 1:
			out = append(out, als.TruncatedAdder(n, 1+i%3))
		default:
			out = append(out, als.Approximate(exact, als.Config{
				Seed: int64(1000 + i), TargetER: 0.01, RequireError: true,
			}))
		}
	}
	return out
}

func multVersions(exact *circuit.Circuit, n, count int) []*circuit.Circuit {
	var out []*circuit.Circuit
	for i := 0; len(out) < count; i++ {
		switch i % 2 {
		case 0:
			out = append(out, als.TruncatedMultiplier(n, 2+i%4))
		default:
			out = append(out, als.Approximate(exact, als.Config{
				Seed: int64(2000 + i), TargetER: 0.005, RequireError: true,
			}))
		}
	}
	return out
}

// EPFLBACSSpecs builds the Table VI workload. The scaled suite keeps the
// paper's circuit names with reduced widths; Full restores Table III
// widths.
func EPFLBACSSpecs(cfg Config) []Spec {
	cfg = cfg.withDefaults()
	size := func(scaled, full int) int {
		if cfg.Full {
			return full
		}
		return scaled
	}
	entries := []struct {
		name  string
		exact *circuit.Circuit
	}{
		{"ctrl", gen.ControlLogic("ctrl", 7, 26, 6, 1001)},
		{"cavlc", gen.ControlLogic("cavlc", 10, 11, 12, 1002)},
		{"dec", gen.Decoder(size(6, 8))},
		{"int2float", gen.Int2Float(11, 3, 4)},
		{"barshift", gen.BarrelShifter(size(32, 128))},
		{"sin", gen.SinApprox(size(12, 24))},
		{"priority", gen.PriorityEncoder(size(32, 128))},
		{"router", gen.Router(size(8, 20), true)},
		{"binsqrd", gen.BinSquared(size(6, 8))},
		{"absdiff", gen.AbsDiff(8)},
		{"butterfly", gen.Butterfly(size(8, 16))},
		{"mac", gen.MAC(4)},
	}
	var specs []Spec
	for i, e := range entries {
		specs = append(specs, Spec{e.name, e.exact, als.SuiteApproximations(e.exact, cfg.Versions, int64(3000+i*101))})
	}
	return specs
}

// RunTable verifies the metric for every spec with every configured
// method and returns one record per run; Rows folds them into the
// table. A method stops at its first version that does not complete.
func RunTable(specs []Spec, metric Metric, cfg Config) []RunRecord {
	cfg = cfg.withDefaults()
	var runs []RunRecord
	for _, spec := range specs {
		for _, m := range cfg.Methods {
			for v, approx := range spec.Approx {
				rec := verify(spec.Name, metric, m, v, spec.Exact, approx, cfg)
				runs = append(runs, rec)
				if rec.outcome() != outcomeOK {
					break // no point timing the remaining versions
				}
			}
		}
	}
	return runs
}

// verify times one verification of approx against exact and flattens
// it into the run record of version v of the named benchmark.
func verify(name string, metric Metric, m core.Method, v int, exact, approx *circuit.Circuit, cfg Config) RunRecord {
	start := time.Now()
	res, err := core.Verify(context.Background(), exact, approx, metric.spec(), cfg.options(m))
	return newRunRecord(name, metric.String(), m, v, res, err, time.Since(start))
}

// RunMulti verifies {ER, MED, MHD} of every spec in one deduplicated
// session per approximate version (MethodVACSEM), and re-verifies each
// metric standalone, recorded under "<name>/standalone", to measure
// what the shared base and the task dedup save. MultiRows folds both
// and checks the session values against the standalone ones. A spec
// stops at its first failed session.
func RunMulti(specs []Spec, cfg Config) ([]SessionRecord, []RunRecord) {
	cfg = cfg.withDefaults()
	method := core.MethodVACSEM
	multi := []Metric{ER, MED, MHD}
	metrics := make([]core.MetricSpec, len(multi))
	for i, m := range multi {
		metrics[i] = m.spec()
	}
	var sessions []SessionRecord
	var runs []RunRecord
	for _, spec := range specs {
		for v, approx := range spec.Approx {
			start := time.Now()
			sess, err := core.VerifyMetrics(context.Background(), spec.Exact, approx, metrics, cfg.options(method))
			sessions = append(sessions, newSessionRecord(spec.Name, method, v, sess, err, time.Since(start)))
			if err != nil {
				break
			}
			for _, m := range multi {
				rec := verify(spec.Name+"/standalone", m, method, v, spec.Exact, approx, cfg)
				runs = append(runs, rec)
				if rec.outcome() != outcomeOK {
					break
				}
			}
		}
	}
	return sessions, runs
}

// RunApproxTable verifies the metric for every spec twice — with the
// approx backend and with exact VACSEM — so ApproxRows can check each
// estimate against the exact value's (1+ε) band and compare runtimes.
// The records carry method "approx" vs "vacsem". A spec stops at its
// first version where either run does not complete.
func RunApproxTable(specs []Spec, metric Metric, cfg Config) []RunRecord {
	cfg = cfg.withDefaults()
	var runs []RunRecord
	for _, spec := range specs {
	versions:
		for v, approx := range spec.Approx {
			for _, m := range []core.Method{core.MethodApprox, core.MethodVACSEM} {
				rec := verify(spec.Name, metric, m, v, spec.Exact, approx, cfg)
				runs = append(runs, rec)
				if rec.outcome() != outcomeOK {
					break versions
				}
			}
		}
	}
	return runs
}

// RunDDScalability reproduces the paper's footnote-2 claim as an
// experiment: decision-diagram verification (MethodBDD, the prior art
// of refs [3]-[6]) collapses on multipliers far below the sizes VACSEM
// handles, while staying competitive on adders. It verifies one
// approximate version per instance with both methods; instances are
// named "<circuit>/<metric>".
func RunDDScalability(cfg Config) []RunRecord {
	cfg = cfg.withDefaults()
	cfg.Methods = []core.Method{core.MethodBDD, core.MethodVACSEM}
	multBits := []int{4, 6, 8}
	if cfg.Full {
		multBits = append(multBits, 10, 12)
	}
	var runs []RunRecord
	for _, n := range []int{8, 16, 32, 64} {
		spec := Spec{fmt.Sprintf("adder%d/ER", n), gen.RippleCarryAdder(n),
			[]*circuit.Circuit{als.LowerORAdder(n, 3)}}
		runs = append(runs, RunTable([]Spec{spec}, ER, cfg)...)
	}
	for _, n := range multBits {
		exact := gen.ArrayMultiplier(n)
		apx := []*circuit.Circuit{als.TruncatedMultiplier(n, n/2)}
		for _, metric := range []Metric{ER, MED} {
			spec := Spec{fmt.Sprintf("mult%d/%s", n, metric), exact, apx}
			runs = append(runs, RunTable([]Spec{spec}, metric, cfg)...)
		}
	}
	return runs
}

// WriteTable3 prints the benchmark inventory (Table III): PI/PO counts
// and AIG node counts of the suite.
func WriteTable3(w io.Writer) {
	fmt.Fprintf(w, "Table III benchmark inventory (node counts are AIG ANDs after ToAIG)\n")
	fmt.Fprintf(w, "%-11s %-6s %6s %6s %8s\n", "Name", "Type", "#PI", "#PO", "#Node")
	for _, b := range gen.Suite() {
		c := b.Build()
		aig := synth.ToAIG(c)
		fmt.Fprintf(w, "%-11s %-6s %6d %6d %8d\n",
			b.Name, b.Type, c.NumInputs(), c.NumOutputs(), synth.AndCount(aig))
	}
}
