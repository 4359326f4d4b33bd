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
package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"strings"
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
	// OnRun, when non-nil, receives one RunRecord per individual
	// verification (each approximate version of each benchmark, per
	// method), carrying the per-sub-miter wall times the text tables
	// aggregate away. cmd/vacsem-bench points it at its JSON report.
	OnRun func(RunRecord)
	// OnSession, when non-nil, receives one SessionRecord per
	// multi-metric session RunMulti executes, carrying the dedup and
	// cross-metric cache accounting. cmd/vacsem-bench points it at its
	// JSON report.
	OnSession func(SessionRecord)
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

// outcome is a verification error classified once, for the tables and
// the JSON report alike.
type outcome int

const (
	outcomeOK       outcome = iota
	outcomeTimeout          // the run's own time limit expired
	outcomeTooLarge         // enumeration beyond 62 inputs, or a BDD past its node budget
	outcomeError            // anything else: bad input, an internal failure
)

func classify(err error) outcome {
	switch {
	case err == nil:
		return outcomeOK
	case errors.Is(err, core.ErrTimeout):
		return outcomeTimeout
	case errors.Is(err, core.ErrTooLarge), errors.Is(err, core.ErrBDDTooLarge):
		return outcomeTooLarge
	default:
		return outcomeError
	}
}

// Spec is one benchmark row: an exact circuit plus its approximate
// versions.
type Spec struct {
	Name   string
	Exact  *circuit.Circuit
	Approx []*circuit.Circuit
}

// Cell is one (benchmark, method) measurement.
type Cell struct {
	// Geomean runtime over the approximate versions, in seconds, of the
	// completed runs.
	Geomean float64
	// TimedOut reports that at least one version hit the limit (the cell
	// is a ">limit" lower bound, as in the paper's tables).
	TimedOut bool
	// Infeasible marks enumeration beyond 62 inputs or a BDD past its
	// node budget.
	Infeasible bool
	// Failed marks a run that failed for any other reason (bad input,
	// internal error): it prints as "error", never as a timeout.
	Failed bool
}

// Render formats the cell the way the paper prints runtime columns.
func (c Cell) Render(limit time.Duration) string {
	switch {
	case c.Failed:
		return "error"
	case c.Infeasible || c.TimedOut:
		return fmt.Sprintf(">%g", limit.Seconds())
	}
	return fmt.Sprintf("%.4g", c.Geomean)
}

// Row is one line of Table IV/V/VI.
type Row struct {
	Name   string
	Cells  map[core.Method]Cell
	Values []string // verified metric values (first version, per method sanity)
}

// Speedup returns the speedup string of VACSEM against the baseline
// method, with the paper's ">" convention when the baseline timed out.
func (r Row) Speedup(base core.Method, limit time.Duration) string {
	v, okV := r.Cells[core.MethodVACSEM]
	b, okB := r.Cells[base]
	if !okV || !okB || v.TimedOut || v.Infeasible || v.Failed || b.Failed {
		return "-"
	}
	if b.TimedOut || b.Infeasible {
		return fmt.Sprintf(">%.4g", limit.Seconds()/v.Geomean)
	}
	return fmt.Sprintf("%.4g", b.Geomean/v.Geomean)
}

// speedupValue returns the numeric speedup (lower bound when the
// baseline timed out) or 0 when undefined.
func (r Row) speedupValue(base core.Method, limit time.Duration) float64 {
	v, okV := r.Cells[core.MethodVACSEM]
	b, okB := r.Cells[base]
	if !okV || !okB || v.TimedOut || v.Infeasible || v.Failed || b.Failed || v.Geomean == 0 {
		return 0
	}
	if b.TimedOut || b.Infeasible {
		return limit.Seconds() / v.Geomean
	}
	return b.Geomean / v.Geomean
}

// GeomeanSpeedup aggregates the rows the way the tables' last line does.
func GeomeanSpeedup(rows []Row, base core.Method, limit time.Duration) float64 {
	prod := 1.0
	n := 0
	for _, r := range rows {
		if s := r.speedupValue(base, limit); s > 0 {
			prod *= s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Metric selects what a table verifies.
type Metric int

// Metrics supported by RunTable.
const (
	ER Metric = iota
	MED
)

func (m Metric) String() string {
	if m == MED {
		return "MED"
	}
	return "ER"
}

// spec is the core metric spec m verifies.
func (m Metric) spec() core.MetricSpec {
	if m == MED {
		return core.MetricSpec{Kind: core.MetricMED}
	}
	return core.MetricSpec{Kind: core.MetricER}
}

// AdderMultSpecs builds the Table IV/V workload: approximate adders and
// multipliers with deterministic ALS-generated approximate versions.
func AdderMultSpecs(cfg Config) []Spec {
	cfg = cfg.withDefaults()
	var adderBits, multBits []int
	if cfg.Full {
		adderBits = []int{32, 64, 128}
		multBits = []int{10, 12, 14, 15, 16}
	} else {
		adderBits = []int{8, 16, 32}
		multBits = []int{6, 8, 10}
	}
	var specs []Spec
	for _, n := range adderBits {
		exact := gen.RippleCarryAdder(n)
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("adder%d", n),
			Exact:  exact,
			Approx: adderVersions(exact, n, cfg.Versions),
		})
	}
	for _, n := range multBits {
		exact := gen.ArrayMultiplier(n)
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("mult%d", n),
			Exact:  exact,
			Approx: multVersions(exact, n, cfg.Versions),
		})
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
	type entry struct {
		name   string
		scaled func() *circuit.Circuit
		full   func() *circuit.Circuit
	}
	entries := []entry{
		{"ctrl",
			func() *circuit.Circuit { return gen.ControlLogic("ctrl", 7, 26, 6, 1001) },
			func() *circuit.Circuit { return gen.ControlLogic("ctrl", 7, 26, 6, 1001) }},
		{"cavlc",
			func() *circuit.Circuit { return gen.ControlLogic("cavlc", 10, 11, 12, 1002) },
			func() *circuit.Circuit { return gen.ControlLogic("cavlc", 10, 11, 12, 1002) }},
		{"dec",
			func() *circuit.Circuit { return gen.Decoder(6) },
			func() *circuit.Circuit { return gen.Decoder(8) }},
		{"int2float",
			func() *circuit.Circuit { return gen.Int2Float(11, 3, 4) },
			func() *circuit.Circuit { return gen.Int2Float(11, 3, 4) }},
		{"barshift",
			func() *circuit.Circuit { return gen.BarrelShifter(32) },
			func() *circuit.Circuit { return gen.BarrelShifter(128) }},
		{"sin",
			func() *circuit.Circuit { return gen.SinApprox(12) },
			func() *circuit.Circuit { return gen.SinApprox(24) }},
		{"priority",
			func() *circuit.Circuit { return gen.PriorityEncoder(32) },
			func() *circuit.Circuit { return gen.PriorityEncoder(128) }},
		{"router",
			func() *circuit.Circuit { return gen.Router(8, true) },
			func() *circuit.Circuit { return gen.Router(20, true) }},
		{"binsqrd",
			func() *circuit.Circuit { return gen.BinSquared(6) },
			func() *circuit.Circuit { return gen.BinSquared(8) }},
		{"absdiff",
			func() *circuit.Circuit { return gen.AbsDiff(8) },
			func() *circuit.Circuit { return gen.AbsDiff(8) }},
		{"butterfly",
			func() *circuit.Circuit { return gen.Butterfly(8) },
			func() *circuit.Circuit { return gen.Butterfly(16) }},
		{"mac",
			func() *circuit.Circuit { return gen.MAC(4) },
			func() *circuit.Circuit { return gen.MAC(4) }},
	}
	var specs []Spec
	for i, e := range entries {
		build := e.scaled
		if cfg.Full {
			build = e.full
		}
		exact := build()
		specs = append(specs, Spec{
			Name:   e.name,
			Exact:  exact,
			Approx: als.SuiteApproximations(exact, cfg.Versions, int64(3000+i*101)),
		})
	}
	return specs
}

// RunTable verifies the metric for every spec with every configured
// method and returns the result rows.
func RunTable(specs []Spec, metric Metric, cfg Config) []Row {
	cfg = cfg.withDefaults()
	rows := make([]Row, 0, len(specs))
	for _, spec := range specs {
		row := Row{Name: spec.Name, Cells: map[core.Method]Cell{}}
		for _, m := range cfg.Methods {
			cell := Cell{}
			logSum, completed := 0.0, 0
			for v, approx := range spec.Approx {
				start := time.Now()
				res, err := core.Verify(context.Background(), spec.Exact, approx, metric.spec(), cfg.options(m))
				if cfg.OnRun != nil {
					cfg.OnRun(newRunRecord(spec.Name, metric.String(), m, v, res, err, time.Since(start)))
				}
				switch classify(err) {
				case outcomeOK:
					secs := res.Runtime.Seconds()
					if secs <= 0 {
						secs = 1e-6
					}
					logSum += math.Log(secs)
					completed++
				case outcomeTimeout:
					cell.TimedOut = true
				case outcomeTooLarge:
					cell.Infeasible = true
				default:
					cell.Failed = true
				}
				if err != nil {
					break // no point timing the remaining versions
				}
			}
			if completed > 0 && !cell.TimedOut && !cell.Infeasible && !cell.Failed {
				cell.Geomean = math.Exp(logSum / float64(completed))
			}
			row.Cells[m] = cell
		}
		rows = append(rows, row)
	}
	return rows
}

// MultiRow is one line of the multi-metric session table: the geomean
// session runtime against the summed standalone runtimes, plus the task
// dedup achieved (from the first version; the task structure is the
// same for every version of a benchmark family in practice).
type MultiRow struct {
	Name string
	// SessionSec and StandaloneSec are geomeans over the completed
	// versions of, respectively, the one-session runtime and the sum of
	// the three standalone single-metric runtimes.
	SessionSec    float64
	StandaloneSec float64
	// TasksRequested/Unique/Deduped report the first version's plan.
	TasksRequested int
	TasksUnique    int
	TasksDeduped   int
	TimedOut       bool
	// Mismatch is set if any session value differed from its standalone
	// counterpart — it must never happen; the table prints it loudly.
	Mismatch bool
}

// multiSpecs is the metric set every session verifies.
func multiSpecs() []core.MetricSpec {
	return []core.MetricSpec{
		{Kind: core.MetricER},
		{Kind: core.MetricMED},
		{Kind: core.MetricMHD},
	}
}

// RunMulti verifies {ER, MED, MHD} of every spec in one deduplicated
// session per approximate version (MethodVACSEM), and re-verifies each
// metric standalone to measure what the shared base and the task dedup
// save. Session values are checked bit-identical to the standalone ones.
func RunMulti(specs []Spec, cfg Config) []MultiRow {
	cfg = cfg.withDefaults()
	method := core.MethodVACSEM
	rows := make([]MultiRow, 0, len(specs))
	for _, spec := range specs {
		row := MultiRow{Name: spec.Name}
		sessLogSum, aloneLogSum, completed := 0.0, 0.0, 0
		for v, approx := range spec.Approx {
			opt := cfg.options(method)
			start := time.Now()
			sess, err := core.VerifyMetrics(context.Background(), spec.Exact, approx, multiSpecs(), opt)
			wall := time.Since(start)
			rec := newSessionRecord(spec.Name, method, v, sess, err, wall)
			if err != nil {
				if cfg.OnSession != nil {
					cfg.OnSession(rec)
				}
				row.TimedOut = true
				break
			}
			if v == 0 {
				row.TasksRequested = sess.TasksRequested
				row.TasksUnique = sess.TasksUnique
				row.TasksDeduped = sess.TasksDeduped
			}
			// Standalone comparison runs: same options, one metric each.
			standalone := 0.0
			for i, ms := range multiSpecs() {
				res, err := core.Verify(context.Background(), spec.Exact, approx, ms, opt)
				if err != nil {
					standalone = 0
					break
				}
				standalone += res.Runtime.Seconds()
				if res.Value.Cmp(sess.Results[i].Value) != 0 {
					row.Mismatch = true
				}
			}
			rec.StandaloneSeconds = standalone
			if cfg.OnSession != nil {
				cfg.OnSession(rec)
			}
			secs := rec.Seconds
			if secs <= 0 {
				secs = 1e-6
			}
			sessLogSum += math.Log(secs)
			if standalone <= 0 {
				standalone = 1e-6
			}
			aloneLogSum += math.Log(standalone)
			completed++
		}
		if completed > 0 {
			row.SessionSec = math.Exp(sessLogSum / float64(completed))
			row.StandaloneSec = math.Exp(aloneLogSum / float64(completed))
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteMultiTable prints the multi-metric session comparison.
func WriteMultiTable(w io.Writer, rows []MultiRow, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Multi-metric sessions: {ER, MED, MHD} in one deduplicated run (time limit %v, %d approx versions%s)\n",
		cfg.TimeLimit, cfg.Versions, map[bool]string{true: ", full-size", false: ", scaled"}[cfg.Full])
	fmt.Fprintf(w, "%-11s %12s %14s %9s %16s %9s\n",
		"Benchmark", "Session/s", "Standalone/s", "Speedup", "Tasks uniq/req", "Deduped")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Fprintf(w, "%-11s %12s\n", r.Name, fmt.Sprintf(">%g", cfg.TimeLimit.Seconds()))
			continue
		}
		speedup := "-"
		if r.SessionSec > 0 && r.StandaloneSec > 0 {
			speedup = fmt.Sprintf("%.3gx", r.StandaloneSec/r.SessionSec)
		}
		dedup := "-"
		if r.TasksRequested > 0 {
			dedup = fmt.Sprintf("%d%%", 100*r.TasksDeduped/r.TasksRequested)
		}
		note := ""
		if r.Mismatch {
			note = "  VALUE MISMATCH"
		}
		fmt.Fprintf(w, "%-11s %12.4g %14.4g %9s %16s %9s%s\n",
			r.Name, r.SessionSec, r.StandaloneSec, speedup,
			fmt.Sprintf("%d/%d", r.TasksUnique, r.TasksRequested), dedup, note)
	}
}

// ApproxRow is one line of the approx-vs-exact comparison: the same
// (benchmark, version) pairs verified with the (ε, δ) approx backend
// and with exact VACSEM, so the estimates' (1+ε) bands are checked
// against ground truth and the runtimes compared.
type ApproxRow struct {
	Name string
	// ApproxSec and ExactSec are geomean runtimes over the completed
	// versions of the approx and the exact run.
	ApproxSec, ExactSec float64
	// Within counts versions whose estimate landed inside the (1+ε)
	// band of the exact value; Total the versions compared. Within must
	// equal Total up to the δ failure probability.
	Within, Total int
	// ExactHits counts versions the approx backend happened to solve
	// exactly (count under the pivot, no hashing error).
	ExactHits int
	Epsilon   float64
	TimedOut  bool
}

// RunApproxTable verifies the metric for every spec twice — with the
// approx backend and with exact VACSEM — and reports band adherence
// plus the runtime comparison. Both runs land in OnRun (method "approx"
// vs "vacsem"), so the JSON report carries the raw comparability data.
func RunApproxTable(specs []Spec, metric Metric, cfg Config) []ApproxRow {
	cfg = cfg.withDefaults()
	eps, _ := cfg.approxGuarantee()
	band := new(big.Rat).SetFloat64(1 + eps)
	rows := make([]ApproxRow, 0, len(specs))
	for _, spec := range specs {
		row := ApproxRow{Name: spec.Name, Epsilon: eps}
		apxLog, exLog, completed := 0.0, 0.0, 0
		for v, approx := range spec.Approx {
			verify := func(m core.Method) (*core.Result, error) {
				start := time.Now()
				res, err := core.Verify(context.Background(), spec.Exact, approx, metric.spec(), cfg.options(m))
				if cfg.OnRun != nil {
					cfg.OnRun(newRunRecord(spec.Name, metric.String(), m, v, res, err, time.Since(start)))
				}
				return res, err
			}
			est, err := verify(core.MethodApprox)
			if err != nil {
				row.TimedOut = true
				break
			}
			exact, err := verify(core.MethodVACSEM)
			if err != nil {
				row.TimedOut = true
				break
			}
			row.Total++
			if !est.Approx {
				row.ExactHits++
			}
			if withinBand(est.Value, exact.Value, band) {
				row.Within++
			}
			apxLog += math.Log(clampSecs(est.Runtime.Seconds()))
			exLog += math.Log(clampSecs(exact.Runtime.Seconds()))
			completed++
		}
		if completed > 0 {
			row.ApproxSec = math.Exp(apxLog / float64(completed))
			row.ExactSec = math.Exp(exLog / float64(completed))
		}
		rows = append(rows, row)
	}
	return rows
}

// withinBand reports want/(1+ε) <= got <= want*(1+ε) in exact rational
// arithmetic; band is the precomputed (1+ε).
func withinBand(got, want, band *big.Rat) bool {
	hi := new(big.Rat).Mul(want, band)
	lo := new(big.Rat).Mul(got, band) // got*(1+ε) >= want <=> got >= want/(1+ε)
	return lo.Cmp(want) >= 0 && got.Cmp(hi) <= 0
}

func clampSecs(s float64) float64 {
	if s <= 0 {
		return 1e-6
	}
	return s
}

// WriteApproxTable prints the approx-vs-exact comparison.
func WriteApproxTable(w io.Writer, rows []ApproxRow, cfg Config) {
	cfg = cfg.withDefaults()
	eps, delta := cfg.approxGuarantee()
	fmt.Fprintf(w, "Approx vs exact: (ε=%g, δ=%g) estimates against exact values (time limit %v, %d approx versions%s)\n",
		eps, delta, cfg.TimeLimit, cfg.Versions,
		map[bool]string{true: ", full-size", false: ", scaled"}[cfg.Full])
	fmt.Fprintf(w, "%-11s %12s %12s %9s %9s %10s\n",
		"Benchmark", "Approx/s", "Exact/s", "Ratio", "InBand", "ExactHits")
	for _, r := range rows {
		if r.TimedOut {
			fmt.Fprintf(w, "%-11s %12s\n", r.Name, fmt.Sprintf(">%g", cfg.TimeLimit.Seconds()))
			continue
		}
		ratio := "-"
		if r.ApproxSec > 0 && r.ExactSec > 0 {
			ratio = fmt.Sprintf("%.3gx", r.ExactSec/r.ApproxSec)
		}
		fmt.Fprintf(w, "%-11s %12.4g %12.4g %9s %9s %10d\n",
			r.Name, r.ApproxSec, r.ExactSec, ratio,
			fmt.Sprintf("%d/%d", r.Within, r.Total), r.ExactHits)
	}
}

// WriteTable prints rows in the paper's layout.
func WriteTable(w io.Writer, title string, rows []Row, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "%s (time limit %v, %d approx versions%s)\n",
		title, cfg.TimeLimit, cfg.Versions, map[bool]string{true: ", full-size", false: ", scaled"}[cfg.Full])
	fmt.Fprintf(w, "%-11s %12s %12s %12s %14s %14s\n",
		"Benchmark", "VACSEM/s", "DPLL/s", "Enum/s", "vs DPLL", "vs Enum")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %12s %12s %12s %14s %14s\n",
			r.Name,
			r.Cells[core.MethodVACSEM].Render(cfg.TimeLimit),
			r.Cells[core.MethodDPLL].Render(cfg.TimeLimit),
			r.Cells[core.MethodEnum].Render(cfg.TimeLimit),
			r.Speedup(core.MethodDPLL, cfg.TimeLimit),
			r.Speedup(core.MethodEnum, cfg.TimeLimit))
	}
	fmt.Fprintf(w, "%-11s %12s %12s %12s %13.4gx %13.4gx\n",
		"GEOMEAN", "", "", "",
		GeomeanSpeedup(rows, core.MethodDPLL, cfg.TimeLimit),
		GeomeanSpeedup(rows, core.MethodEnum, cfg.TimeLimit))
}

// WriteTable6 prints Table VI: VACSEM against the DPLL baseline, with
// "N/A" marking rows where the baseline hit the limit.
func WriteTable6(w io.Writer, rows []Row, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Table VI: verifying ERs of EPFL and BACS circuits%s\n",
		map[bool]string{true: " (full-size)", false: " (scaled)"}[cfg.Full])
	fmt.Fprintf(w, "%-11s %14s %16s\n", "Name", "VACSEM/s", "Speedup vs DPLL")
	for _, r := range rows {
		sp := r.Speedup(core.MethodDPLL, cfg.TimeLimit)
		if d := r.Cells[core.MethodDPLL]; d.TimedOut || d.Infeasible {
			sp = "N/A (" + sp + ")"
		}
		fmt.Fprintf(w, "%-11s %14s %16s\n", r.Name,
			r.Cells[core.MethodVACSEM].Render(cfg.TimeLimit), strings.TrimSpace(sp))
	}
}

// WriteDDScalability reproduces the paper's footnote-2 claim as an
// experiment: decision-diagram verification (MethodBDD, the prior art
// of refs [3]-[6]) collapses on multipliers far below the sizes VACSEM
// handles, while staying competitive on adders. One row per circuit;
// BDD explosion beyond the node budget prints as "blow-up".
func WriteDDScalability(w io.Writer, cfg Config) {
	cfg = cfg.withDefaults()
	type point struct {
		name   string
		metric Metric
		exact  *circuit.Circuit
		approx *circuit.Circuit
	}
	var points []point
	adderBits := []int{8, 16, 32, 64}
	multBits := []int{4, 6, 8}
	if cfg.Full {
		multBits = append(multBits, 10, 12)
	}
	for _, n := range adderBits {
		points = append(points, point{
			fmt.Sprintf("adder%d/ER", n), ER,
			gen.RippleCarryAdder(n), als.LowerORAdder(n, 3),
		})
	}
	for _, n := range multBits {
		exact := gen.ArrayMultiplier(n)
		apx := als.TruncatedMultiplier(n, n/2)
		points = append(points,
			point{fmt.Sprintf("mult%d/ER", n), ER, exact, apx},
			point{fmt.Sprintf("mult%d/MED", n), MED, exact, apx})
	}
	fmt.Fprintf(w, "DD scalability (node budget %d; paper footnote 2: DDs die beyond 32-bit adders / 8-bit multipliers)\n", 1<<22)
	fmt.Fprintf(w, "%-13s %14s %14s\n", "Instance", "BDD/s", "VACSEM/s")
	for _, p := range points {
		render := func(m core.Method) string {
			start := time.Now()
			res, err := core.Verify(context.Background(), p.exact, p.approx, p.metric.spec(), cfg.options(m))
			if cfg.OnRun != nil {
				cfg.OnRun(newRunRecord(p.name, p.metric.String(), m, 0, res, err, time.Since(start)))
			}
			switch classify(err) {
			case outcomeOK:
				return fmt.Sprintf("%.4g", time.Since(start).Seconds())
			case outcomeTimeout:
				return fmt.Sprintf(">%g", cfg.TimeLimit.Seconds())
			case outcomeTooLarge:
				return "blow-up"
			default:
				return "error"
			}
		}
		fmt.Fprintf(w, "%-13s %14s %14s\n", p.name, render(core.MethodBDD), render(core.MethodVACSEM))
	}
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
