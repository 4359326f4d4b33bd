package bench

import (
	"fmt"
	"io"
	"math"
	"math/big"
	"strings"
	"time"

	"vacsem/internal/core"
)

// Table titles, as vacsem-bench prints them.
const (
	TitleIV = "Table IV: verifying ERs of adders and multipliers"
	TitleV  = "Table V: verifying MEDs of adders and multipliers"
)

// Cell is one runtime column entry: the fold of one (benchmark,
// method) group of run records.
type Cell struct {
	// Geomean is the geometric mean runtime in seconds over the group's
	// runs; zero when the group is empty or a run did not complete.
	Geomean float64
	// status is the outcome of the first run that did not complete.
	status outcome
}

// fold folds one (benchmark, method) group of run records, in version
// order, into a Cell. A best-effort approx run ran out the clock, so a
// runtime column counts it as a limit hit, although its estimate is
// valid.
func fold(recs []RunRecord) Cell {
	logSum := 0.0
	for _, r := range recs {
		if o := r.outcome(); o != outcomeOK {
			return Cell{status: o}
		}
		if r.BestEffort {
			return Cell{status: outcomeTimeout}
		}
		secs := r.Seconds
		if secs <= 0 {
			secs = 1e-6 // a zero runtime would sink the log
		}
		logSum += math.Log(secs)
	}
	if len(recs) == 0 {
		return Cell{}
	}
	return Cell{Geomean: math.Exp(logSum / float64(len(recs)))}
}

// Render formats the cell the way the paper prints runtime columns: a
// run past the time limit or beyond enumeration's reach is a ">limit"
// lower bound, a BDD past its node budget a "blow-up", and any other
// failure an "error". A cell without runs prints "-".
func (c Cell) Render(limit time.Duration) string {
	switch c.status {
	case outcomeError:
		return "error"
	case outcomeBlowUp:
		return "blow-up"
	case outcomeTimeout, outcomeTooLarge:
		return fmt.Sprintf(">%g", limit.Seconds())
	}
	if c.Geomean == 0 {
		return "-"
	}
	return fmt.Sprintf("%.4g", c.Geomean)
}

// speedup returns how much faster v ran than base: a lower bound
// (bound) when base did not finish, and 0 when undefined — v did not
// complete, or base has no runs or failed outright.
func speedup(v, base Cell, limit time.Duration) (s float64, bound bool) {
	if v.Geomean == 0 || base.status == outcomeError {
		return 0, false
	}
	if base.status != outcomeOK {
		return limit.Seconds() / v.Geomean, true
	}
	return base.Geomean / v.Geomean, false
}

// renderSpeedup formats speedup(v, base, limit) with verb, marking a
// lower bound with the paper's ">" and an undefined speedup with "-".
func renderSpeedup(v, base Cell, limit time.Duration, verb string) string {
	s, bound := speedup(v, base, limit)
	switch {
	case s == 0:
		return "-"
	case bound:
		return ">" + fmt.Sprintf(verb, s)
	}
	return fmt.Sprintf(verb, s)
}

// runGroup is one benchmark's records, split by method, each method's
// records in version order.
type runGroup struct {
	bench   string
	methods map[string][]RunRecord
}

// groupRuns splits runs by benchmark, in order of first appearance.
func groupRuns(runs []RunRecord) []runGroup {
	var groups []runGroup
	at := map[string]int{}
	for _, r := range runs {
		i, ok := at[r.Bench]
		if !ok {
			i = len(groups)
			at[r.Bench] = i
			groups = append(groups, runGroup{r.Bench, map[string][]RunRecord{}})
		}
		groups[i].methods[r.Method] = append(groups[i].methods[r.Method], r)
	}
	return groups
}

// Row is one line of Table IV/V/VI or of the DD table.
type Row struct {
	Name string
	// Cells holds one Cell per method name that has records.
	Cells map[string]Cell
}

// Rows folds run records into table rows: one row per benchmark, in
// order of first appearance.
func Rows(runs []RunRecord) []Row {
	var rows []Row
	for _, g := range groupRuns(runs) {
		row := Row{Name: g.bench, Cells: map[string]Cell{}}
		for m, recs := range g.methods {
			row.Cells[m] = fold(recs)
		}
		rows = append(rows, row)
	}
	return rows
}

func (r Row) cell(m core.Method) Cell { return r.Cells[m.String()] }

// Speedup returns the speedup string of VACSEM against the baseline
// method, with the paper's ">" convention when the baseline timed out.
func (r Row) Speedup(base core.Method, limit time.Duration) string {
	return renderSpeedup(r.cell(core.MethodVACSEM), r.cell(base), limit, "%.4g")
}

// GeomeanSpeedup aggregates the rows the way the tables' last line does.
func GeomeanSpeedup(rows []Row, base core.Method, limit time.Duration) float64 {
	prod, n := 1.0, 0
	for _, r := range rows {
		if s, _ := speedup(r.cell(core.MethodVACSEM), r.cell(base), limit); s > 0 {
			prod *= s
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// WriteTable prints rows in the paper's layout.
func WriteTable(w io.Writer, title string, rows []Row, cfg Config) {
	cfg = cfg.withDefaults()
	limit := cfg.TimeLimit
	fmt.Fprintf(w, "%s (time limit %v, %d approx versions, %s)\n",
		title, limit, cfg.Versions, cfg.suite())
	fmt.Fprintf(w, "%-11s %12s %12s %12s %14s %14s\n",
		"Benchmark", "VACSEM/s", "DPLL/s", "Enum/s", "vs DPLL", "vs Enum")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %12s %12s %12s %14s %14s\n",
			r.Name,
			r.cell(core.MethodVACSEM).Render(limit),
			r.cell(core.MethodDPLL).Render(limit),
			r.cell(core.MethodEnum).Render(limit),
			r.Speedup(core.MethodDPLL, limit),
			r.Speedup(core.MethodEnum, limit))
	}
	fmt.Fprintf(w, "%-11s %12s %12s %12s %13.4gx %13.4gx\n",
		"GEOMEAN", "", "", "",
		GeomeanSpeedup(rows, core.MethodDPLL, limit),
		GeomeanSpeedup(rows, core.MethodEnum, limit))
}

// WriteTable6 prints Table VI: VACSEM against the DPLL baseline, with
// "N/A" marking rows where the baseline hit the limit.
func WriteTable6(w io.Writer, rows []Row, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "Table VI: verifying ERs of EPFL and BACS circuits (%s)\n", cfg.suite())
	fmt.Fprintf(w, "%-11s %14s %16s\n", "Name", "VACSEM/s", "Speedup vs DPLL")
	for _, r := range rows {
		v, d := r.cell(core.MethodVACSEM), r.cell(core.MethodDPLL)
		sp := r.Speedup(core.MethodDPLL, cfg.TimeLimit)
		if _, bound := speedup(v, d, cfg.TimeLimit); bound {
			sp = "N/A (" + sp + ")"
		}
		fmt.Fprintf(w, "%-11s %14s %16s\n", r.Name, v.Render(cfg.TimeLimit), sp)
	}
}

// WriteDDScalability prints the footnote-2 table from
// RunDDScalability's rows: one line per instance.
func WriteDDScalability(w io.Writer, rows []Row, cfg Config) {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "DD scalability (node budget %d; paper footnote 2: DDs die beyond 32-bit adders / 8-bit multipliers)\n", 1<<22)
	fmt.Fprintf(w, "%-13s %14s %14s\n", "Instance", "BDD/s", "VACSEM/s")
	for _, r := range rows {
		fmt.Fprintf(w, "%-13s %14s %14s\n", r.Name,
			r.cell(core.MethodBDD).Render(cfg.TimeLimit), r.cell(core.MethodVACSEM).Render(cfg.TimeLimit))
	}
}

// MultiRow is one line of the multi-metric session table: the geomean
// session runtime against the geomean of the summed standalone
// runtimes, plus the task dedup of the first version (the task
// structure is the same for every version of a benchmark family in
// practice).
type MultiRow struct {
	Name string
	// Session folds the session runs; Standalone folds, per version,
	// the sum of the three standalone runs.
	Session, Standalone Cell
	// TasksRequested/Unique/Deduped report the first version's plan.
	TasksRequested int
	TasksUnique    int
	TasksDeduped   int
	// Mismatch is set if any session value differed from its standalone
	// counterpart — it must never happen; the table prints it loudly.
	Mismatch bool
}

// MultiRows folds RunMulti's records into the session table's rows. A
// version's standalone time is the sum of its runs, and a failed run
// stands for the whole version.
func MultiRows(sessions []SessionRecord, runs []RunRecord) []MultiRow {
	alone := map[string][]RunRecord{} // "<bench>/v<version>" -> its standalone runs
	for _, r := range runs {
		key := fmt.Sprintf("%s/v%d", strings.TrimSuffix(r.Bench, "/standalone"), r.Version)
		alone[key] = append(alone[key], r)
	}
	var rows []MultiRow
	var sess, sums [][]RunRecord // per row, in version order
	for _, s := range sessions { // RunMulti records a benchmark's sessions together
		if len(rows) == 0 || rows[len(rows)-1].Name != s.Bench {
			rows = append(rows, MultiRow{Name: s.Bench, TasksRequested: s.TasksRequested,
				TasksUnique: s.TasksUnique, TasksDeduped: s.TasksDeduped})
			sess, sums = append(sess, nil), append(sums, nil)
		}
		i := len(rows) - 1
		sess[i] = append(sess[i], RunRecord{Seconds: s.Seconds, TimedOut: s.TimedOut, Err: s.Err})
		recs := alone[fmt.Sprintf("%s/v%d", s.Bench, s.Version)]
		var sum RunRecord
		for _, r := range recs {
			if r.outcome() != outcomeOK {
				sum = r
				break
			}
			sum.Seconds += r.Seconds
			for _, m := range s.Metrics {
				rows[i].Mismatch = rows[i].Mismatch || m.Metric == r.Metric && m.Value != r.Value
			}
		}
		if len(recs) > 0 {
			sums[i] = append(sums[i], sum)
		}
	}
	for i := range rows {
		rows[i].Session, rows[i].Standalone = fold(sess[i]), fold(sums[i])
	}
	return rows
}

// WriteMultiTable prints the multi-metric session comparison.
func WriteMultiTable(w io.Writer, rows []MultiRow, cfg Config) {
	cfg = cfg.withDefaults()
	limit := cfg.TimeLimit
	fmt.Fprintf(w, "Multi-metric sessions: {ER, MED, MHD} in one deduplicated run (time limit %v, %d approx versions, %s)\n",
		limit, cfg.Versions, cfg.suite())
	fmt.Fprintf(w, "%-11s %12s %14s %9s %16s %9s\n",
		"Benchmark", "Session/s", "Standalone/s", "Speedup", "Tasks uniq/req", "Deduped")
	for _, r := range rows {
		tasks, dedup := "-", "-"
		if r.TasksRequested > 0 {
			tasks = fmt.Sprintf("%d/%d", r.TasksUnique, r.TasksRequested)
			dedup = fmt.Sprintf("%d%%", 100*r.TasksDeduped/r.TasksRequested)
		}
		note := ""
		if r.Mismatch {
			note = "  VALUE MISMATCH"
		}
		fmt.Fprintf(w, "%-11s %12s %14s %9s %16s %9s%s\n",
			r.Name, r.Session.Render(limit), r.Standalone.Render(limit),
			renderSpeedup(r.Session, r.Standalone, limit, "%.3gx"), tasks, dedup, note)
	}
}

// ApproxRow is one line of the approx-vs-exact comparison: the same
// (benchmark, version) pairs verified with the (ε, δ) approx backend
// and with exact VACSEM, so the estimates' (1+ε) bands are checked
// against ground truth and the runtimes compared.
type ApproxRow struct {
	Name string
	// Approx and Exact fold the approx and the exact runs.
	Approx, Exact Cell
	// Within counts versions whose estimate landed inside the (1+ε)
	// band of the exact value; Total the versions compared. Within must
	// equal Total up to the δ failure probability.
	Within, Total int
	// ExactHits counts versions the approx backend happened to solve
	// exactly (count under the pivot, no hashing error).
	ExactHits int
}

// ApproxRows folds RunApproxTable's records into rows, checking each
// completed estimate against the (1+ε) band of cfg's ε.
func ApproxRows(runs []RunRecord, cfg Config) []ApproxRow {
	eps, _ := cfg.withDefaults().approxGuarantee()
	band := new(big.Rat).SetFloat64(1 + eps)
	var rows []ApproxRow
	for _, g := range groupRuns(runs) {
		apx, ex := g.methods[core.MethodApprox.String()], g.methods[core.MethodVACSEM.String()]
		row := ApproxRow{Name: g.bench, Approx: fold(apx), Exact: fold(ex)}
		for v := 0; v < len(apx) && v < len(ex); v++ {
			if apx[v].outcome() != outcomeOK || ex[v].outcome() != outcomeOK {
				break
			}
			row.Total++
			if !apx[v].Approx {
				row.ExactHits++
			}
			got, _ := new(big.Rat).SetString(apx[v].Value)
			want, _ := new(big.Rat).SetString(ex[v].Value)
			if withinBand(got, want, band) {
				row.Within++
			}
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

// WriteApproxTable prints the approx-vs-exact comparison.
func WriteApproxTable(w io.Writer, rows []ApproxRow, cfg Config) {
	cfg = cfg.withDefaults()
	limit := cfg.TimeLimit
	eps, delta := cfg.approxGuarantee()
	fmt.Fprintf(w, "Approx vs exact: (ε=%g, δ=%g) estimates against exact values (time limit %v, %d approx versions, %s)\n",
		eps, delta, limit, cfg.Versions, cfg.suite())
	fmt.Fprintf(w, "%-11s %12s %12s %9s %9s %10s\n",
		"Benchmark", "Approx/s", "Exact/s", "Ratio", "InBand", "ExactHits")
	for _, r := range rows {
		fmt.Fprintf(w, "%-11s %12s %12s %9s %9s %10d\n",
			r.Name, r.Approx.Render(limit), r.Exact.Render(limit),
			renderSpeedup(r.Approx, r.Exact, limit, "%.3gx"),
			fmt.Sprintf("%d/%d", r.Within, r.Total), r.ExactHits)
	}
}
