// Command vacsem-bench regenerates the paper's experimental tables:
//
//	Table III — benchmark inventory (#PI / #PO / #AIG nodes)
//	Table IV  — ER of approximate adders & multipliers, three methods
//	Table V   — MED of approximate adders & multipliers, three methods
//	Table VI  — ER of EPFL & BACS circuits, VACSEM vs the DPLL baseline
//
// -table multi additionally benchmarks the multi-metric session mode:
// {ER, MED, MHD} of each pair verified in one shared-base, deduplicated
// run, against the sum of the three standalone runs.
//
// -table approx compares the (ε, δ) approximate-counting backend with
// exact VACSEM on the adder/multiplier suite: estimates are checked
// against the exact values' (1+ε) band and both runs land in the JSON
// report (records carry epsilon/delta, so approximate and exact values
// stay distinguishable). -epsilon, -delta and -count-seed tune it;
// -backend restricts any table's method list to one backend.
//
// -table serve benchmarks the verification service's cross-request
// store end to end: a real vacsem-serve instance is started on an
// ephemeral port, each benchmark's {ER, MED} job is submitted cold and
// then warm over HTTP, the server is restarted from its shutdown
// snapshot, and the job runs once more — warm runs must return
// bit-identical values while solving nothing.
//
// The default suite is scaled down so a complete run finishes in minutes
// (the counter is pure Go); -full restores the paper's circuit sizes.
//
// Besides the text tables on stdout, every run that executes at least
// one verification writes a machine-readable JSON report with one
// record per individual run — including per-sub-miter wall times, which
// the geomean tables aggregate away — plus the end-of-run metric
// totals. The default path is BENCH_<timestamp>.json in the current
// directory, next to the table output; -report FILE overrides it and
// -report none disables it.
//
// By default every verification run is flight-recorded: a background
// sampler snapshots the solver counters every -flight-interval, and the
// resulting per-run time-series land in the JSON report's records
// (timeseries field). -introspect ADDR additionally serves the live
// introspection endpoints (/metrics, /debug/vacsem/progress,
// /debug/vacsem/runs, /debug/pprof) while the suite runs.
//
// -diff OLD.json NEW.json switches to the regression gate: the two
// reports are compared run-by-run (matched by bench, metric, method and
// version) with tolerance bands (-diff-tol for wall time,
// -diff-min-seconds for the noise floor), a delta table is printed, and
// the exit status is non-zero when any run regressed — exact counts
// changing, completed runs now timing out or vanishing, wall time or
// kernel throughput outside its band.
//
// Usage:
//
//	vacsem-bench -table all
//	vacsem-bench -table 4 -versions 10 -timelimit 5m
//	vacsem-bench -table 6 -full
//	vacsem-bench -table 4 -trace run.jsonl -report table4.json
//	vacsem-bench -table 4 -introspect localhost:6061
//	vacsem-bench -diff BENCH_old.json BENCH_new.json
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vacsem/internal/bench"
	"vacsem/internal/core"
	"vacsem/internal/obs"
	"vacsem/internal/obs/expo"
)

func main() {
	os.Exit(run())
}

func run() int {
	table := flag.String("table", "all", "table to regenerate: 3, 4, 5, 6, dd, multi, approx, serve or all")
	backendName := flag.String("backend", "", "restrict table runs to one backend (vacsem, dpll, enum, bdd, approx)")
	epsilon := flag.Float64("epsilon", 0, "approx backend: multiplicative tolerance ε (0 = default 0.8)")
	delta := flag.Float64("delta", 0, "approx backend: failure probability δ (0 = default 0.2)")
	countSeed := flag.Int64("count-seed", 0, "seed for the approx backend's XOR sampling (reproducible runs)")
	full := flag.Bool("full", false, "use the paper's full-size circuits (slow)")
	versions := flag.Int("versions", 0, "approximate versions per benchmark (default 3, 10 with -full)")
	timeLimit := flag.Duration("timelimit", 0, "per-verification time limit (default 30s, 4h with -full)")
	workers := flag.Int("workers", 1, "concurrent sub-miter solvers per run (0 = one per CPU; 1 reproduces the paper's single-thread timings)")
	simWorkers := flag.Int("sim-workers", 1, "goroutines for exhaustive simulation block enumeration (0 = one per CPU; 1 keeps single-thread timings comparable)")
	bddReorder := flag.Bool("bdd-reorder", false, "enable dynamic variable reordering (window sifting) in the bdd method")
	sharedCache := flag.Bool("shared-cache", true, "share one component-count cache across each run's sub-miter solvers (counts are identical either way)")
	report := flag.String("report", "auto", "JSON report path; auto = BENCH_<timestamp>.json, none = disabled")
	tracePath := flag.String("trace", "", "write span/event trace (JSON lines) to this file")
	metricsFmt := flag.String("obs-metrics", "", "print end-of-run metrics to stderr: table or json")
	pprofAddr := flag.String("pprof", "", "serve live net/http/pprof on this address (e.g. localhost:6060)")
	introspect := flag.String("introspect", "", "serve the live introspection server on this address: /metrics, /debug/vacsem/progress, /debug/vacsem/runs, /debug/pprof (may equal -pprof to share one listener)")
	flightIvl := flag.Duration("flight-interval", obs.DefaultFlightInterval, "flight-recorder sampling interval (runs' time-series land in the JSON report; negative = off)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	diffMode := flag.Bool("diff", false, "compare two bench reports (args: OLD.json NEW.json); exit non-zero on regression")
	diffTol := flag.Float64("diff-tol", 0, "-diff: allowed wall-time ratio new/old (0 = default 1.25)")
	diffMinSeconds := flag.Float64("diff-min-seconds", 0, "-diff: noise floor below which runs are not time-compared (0 = default 0.05)")
	flag.Parse()

	if *diffMode {
		return runDiff(flag.Args(), *diffTol, *diffMinSeconds)
	}

	stop, err := expo.Setup(expo.CLIConfig{
		TracePath:      *tracePath,
		CPUProfile:     *cpuProfile,
		MemProfile:     *memProfile,
		PprofAddr:      *pprofAddr,
		IntrospectAddr: *introspect,
		FlightInterval: *flightIvl,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
		return 1
	}
	exitCode := 0
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
		}
	}()

	cfg := bench.Config{
		Full: *full, Versions: *versions, TimeLimit: *timeLimit,
		Workers: *workers, SimWorkers: *simWorkers, NoSharedCache: !*sharedCache,
		BDDReorder: *bddReorder,
		Epsilon:    *epsilon, Delta: *delta, Seed: *countSeed,
	}
	if *backendName != "" {
		m, err := core.MethodByName(*backendName)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
			return 2
		}
		cfg.Methods = []core.Method{m}
	}
	rep := bench.NewReport(cfg, *table, time.Now())
	cfg.OnRun = rep.Add
	cfg.OnSession = rep.AddSession
	cfg.OnServe = rep.AddServe

	want := func(t string) bool { return *table == "all" || *table == t }
	ran := false

	if want("3") {
		ran = true
		bench.WriteTable3(os.Stdout)
		fmt.Println()
	}
	if want("4") {
		ran = true
		specs := bench.AdderMultSpecs(cfg)
		rows := bench.RunTable(specs, bench.ER, cfg)
		bench.WriteTable(os.Stdout, "Table IV: verifying ERs of adders and multipliers", rows, cfg)
		fmt.Println()
	}
	if want("5") {
		ran = true
		specs := bench.AdderMultSpecs(cfg)
		rows := bench.RunTable(specs, bench.MED, cfg)
		bench.WriteTable(os.Stdout, "Table V: verifying MEDs of adders and multipliers", rows, cfg)
		fmt.Println()
	}
	if want("dd") {
		ran = true
		bench.WriteDDScalability(os.Stdout, cfg)
		fmt.Println()
	}
	if want("multi") {
		ran = true
		specs := bench.AdderMultSpecs(cfg)
		rows := bench.RunMulti(specs, cfg)
		bench.WriteMultiTable(os.Stdout, rows, cfg)
		fmt.Println()
	}
	if *table == "serve" { // not part of -table all: it reruns the suite three times
		ran = true
		specs := bench.ServeSpecs(cfg)
		recs := bench.RunServeTable(specs, cfg)
		bench.WriteServeTable(os.Stdout, recs, cfg)
		fmt.Println()
	}
	if *table == "approx" { // not part of -table all: it reruns the suite twice
		ran = true
		specs := bench.AdderMultSpecs(cfg)
		rows := bench.RunApproxTable(specs, bench.ER, cfg)
		bench.WriteApproxTable(os.Stdout, rows, cfg)
		fmt.Println()
		// The scaling rows: adder and multiplier sizes the exact
		// reference cannot reach.
		scale := bench.RunApproxScaleTable(bench.ApproxScaleSpecs(cfg), cfg)
		bench.WriteApproxScaleTable(os.Stdout, scale, cfg)
		fmt.Println()
	}
	if want("6") {
		ran = true
		// Table VI compares VACSEM against the DPLL baseline only.
		cfg6 := cfg
		cfg6.Methods = []core.Method{core.MethodVACSEM, core.MethodDPLL}
		specs := bench.EPFLBACSSpecs(cfg6)
		rows := bench.RunTable(specs, bench.ER, cfg6)
		writeTable6(rows, cfg6)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown -table %q (want 3, 4, 5, 6, dd, multi, approx, serve or all)\n", *table)
		return 2
	}

	if len(rep.Runs)+len(rep.Sessions)+len(rep.Serves) > 0 && *report != "none" {
		path := *report
		if path == "auto" {
			path = bench.DefaultReportPath(time.Now())
		}
		rep.AttachMetrics()
		if err := writeReport(rep, path); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
			exitCode = 1
		} else {
			fmt.Fprintf(os.Stderr, "report written to %s (%d runs, %d sessions, %d serves)\n",
				path, len(rep.Runs), len(rep.Sessions), len(rep.Serves))
		}
	}
	if *metricsFmt != "" {
		if err := obs.WriteMetrics(os.Stderr, *metricsFmt); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
			exitCode = 1
		}
	}
	return exitCode
}

// runDiff is the -diff mode: load two reports, print the delta table,
// and gate on regressions.
func runDiff(args []string, tol, minSeconds float64) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "vacsem-bench -diff: want exactly two args: OLD.json NEW.json")
		return 2
	}
	oldRep, err := bench.LoadReport(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
		return 2
	}
	newRep, err := bench.LoadReport(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
		return 2
	}
	d := bench.Diff(oldRep, newRep, bench.DiffOptions{TimeTol: tol, MinSeconds: minSeconds})
	d.WriteTable(os.Stdout)
	if d.HasRegressions() {
		fmt.Fprintf(os.Stderr, "vacsem-bench -diff: %d regression(s) against %s\n",
			len(d.Regressions), args[0])
		return 1
	}
	return 0
}

func writeReport(rep *bench.Report, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeTable6(rows []bench.Row, cfg bench.Config) {
	limit := cfg.TimeLimit
	if limit == 0 {
		limit = 30 * time.Second
		if cfg.Full {
			limit = 4 * time.Hour
		}
	}
	fmt.Printf("Table VI: verifying ERs of EPFL and BACS circuits%s\n",
		map[bool]string{true: " (full-size)", false: " (scaled)"}[cfg.Full])
	fmt.Printf("%-11s %14s %16s\n", "Name", "VACSEM/s", "Speedup vs DPLL")
	for _, r := range rows {
		sp := r.Speedup(core.MethodDPLL, limit)
		if d := r.Cells[core.MethodDPLL]; d.TimedOut || d.Infeasible {
			sp = "N/A (" + sp + ")"
		}
		fmt.Printf("%-11s %14s %16s\n", r.Name,
			r.Cells[core.MethodVACSEM].Render(limit), strings.TrimSpace(sp))
	}
}
