// Command vacsem-bench regenerates the paper's experimental tables:
//
//	Table III — benchmark inventory (#PI / #PO / #AIG nodes)
//	Table IV  — ER of approximate adders & multipliers, three methods
//	Table V   — MED of approximate adders & multipliers, three methods
//	Table VI  — ER of EPFL & BACS circuits, VACSEM vs the DPLL baseline
//
// -table dd reproduces the paper's footnote 2: decision diagrams blow
// up on multipliers far below the sizes VACSEM handles.
//
// -table multi additionally benchmarks the multi-metric session mode:
// {ER, MED, MHD} of each pair verified in one shared-base, deduplicated
// run, against the sum of the three standalone runs. A session value
// that differs from its standalone run prints "VALUE MISMATCH" and
// makes the exit status 1.
//
// -table approx compares the (ε, δ) approximate-counting backend with
// exact VACSEM on the adder/multiplier suite: estimates are checked
// against the exact values' (1+ε) band and both runs land in the JSON
// report (records carry epsilon/delta, so approximate and exact values
// stay distinguishable). Scale rows follow at adder and multiplier
// sizes the exact reference cannot reach. -epsilon, -delta and
// -count-seed tune it; -backend restricts any table's method list to
// one backend.
//
// The default suite is scaled down so a complete run finishes in minutes
// (the counter is pure Go); -full restores the paper's circuit sizes.
//
// Besides the text tables on stdout, every run that executes at least
// one verification writes a machine-readable JSON report with one
// record per individual run — including per-sub-miter wall times, which
// the geomean tables aggregate away — plus the end-of-run metric
// totals. Each text table is printed from those records alone, so a
// committed report re-renders its tables exactly. The default path is
// BENCH_<timestamp>.json in the current directory, next to the table
// output; -report FILE overrides it and -report none disables it.
// -introspect ADDR serves the live introspection endpoints (/metrics,
// /debug/vacsem/progress, /debug/pprof) while the suite runs.
//
// -diff OLD.json NEW.json switches to the count gate: the two reports
// are compared run-by-run (matched by bench, metric, method and
// version), a table of both wall times and their ratio is printed, and
// the exit status is 1 when an exact count or approx flag changed, a
// completed run now times out, errors or is infeasible, or a run is
// missing from NEW. Wall time is never gated here; the benchmark/
// module owns performance. A report that cannot be read, or that holds
// two runs under one key, exits 2.
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
	"time"

	"vacsem/internal/bench"
	"vacsem/internal/core"
	"vacsem/internal/obs"
	"vacsem/internal/obs/expo"
)

func main() {
	os.Exit(run())
}

// run carries the whole CLI so that observability teardown happens on
// every exit path; a teardown error turns a zero exit code into 1.
func run() (exitCode int) {
	table := flag.String("table", "all", "table to regenerate: 3, 4, 5, 6, dd, multi, approx or all")
	backendName := flag.String("backend", "", "restrict table runs to one backend (vacsem, dpll, enum, bdd, approx)")
	epsilon := flag.Float64("epsilon", 0, "approx backend: multiplicative tolerance ε (0 = default 0.8)")
	delta := flag.Float64("delta", 0, "approx backend: failure probability δ (0 = default 0.2)")
	countSeed := flag.Int64("count-seed", 0, "seed for the approx backend's XOR sampling (reproducible runs)")
	full := flag.Bool("full", false, "use the paper's full-size circuits (slow)")
	versions := flag.Int("versions", 0, "approximate versions per benchmark (default 3, 10 with -full)")
	timeLimit := flag.Duration("timelimit", 0, "per-verification time limit (default 30s, 4h with -full)")
	workers := flag.Int("workers", 1, "concurrent sub-miter solvers per run (0 = one per CPU; 1 reproduces the paper's single-thread timings)")
	simWorkers := flag.Int("sim-workers", 1, "goroutines for exhaustive simulation block enumeration (0 = one per CPU; 1 keeps single-thread timings comparable)")
	sharedCache := flag.Bool("shared-cache", true, "share one component-count cache across each run's sub-miter solvers (counts are identical either way)")
	report := flag.String("report", "auto", "JSON report path; auto = BENCH_<timestamp>.json, none = disabled")
	tracePath := flag.String("trace", "", "write span/event trace (JSON lines) to this file")
	metricsFmt := flag.String("obs-metrics", "", "print end-of-run metrics to stderr: table or json")
	pprofAddr := flag.String("pprof", "", "serve live net/http/pprof on this address (e.g. localhost:6060)")
	introspect := flag.String("introspect", "", "serve the live introspection server on this address: /metrics, /debug/vacsem/progress, /debug/pprof (may equal -pprof to share one listener)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	diffMode := flag.Bool("diff", false, "compare two bench reports (args: OLD.json NEW.json); exit 1 on a changed count or a lost run")
	flag.Parse()

	if *diffMode {
		return runDiff(flag.Args())
	}

	stop, err := expo.Setup(expo.CLIConfig{
		TracePath:      *tracePath,
		CPUProfile:     *cpuProfile,
		MemProfile:     *memProfile,
		PprofAddr:      *pprofAddr,
		IntrospectAddr: *introspect,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
	}()

	cfg := bench.Config{
		Options: core.Options{
			TimeLimit: *timeLimit, Workers: *workers, SimWorkers: *simWorkers,
			DisableSharedCache: !*sharedCache, Epsilon: *epsilon, Delta: *delta, Seed: *countSeed,
		},
		Full: *full, Versions: *versions,
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
	want := func(t string) bool { return *table == "all" || *table == t }
	ran, mismatch := false, false
	// record files a table's runs in the report; the table then prints
	// from those records alone.
	record := func(runs []bench.RunRecord) []bench.RunRecord {
		ran = true
		rep.Runs = append(rep.Runs, runs...)
		return runs
	}

	if want("3") {
		ran = true
		bench.WriteTable3(os.Stdout)
		fmt.Println()
	}
	if want("4") {
		runs := record(bench.RunTable(bench.AdderMultSpecs(cfg), bench.ER, cfg))
		bench.WriteTable(os.Stdout, bench.TitleIV, bench.Rows(runs), cfg)
		fmt.Println()
	}
	if want("5") {
		runs := record(bench.RunTable(bench.AdderMultSpecs(cfg), bench.MED, cfg))
		bench.WriteTable(os.Stdout, bench.TitleV, bench.Rows(runs), cfg)
		fmt.Println()
	}
	if want("dd") {
		runs := record(bench.RunDDScalability(cfg))
		bench.WriteDDScalability(os.Stdout, bench.Rows(runs), cfg)
		fmt.Println()
	}
	if want("multi") {
		sessions, runs := bench.RunMulti(bench.AdderMultSpecs(cfg), cfg)
		rep.Sessions = append(rep.Sessions, sessions...)
		rows := bench.MultiRows(sessions, record(runs))
		bench.WriteMultiTable(os.Stdout, rows, cfg)
		fmt.Println()
		for _, r := range rows {
			mismatch = mismatch || r.Mismatch
		}
	}
	if *table == "approx" { // not part of -table all: it reruns the suite twice
		runs := record(bench.RunApproxTable(bench.AdderMultSpecs(cfg), bench.ER, cfg))
		bench.WriteApproxTable(os.Stdout, bench.ApproxRows(runs, cfg), cfg)
		fmt.Println()
		// The scaling rows: adder and multiplier sizes the exact
		// reference cannot reach.
		scale := record(bench.RunApproxScaleTable(bench.ApproxScaleSpecs(cfg), cfg))
		bench.WriteApproxScaleTable(os.Stdout, bench.ApproxScaleRows(scale), cfg)
		fmt.Println()
	}
	if want("6") {
		// Table VI compares VACSEM against the DPLL baseline only.
		cfg6 := cfg
		cfg6.Methods = []core.Method{core.MethodVACSEM, core.MethodDPLL}
		runs := record(bench.RunTable(bench.EPFLBACSSpecs(cfg6), bench.ER, cfg6))
		bench.WriteTable6(os.Stdout, bench.Rows(runs), cfg6)
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown -table %q (want 3, 4, 5, 6, dd, multi, approx or all)\n", *table)
		return 2
	}

	if len(rep.Runs)+len(rep.Sessions) > 0 && *report != "none" {
		path := *report
		if path == "auto" {
			path = bench.DefaultReportPath(time.Now())
		}
		rep.AttachMetrics()
		if err := writeReport(rep, path); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem-bench:", err)
			exitCode = 1
		} else {
			fmt.Fprintf(os.Stderr, "report written to %s (%d runs, %d sessions)\n",
				path, len(rep.Runs), len(rep.Sessions))
		}
	}
	if mismatch {
		fmt.Fprintln(os.Stderr, "vacsem-bench: multi-metric session values differ from their standalone runs")
		exitCode = 1
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
// and gate on changed counts and lost runs.
func runDiff(args []string) int {
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
	d := bench.Diff(oldRep, newRep)
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
