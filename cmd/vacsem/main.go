// Command vacsem verifies average-error metrics of an approximate
// circuit against an exact circuit. Circuits are read from BLIF (.blif)
// or ASCII AIGER (.aag) files; the format is chosen by extension.
//
// Usage:
//
//	vacsem -metric er  -exact adder.blif -approx adder_apx.blif
//	vacsem -metric med -exact m.aag -approx m_apx.aag -method dpll
//	vacsem -metric thr -threshold 8 -exact a.blif -approx b.blif
//	vacsem -metrics er,med,mhd -exact adder.blif -approx adder_apx.blif
//	vacsem -metric med -exact m.aag -approx m_apx.aag -workers 8 -progress
//	vacsem -metric er -exact a.blif -approx b.blif -trace run.jsonl -obs-metrics table
//
// Methods: vacsem (simulation-enhanced counting, default), dpll (the
// counter without simulation), enum (exhaustive simulation), bdd (the
// prior-art decision-diagram flow), approx ((ε, δ) estimation by XOR
// streamlining).
//
// The approx backend reports value ± ε at confidence 1-δ: -epsilon and
// -delta tune the guarantee (defaults 0.8 / 0.2) and -count-seed makes
// the XOR sampling reproducible:
//
//	vacsem -method approx -epsilon 0.1 -delta 0.05 -count-seed 7 \
//	    -metric er -exact adder.blif -approx adder_apx.blif
//
// -metrics verifies several metrics in one session: the shared base
// miter is built and synthesized once, structurally identical counting
// tasks are deduplicated across metrics, and each reported value is
// bit-identical to the corresponding single-metric run.
//
// Sub-miters are solved concurrently (-workers, default one per CPU);
// results are bit-identical to the sequential run. -progress streams
// one line per completed sub-miter. Ctrl-C cancels the verification
// cooperatively: the solvers notice within one poll interval.
//
// Observability: -trace FILE streams the span/event JSONL described in
// internal/obs; -obs-metrics table|json dumps the metrics registry
// after the run; -introspect ADDR serves the live introspection server
// (/metrics Prometheus exposition, /debug/vacsem/progress event stream,
// live /debug/pprof profiles); -cpuprofile and -memprofile write pprof
// files. None of these change the verified counts.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/big"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	"vacsem/internal/blif"

	"vacsem/internal/aiger"
	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/obs"
	"vacsem/internal/obs/expo"
)

func main() {
	os.Exit(run())
}

// run carries the whole CLI so that observability teardown (trace
// flush, profile writes) happens on every exit path; os.Exit only ever
// runs after the deferred stop, and a teardown error turns a zero exit
// code into 1.
func run() (exitCode int) {
	var (
		metric      = flag.String("metric", "er", "metric: er, med, mhd or thr")
		metricList  = flag.String("metrics", "", "comma-separated metrics verified in one deduplicated session (e.g. er,med,mhd); overrides -metric")
		exactPath   = flag.String("exact", "", "exact circuit file (.blif or .aag)")
		apxPath     = flag.String("approx", "", "approximate circuit file (.blif or .aag)")
		method      = flag.String("method", "vacsem", "engine: vacsem, dpll, enum, bdd or approx")
		epsilon     = flag.Float64("epsilon", 0, "approx backend: multiplicative tolerance ε (0 = default 0.8)")
		delta       = flag.Float64("delta", 0, "approx backend: failure probability δ (0 = default 0.2)")
		countSeed   = flag.Int64("count-seed", 0, "seed for the approx backend's XOR sampling (reproducible runs)")
		threshold   = flag.String("threshold", "0", "deviation threshold for -metric thr")
		timeLimit   = flag.Duration("timelimit", 0, "abort after this duration (0 = none)")
		noSynth     = flag.Bool("nosynth", false, "skip the synthesis (compress) step")
		sharedCache = flag.Bool("shared-cache", true, "share one component-count cache across all sub-miter solvers (counts are identical either way)")
		alpha       = flag.Float64("alpha", 0, "density-score scaling factor (default 2)")
		workers     = flag.Int("workers", 0, "concurrent sub-miter solvers (0 = one per CPU)")
		simWorkers  = flag.Int("sim-workers", 0, "goroutines for exhaustive simulation block enumeration (0 = one per CPU; counts are bit-identical at any setting)")
		progress    = flag.Bool("progress", false, "stream per-sub-miter completion events")
		verbose     = flag.Bool("v", false, "print per-output-bit details")
		tracePath   = flag.String("trace", "", "write span/event trace (JSON lines) to this file")
		metricsFmt  = flag.String("obs-metrics", "", "print end-of-run metrics registry: table or json")
		introspect  = flag.String("introspect", "", "serve the live introspection server on this address: /metrics, /debug/vacsem/progress, /debug/pprof")
		cpuProfile  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
	)
	flag.Parse()
	if *exactPath == "" || *apxPath == "" {
		fmt.Fprintln(os.Stderr, "vacsem: -exact and -approx are required")
		flag.Usage()
		return 2
	}

	stop, err := expo.Setup(expo.CLIConfig{
		TracePath:      *tracePath,
		CPUProfile:     *cpuProfile,
		MemProfile:     *memProfile,
		IntrospectAddr: *introspect,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "vacsem:", err)
		return 1
	}
	defer func() {
		if err := stop(); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem:", err)
			if exitCode == 0 {
				exitCode = 1
			}
		}
	}()

	if err := verify(*metric, *metricList, *exactPath, *apxPath, *method, *threshold, core.Options{
		TimeLimit:          *timeLimit,
		NoSynth:            *noSynth,
		Alpha:              *alpha,
		Workers:            *workers,
		SimWorkers:         *simWorkers,
		DisableSharedCache: !*sharedCache,
		Epsilon:            *epsilon,
		Delta:              *delta,
		Seed:               *countSeed,
	}, *progress, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "vacsem:", err)
		exitCode = 1
	}

	if *metricsFmt != "" {
		if err := obs.WriteMetrics(os.Stdout, *metricsFmt); err != nil {
			fmt.Fprintln(os.Stderr, "vacsem:", err)
			if exitCode == 0 {
				exitCode = 2
			}
		}
	}
	return exitCode
}

func verify(metric, metricList, exactPath, apxPath, method, threshold string, opt core.Options, progress, verbose bool) error {
	exact, err := load(exactPath)
	if err != nil {
		return err
	}
	approx, err := load(apxPath)
	if err != nil {
		return err
	}
	opt.Method, err = core.MethodByName(method)
	if err != nil {
		return err
	}
	if progress {
		opt.Progress = func(ev core.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "[%d/%d] %s %-8s count=%s  %v (dec=%d sim=%d)\n",
				ev.Done, ev.Total, ev.Metric, ev.Output, ev.Count,
				ev.Runtime.Round(time.Microsecond),
				ev.Stats.Decisions, ev.Stats.SimCalls)
		}
	}

	// Ctrl-C cancels cooperatively: the context reaches the solvers'
	// inner loops through the engine layer.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if metricList != "" {
		return verifySession(ctx, metricList, threshold, exact, approx, opt, verbose)
	}

	spec, err := metricSpec(metric, threshold)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := core.Verify(ctx, exact, approx, spec, opt)
	if err != nil {
		return err
	}

	fmt.Printf("metric     : %s\n", res.Metric)
	fmt.Printf("method     : %v\n", res.Method)
	fmt.Printf("exact      : %s (%d PI, %d PO)\n", exact.Name, exact.NumInputs(), exact.NumOutputs())
	fmt.Printf("approx     : %s\n", approx.Name)
	fmt.Printf("value      : %s\n", res.Value.RatString())
	fmt.Printf("value~     : %.6g\n", res.Float())
	if res.Approx {
		fmt.Printf("guarantee  : %s\n", approxLine(res))
	}
	fmt.Printf("count      : %s / 2^%d patterns\n", res.Count.String(), res.NumInputs)
	fmt.Printf("runtime    : %v (wall %v)\n", res.Runtime, time.Since(start))
	fmt.Printf("stats      : %s\n", statsLine(res.TotalStats))
	if verbose {
		printSubs(res.Subs)
	}
	return nil
}

// verifySession handles -metrics: every requested metric verified in one
// shared-base, task-deduplicated session.
func verifySession(ctx context.Context, metricList, threshold string, exact, approx *circuit.Circuit, opt core.Options, verbose bool) error {
	var specs []core.MetricSpec
	for _, name := range strings.Split(metricList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := metricSpec(name, threshold)
		if err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("empty -metrics list %q", metricList)
	}

	start := time.Now()
	sess, err := core.VerifyMetrics(ctx, exact, approx, specs, opt)
	if err != nil {
		return err
	}

	fmt.Printf("method     : %v\n", sess.Method)
	fmt.Printf("exact      : %s (%d PI, %d PO)\n", exact.Name, exact.NumInputs(), exact.NumOutputs())
	fmt.Printf("approx     : %s\n", approx.Name)
	fmt.Printf("tasks      : %d requested, %d solved, %d deduplicated\n",
		sess.TasksRequested, sess.TasksUnique, sess.TasksDeduped)
	fmt.Printf("base nodes : %d -> %d (one shared synthesis pass)\n",
		sess.BaseNodesBefore, sess.BaseNodesAfter)
	fmt.Printf("runtime    : %v (wall %v)\n", sess.Runtime, time.Since(start))
	fmt.Printf("stats      : %s\n", statsLine(sess.TotalStats))
	for _, res := range sess.Results {
		fmt.Printf("\nmetric     : %s\n", res.Metric)
		fmt.Printf("value      : %s\n", res.Value.RatString())
		fmt.Printf("value~     : %.6g\n", res.Float())
		if res.Approx {
			fmt.Printf("guarantee  : %s\n", approxLine(res))
		}
		fmt.Printf("count      : %s / 2^%d patterns\n", res.Count.String(), res.NumInputs)
		if verbose {
			printSubs(res.Subs)
		}
	}
	return nil
}

// metricSpec resolves a -metric or -metrics name, parsing -threshold
// for "thr".
func metricSpec(name, threshold string) (core.MetricSpec, error) {
	var t *big.Int
	if name == "thr" {
		var ok bool
		t, ok = new(big.Int).SetString(threshold, 10)
		if !ok || t.Sign() < 0 {
			return core.MetricSpec{}, fmt.Errorf("bad -threshold %q", threshold)
		}
	}
	return core.MetricSpecByName(name, t)
}

// approxLine renders the (ε, δ) guarantee row of an estimated result:
// the true value lies within a (1+ε) factor of the reported one with
// the stated confidence.
func approxLine(res *core.Result) string {
	line := fmt.Sprintf("value ± ε (ε=%g) @ confidence %.4g (δ=%.4g)",
		res.Epsilon, res.Confidence, res.Delta)
	if res.BestEffort {
		line += "  [best effort: time limit cut the round schedule; δ widened]"
	}
	return line
}

func statsLine(s counter.Stats) string {
	return fmt.Sprintf("dec=%d prop=%d comp=%d cache=%d/%d (cross=%d evict=%d) sim=%d simpat=%d",
		s.Decisions, s.Propagations, s.Components, s.CacheHits, s.CacheStores,
		s.CacheCrossHits, s.CacheEvictions, s.SimCalls, s.SimPatterns)
}

func printSubs(subs []core.SubResult) {
	for _, sub := range subs {
		shared := ""
		if sub.Shared {
			shared = "  (shared task)"
		}
		if sub.Approx {
			shared += fmt.Sprintf("  (approx ε=%g δ=%g support %d->%d density %.3g)",
				sub.Epsilon, sub.Delta, sub.SupportBefore, sub.SupportAfter, sub.HashDensity)
			if sub.BestEffort {
				shared += "  (best effort)"
			}
		}
		fmt.Printf("  %-8s count=%-14s weight=%-10s nodes %d->%d  %v  (dec=%d sim=%d cache=%d)%s\n",
			sub.Output, sub.Count, sub.Weight, sub.NodesBefore, sub.NodesAfter,
			sub.Runtime.Round(time.Microsecond),
			sub.Stats.Decisions, sub.Stats.SimCalls, sub.Stats.CacheHits, shared)
	}
}

func load(path string) (*circuit.Circuit, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch strings.ToLower(filepath.Ext(path)) {
	case ".aag", ".aig":
		return aiger.Parse(f)
	default:
		return blif.Parse(f)
	}
}
