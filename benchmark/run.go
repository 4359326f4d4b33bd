package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"syscall"
	"time"

	"vacsem"
)

// op is one verification the benchmark issued and what came back.
type op struct {
	Pair    *pair
	Latency time.Duration
	Counts  counts
	Err     error
	// QueuedMS and RunMS are the server's own accounting of a serve job.
	QueuedMS, RunMS float64
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a run's result, printed as the last line of standard
// output.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds, for an untraced run, each end-to-end metric's
	// per-round samples; it is printed on the line before the result.
	Samples map[string][]float64 `json:"-"`
}

// runConfig is one run of one workload.
type runConfig struct {
	// Spec names the metrics a run reports, with their units.
	Spec     *benchSpec
	Workload *workload
	Seed     int64
	Budget   time.Duration
	Trace    bool
	Quick    bool
	ServeBin string
	// Golden holds the default seed's reference counts.
	Golden    *goldenFile
	SpansPath string
	Log       io.Writer
}

// serveSetups is how many times serve-mixed generates its inputs before
// the first rep; set-up time is the median. The batch workloads generate
// theirs once up front and again after every round, so that their set-up
// median, like the other metrics, samples the host over the whole run.
const serveSetups = 3

// setups times input generation. Every generation after the first must
// reproduce the first one's inputs.
type setups struct {
	rc    runConfig
	in    *inputs
	times []float64
}

func (s *setups) build() error {
	t := time.Now()
	next, err := s.rc.Workload.build(s.rc.Seed, s.rc.Quick)
	if err != nil {
		return err
	}
	s.times = append(s.times, time.Since(t).Seconds())
	if s.in == nil {
		s.in = next
	} else if fingerprint(next) != fingerprint(s.in) {
		return fmt.Errorf("%s: seed %d built different inputs on two set-ups", s.rc.Workload.Name, s.rc.Seed)
	}
	return nil
}

// run builds the workload's inputs, measures it, and checks every value
// it got back against a reference.
func run(rc runConfig) (*outcome, error) {
	w := rc.Workload
	su := &setups{rc: rc}
	n := 1
	if w.Serve && !rc.Trace {
		n = serveSetups
	}
	for i := 0; i < n; i++ {
		if err := su.build(); err != nil {
			return nil, err
		}
	}
	in := su.in
	var refs map[string]counts
	if rc.Seed == defaultSeed {
		var err error
		if refs, err = rc.Golden.refs(in.Pairs); err != nil {
			return nil, err
		}
	}

	res := &outcome{Metrics: make(map[string]metricValue)}
	var ops []op
	identityFailures := 0
	if rc.Trace {
		tr, err := traceRun(rc, in)
		if err != nil {
			return nil, err
		}
		ops, identityFailures = tr.ops, tr.identityFailures
		for _, m := range rc.Spec.PerLayer {
			res.Metrics[m.Name] = metricValue{Value: tr.metrics[m.Name], Unit: m.Unit}
		}
	} else {
		var err error
		var e2e map[string][]float64
		ops, e2e, err = measure(rc, su)
		if err != nil {
			return nil, err
		}
		start := 0.0
		if w.Serve {
			// Set-up on serve-mixed also starts the server.
			start = median(e2e["server_start_s"])
		}
		for _, g := range su.times {
			e2e["setup_s"] = append(e2e["setup_s"], g+start)
		}
		res.Samples = make(map[string][]float64)
		for _, m := range rc.Spec.EndToEnd {
			if len(e2e[m.Name]) == 0 {
				return nil, fmt.Errorf("end-to-end metric %s is not measured", m.Name)
			}
			res.Metrics[m.Name] = metricValue{Value: median(e2e[m.Name]), Unit: m.Unit}
			res.Samples[m.Name] = e2e[m.Name]
		}
		writeTable(rc.Log, w.Name, rc.Spec.EndToEnd, e2e)
	}

	if refs == nil {
		var err error
		if refs, err = oracleRefs(w, in.Pairs); err != nil {
			return nil, err
		}
	}
	res.Attempted = len(ops)
	res.Failed = check(w, ops, refs, rc.Log) + identityFailures
	res.Correct = res.Failed == 0
	return res, nil
}

// fingerprint identifies a workload's inputs.
func fingerprint(in *inputs) string {
	var b strings.Builder
	for _, p := range in.Pairs {
		b.WriteString(p.FP)
	}
	for _, round := range in.Rounds {
		for _, p := range round {
			b.WriteString(p.FP)
		}
	}
	fmt.Fprint(&b, in.Jobs)
	return b.String()
}

// measure runs the untraced end-to-end measurement and returns its ops
// and the samples behind each end-to-end metric. An op is one verified
// pair: a VerifyMetrics session on the batch workloads, one job (submit,
// wait for its terminal event, read its status) on serve-mixed. Every
// round (batch) or rep on a fresh server (serve) gives one sample of
// throughput, of the latency percentiles and of peak memory, so that the
// reported medians are not moved by one disturbed round.
func measure(rc runConfig, su *setups) ([]op, map[string][]float64, error) {
	w, in := rc.Workload, su.in
	samples := make(map[string][]float64)
	add := func(ops []op, wall time.Duration, rssMB float64) {
		var lat []float64
		for _, o := range ops {
			lat = append(lat, float64(o.Latency.Nanoseconds())/1e6)
		}
		sort.Float64s(lat)
		samples["ops_per_s"] = append(samples["ops_per_s"], float64(len(ops))/wall.Seconds())
		samples["op_p50_ms"] = append(samples["op_p50_ms"], percentile(lat, 50))
		samples["op_p90_ms"] = append(samples["op_p90_ms"], percentile(lat, 90))
		samples["peak_rss_mb"] = append(samples["peak_rss_mb"], rssMB)
	}
	var ops []op
	if w.Serve {
		reps, err := runServe(rc.ServeBin, in, rc.Budget)
		if err != nil {
			return nil, nil, err
		}
		for _, rep := range reps {
			add(rep.Ops, rep.Wall, rep.RSSMB)
			samples["server_start_s"] = append(samples["server_start_s"], rep.Start.Seconds())
			ops = append(ops, rep.Ops...)
		}
		return ops, samples, nil
	}
	rounds, err := runBatch(w, in, rc.Seed, rc.Budget, su.build)
	if err != nil {
		return nil, nil, err
	}
	for _, r := range rounds {
		add(r.Ops, r.Wall, r.RSSMB)
		ops = append(ops, r.Ops...)
	}
	return ops, samples, nil
}

// resetPeakRSS restarts the kernel's peak-RSS count of this process, so
// the next selfPeakRSSMB covers only what follows. Where the reset is not
// permitted the count keeps covering the whole process.
func resetPeakRSS() { _ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) }

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// check compares every op's counts with the references and returns the
// number of failed ops: errors, timeouts, non-2xx answers, and counts
// that differ from their reference. An approx estimate outside its (1+ε)
// band is within the backend's guarantee, which allows a miss with
// probability δ; the misses count as failures only when there are more of
// them than that allows (a binomial tail below outOfBandAlpha).
func check(w *workload, ops []op, refs map[string]counts, log io.Writer) int {
	failed, estimates, outOfBand := 0, 0, 0
	report := func(format string, args ...any) {
		failed++
		if failed <= 10 {
			fmt.Fprintf(log, format, args...)
		}
	}
	for _, o := range ops {
		p := o.Pair
		if o.Err != nil {
			report("FAIL %s %s: %v\n", w.Name, p.Name, o.Err)
			continue
		}
		want := refs[p.Ref]
		for _, m := range w.Metrics {
			got, ref := o.Counts[m], want[m]
			if got != nil && ref != nil && w.Method == vacsem.MethodApprox {
				estimates++
				if !inBand(got, ref) {
					outOfBand++
					fmt.Fprintf(log, "OUT OF BAND %s %s %s: estimate %v, reference %v\n", w.Name, p.Name, m, got, ref)
				}
				continue
			}
			if got == nil || ref == nil || got.Cmp(ref) != 0 {
				report("MISMATCH %s %s %s: got %v, reference %v\n", w.Name, p.Name, m, got, ref)
				break
			}
		}
	}
	if outOfBand > 0 {
		chance := binomialTail(estimates, outOfBand, approxDelta)
		fmt.Fprintf(log, "%s: %d of %d estimates outside the (1+ε) band, chance %.3g at δ = %g\n",
			w.Name, outOfBand, estimates, chance, approxDelta)
		if chance < outOfBandAlpha {
			failed += outOfBand
		}
	}
	return failed
}

// writeTable prints every end-to-end metric with the median, quartiles
// and count of its samples.
func writeTable(log io.Writer, workload string, metrics []specMetric, samples map[string][]float64) {
	fmt.Fprintf(log, "%-12s %-12s %-4s %12s %12s %12s %5s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
	for _, m := range metrics {
		s := summarize(samples[m.Name])
		fmt.Fprintf(log, "%-12s %-12s %-4s %12.4f %12.4f %12.4f %5d\n", workload, m.Name, m.Unit, s.Median, s.Q1, s.Q3, s.N)
	}
}
