package main

import (
	"context"
	"time"

	"vacsem"
)

// batchTimeLimit bounds one batch session, as in the paper's setup.
const batchTimeLimit = 2 * time.Minute

// batchOptions configures one batch session: single-threaded, like the
// paper's runtime tables.
func batchOptions(w *workload, seed int64, round int) vacsem.Options {
	opt := vacsem.Options{Method: w.Method, Workers: 1, SimWorkers: 1, TimeLimit: batchTimeLimit}
	if w.Method == vacsem.MethodApprox {
		opt.Epsilon, opt.Delta, opt.Seed = approxEpsilon, approxDelta, roundSeed(seed, round)
	}
	return opt
}

// batchRound is one measured round: every pair of the round verified
// once, in order.
type batchRound struct {
	Ops   []op
	Wall  time.Duration
	RSSMB float64
}

// runBatch runs rounds until another round would likely overrun the time
// budget (at least one round runs). A non-nil between runs after every
// round, outside the round's timing.
func runBatch(w *workload, in *inputs, seed int64, budget time.Duration, between func() error) ([]batchRound, error) {
	specs, err := metricSpecs(w.Metrics)
	if err != nil {
		return nil, err
	}
	var rounds []batchRound
	start := time.Now()
	for r := 0; ; r++ {
		opt := batchOptions(w, seed, r)
		resetPeakRSS()
		var br batchRound
		t0 := time.Now()
		for _, p := range in.Rounds[r%len(in.Rounds)] {
			t := time.Now()
			sr, err := vacsem.VerifyMetrics(context.Background(), p.Exact, p.Approx, specs, opt)
			o := op{Pair: p, Latency: time.Since(t), Err: err}
			if err == nil {
				o.Counts = make(counts, len(w.Metrics))
				for j, m := range w.Metrics {
					o.Counts[m] = sr.Results[j].Count
				}
			}
			br.Ops = append(br.Ops, o)
		}
		br.Wall = time.Since(t0)
		br.RSSMB = selfPeakRSSMB()
		rounds = append(rounds, br)
		if between != nil {
			if err := between(); err != nil {
				return nil, err
			}
		}
		if !roomForAnother(start, len(rounds), budget) {
			return rounds, nil
		}
	}
}

// roomForAnother reports whether a further round of average length still
// fits the budget.
func roomForAnother(start time.Time, done int, budget time.Duration) bool {
	elapsed := time.Since(start)
	return elapsed+elapsed/time.Duration(done) <= budget
}
