package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/big"
	"os"
	"time"

	"vacsem"
)

// defaultSeed is the seed golden.json covers.
const defaultSeed = 1

// counts maps a metric name ("er", "med") to its weighted pattern count,
// the numerator of the metric value over 2^inputs.
type counts map[string]*big.Int

// goldenFile is golden.json: reference counts keyed by pair fingerprint.
type goldenFile struct {
	Note  string                 `json:"note"`
	Pairs map[string]goldenEntry `json:"pairs"`
}

type goldenEntry struct {
	Pair   string            `json:"pair"`
	Counts map[string]string `json:"counts"`
}

var errDrift = errors.New("workload drift")

func loadGolden(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden values: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &g, nil
}

// goldenRefs returns the reference counts of every pair. A pair the file
// does not hold means the generators changed: a drift error, fixed by
// -regen-golden once the change is intended.
func (g *goldenFile) refs(pairs []*pair) (map[string]counts, error) {
	out := make(map[string]counts, len(pairs))
	for _, p := range pairs {
		e, ok := g.Pairs[p.FP]
		if !ok {
			return nil, fmt.Errorf("%w: pair %s (fingerprint %s) is not in golden.json; run -regen-golden if the inputs changed on purpose", errDrift, p.Name, p.FP)
		}
		c := make(counts, len(e.Counts))
		for m, s := range e.Counts {
			v, ok := new(big.Int).SetString(s, 10)
			if !ok {
				return nil, fmt.Errorf("golden.json: pair %s: bad %s count %q", p.Name, m, s)
			}
			c[m] = v
		}
		out[p.FP] = c
	}
	return out, nil
}

// verifyCounts runs one exact session and returns its counts by metric.
func verifyCounts(method vacsem.Method, p *pair, metrics []string) (counts, error) {
	specs, err := metricSpecs(metrics)
	if err != nil {
		return nil, err
	}
	sr, err := vacsem.VerifyMetrics(context.Background(), p.Exact, p.Approx, specs, vacsem.Options{
		Method: method, Workers: 1, SimWorkers: 1, TimeLimit: 2 * time.Minute,
	})
	if err != nil {
		return nil, fmt.Errorf("%s with %v: %w", p.Name, method, err)
	}
	c := make(counts, len(metrics))
	for i, m := range metrics {
		c[m] = sr.Results[i].Count
	}
	return c, nil
}

// oracleRefs computes reference counts with the workload's independent
// backend (enumeration or BDDs, never the counter under test).
func oracleRefs(w *workload, pairs []*pair) (map[string]counts, error) {
	out := make(map[string]counts, len(pairs))
	for _, p := range pairs {
		c, err := verifyCounts(w.Oracle, p, w.Metrics)
		if err != nil {
			return nil, err
		}
		out[p.FP] = c
	}
	return out, nil
}

// regenGolden rebuilds golden.json from the default seed's inputs (full
// and quick sizes). Every count is computed twice, by the vacsem counter
// and by the workload's oracle, and the two must agree.
func regenGolden(path string) error {
	g := goldenFile{
		Note:  "Reference counts for the default seed, keyed by sha256 of the pair's BLIF texts. Rebuild with -regen-golden.",
		Pairs: make(map[string]goldenEntry),
	}
	for _, w := range workloads {
		for _, quick := range []bool{false, true} {
			in, err := w.build(defaultSeed, quick)
			if err != nil {
				return err
			}
			for _, p := range in.Pairs {
				got, err := verifyCounts(vacsem.MethodVACSEM, p, w.Metrics)
				if err != nil {
					return err
				}
				want, err := verifyCounts(w.Oracle, p, w.Metrics)
				if err != nil {
					return err
				}
				// Workloads may share a pair (at different metrics); one
				// entry holds the union of its counts.
				e, ok := g.Pairs[p.FP]
				if !ok {
					e = goldenEntry{Pair: w.Name + "/" + p.Name, Counts: make(map[string]string)}
				}
				for _, m := range w.Metrics {
					if got[m].Cmp(want[m]) != 0 {
						return fmt.Errorf("%s %s: vacsem counts %v, %v counts %v", p.Name, m, got[m], w.Oracle, want[m])
					}
					e.Counts[m] = got[m].String()
				}
				g.Pairs[p.FP] = e
			}
		}
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// inBand reports whether an approx estimate lies within the (1+ε) band
// around its exact reference.
func inBand(got, want *big.Int) bool {
	band := new(big.Rat).SetFloat64(1 + approxEpsilon)
	g := new(big.Rat).SetInt(got)
	w := new(big.Rat).SetInt(want)
	return new(big.Rat).Mul(g, band).Cmp(w) >= 0 && g.Cmp(new(big.Rat).Mul(w, band)) <= 0
}

// outOfBandAlpha is how unlikely the number of out-of-band estimates must
// be under the backend's guarantee before they count as failures. An
// estimate may miss its band with probability up to δ, so any single miss
// is within the guarantee; at this level a backend that keeps it fails at
// most one run in ten thousand, however many estimates the host got
// through.
const outOfBandAlpha = 1e-4

// binomialTail is P[X >= k] for X ~ Binomial(n, p).
func binomialTail(n, k int, p float64) float64 {
	sum := 0.0
	lc, _ := math.Lgamma(float64(n + 1))
	for i := k; i <= n; i++ {
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lc - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

func metricSpecs(names []string) ([]vacsem.MetricSpec, error) {
	specs := make([]vacsem.MetricSpec, len(names))
	for i, n := range names {
		s, err := vacsem.MetricSpecByName(n, nil)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}
