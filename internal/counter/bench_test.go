package counter

// Ablation benches for the counter's search knobs (component cache,
// implicit BCP, clause learning), which only counter.Config carries.
// Each bench counts the deviation bits of a small adder miter the way
// the verification path does: synthesize the miter, cut and synthesize
// each output's cone, encode it, and count it with the simulation hook
// on. Only the counting is timed.

import (
	"context"
	"fmt"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/synth"
)

// miterFormulas builds the miter of exact and approx and encodes one
// formula per output.
func miterFormulas(b testing.TB, build func(exact, approx *circuit.Circuit) (*circuit.Circuit, error), exact, approx *circuit.Circuit) []*cnf.Formula {
	b.Helper()
	m, err := build(exact, approx)
	if err != nil {
		b.Fatal(err)
	}
	m = synth.Compress(m)
	fs := make([]*cnf.Formula, m.NumOutputs())
	for j := range fs {
		sub, _ := m.ExtractCone(j)
		if fs[j], err = cnf.Encode(synth.Compress(sub)); err != nil {
			b.Fatal(err)
		}
	}
	return fs
}

// benchCount counts every formula once per iteration. Unless caching is
// disabled, the formulas of one iteration share a component cache, as
// the tasks of one verification session do.
func benchCount(b *testing.B, fs []*cnf.Formula, cfg Config) {
	cfg.EnableSim = true
	for i := 0; i < b.N; i++ {
		if !cfg.DisableCache {
			cfg.Cache = NewCache(0, 0)
		}
		for j, f := range fs {
			cfg.CacheOwner = int32(j) + 1
			if _, err := New(f, cfg).Count(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationCache compares component caching on/off. The
// workload is deliberately small: without the cache, adder miters blow
// up exponentially (that is the point of the ablation).
func BenchmarkAblationCache(b *testing.B) {
	fs := miterFormulas(b, miter.ER, gen.RippleCarryAdder(10), als.LowerORAdder(10, 3))
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("disableCache=%v", disable), func(b *testing.B) {
			benchCount(b, fs, Config{DisableCache: disable})
		})
	}
}

// BenchmarkAblationEngine toggles the search-engine features (implicit
// BCP, clause learning) on the adder-MED workload where they matter.
func BenchmarkAblationEngine(b *testing.B) {
	fs := miterFormulas(b, miter.MED, gen.RippleCarryAdder(12), als.LowerORAdder(12, 4))
	cases := []struct {
		name string
		cfg  Config
	}{
		{"full", Config{}},
		{"noIBCP", Config{DisableIBCP: true}},
		{"noLearning", Config{DisableLearning: true}},
		{"noIBCPnoLearning", Config{DisableIBCP: true, DisableLearning: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			benchCount(b, fs, c.cfg)
		})
	}
}
