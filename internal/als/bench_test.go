package als

import (
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/gen"
)

// approxSink keeps the benchmarked calls from being optimized away.
var approxSink *circuit.Circuit

// BenchmarkApproximate times Approximate under serve-mixed's
// configuration (TargetER 0.05, RequireError, one to three moves) on two
// of its bases. One op is three runs, seeds 1-3 with MaxMoves equal to
// the seed.
func BenchmarkApproximate(b *testing.B) {
	for _, exact := range []*circuit.Circuit{gen.RippleCarryAdder(10), gen.ArrayMultiplier(6)} {
		b.Run(exact.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for seed := 1; seed <= 3; seed++ {
					approxSink = Approximate(exact, Config{Seed: int64(seed), TargetER: 0.05, MaxMoves: seed, RequireError: true})
				}
			}
		})
	}
}
