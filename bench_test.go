package vacsem

// Benchmark harness: one testing.B family per table/figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out (simulation hook, density threshold alpha, shared
// component cache, synthesis step). These use small fixed workloads so
// `go test -bench=.` terminates quickly; the full parameter sweeps live
// in cmd/vacsem-bench. The counter's own search knobs (component cache,
// implicit BCP, clause learning) are ablated in internal/counter.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/synth"
)

// verifyBench runs one verification per iteration.
func verifyBench(b *testing.B, metric core.MetricKind, exact, approx *circuit.Circuit, m core.Method) {
	b.Helper()
	opt := core.Options{Method: m, TimeLimit: 5 * time.Minute}
	spec := core.MetricSpec{Kind: metric}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Verify(context.Background(), exact, approx, spec, opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable3Inventory regenerates the Table III inventory (circuit
// construction + AIG conversion + node counting).
func BenchmarkTable3Inventory(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, bm := range gen.Suite() {
			c := bm.Build()
			aig := synth.ToAIG(c)
			if synth.AndCount(aig) == 0 && bm.Name != "router" {
				b.Fatalf("%s: empty AIG", bm.Name)
			}
		}
	}
}

// BenchmarkTable4 regenerates Table IV rows (ER of adders/multipliers)
// for representative scaled benchmarks and all three methods.
func BenchmarkTable4(b *testing.B) {
	type work struct {
		name   string
		exact  *circuit.Circuit
		approx *circuit.Circuit
	}
	works := []work{
		{"adder16", gen.RippleCarryAdder(16), als.LowerORAdder(16, 4)},
		{"adder32", gen.RippleCarryAdder(32), als.LowerORAdder(32, 4)},
		{"mult6", gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 3)},
		{"mult8", gen.ArrayMultiplier(8), als.TruncatedMultiplier(8, 4)},
	}
	for _, w := range works {
		for _, m := range []core.Method{core.MethodVACSEM, core.MethodDPLL, core.MethodEnum} {
			if m == core.MethodEnum && w.exact.NumInputs() > 24 {
				continue // paper: ">14400 s" for wide adders
			}
			if m == core.MethodDPLL && w.exact.NumInputs() >= 16 && w.name == "mult8" {
				continue // paper: GANAK times out on dense multipliers
			}
			b.Run(fmt.Sprintf("%s/%v", w.name, m), func(b *testing.B) {
				verifyBench(b, core.MetricER, w.exact, w.approx, m)
			})
		}
	}
}

// BenchmarkTable5 regenerates Table V rows (MED of adders/multipliers).
func BenchmarkTable5(b *testing.B) {
	type work struct {
		name   string
		exact  *circuit.Circuit
		approx *circuit.Circuit
	}
	works := []work{
		{"adder8", gen.RippleCarryAdder(8), als.LowerORAdder(8, 3)},
		{"adder16", gen.RippleCarryAdder(16), als.TruncatedAdder(16, 2)},
		{"mult6", gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 3)},
		{"mult8", gen.ArrayMultiplier(8), als.TruncatedMultiplier(8, 4)},
	}
	for _, w := range works {
		for _, m := range []core.Method{core.MethodVACSEM, core.MethodEnum} {
			if m == core.MethodEnum && w.exact.NumInputs() > 24 {
				continue // 2^32 patterns per iteration is the paper's ">14400 s" row
			}
			b.Run(fmt.Sprintf("%s/%v", w.name, m), func(b *testing.B) {
				verifyBench(b, core.MetricMED, w.exact, w.approx, m)
			})
		}
	}
}

// BenchmarkTable6 regenerates Table VI rows (ER of EPFL/BACS circuits,
// VACSEM vs the DPLL baseline).
func BenchmarkTable6(b *testing.B) {
	entries := []struct {
		name  string
		build func() *circuit.Circuit
	}{
		{"ctrl", func() *circuit.Circuit { return gen.ControlLogic("ctrl", 7, 26, 6, 1001) }},
		{"cavlc", func() *circuit.Circuit { return gen.ControlLogic("cavlc", 10, 11, 12, 1002) }},
		{"int2float", func() *circuit.Circuit { return gen.Int2Float(11, 3, 4) }},
		{"absdiff", func() *circuit.Circuit { return gen.AbsDiff(8) }},
		{"mac", func() *circuit.Circuit { return gen.MAC(4) }},
		{"router", func() *circuit.Circuit { return gen.Router(8, true) }},
	}
	for _, e := range entries {
		exact := e.build()
		approx := als.Approximate(exact, als.Config{Seed: 9, TargetER: 0.01, RequireError: true})
		for _, m := range []core.Method{core.MethodVACSEM, core.MethodDPLL} {
			b.Run(fmt.Sprintf("%s/%v", e.name, m), func(b *testing.B) {
				verifyBench(b, core.MetricER, exact, approx, m)
			})
		}
	}
}

// BenchmarkAblationAlpha sweeps the controller's density threshold
// (Eq. 5): alpha=0 behaves like alpha=2 (the default), tiny alpha
// disables simulation in practice, huge alpha forces it.
func BenchmarkAblationAlpha(b *testing.B) {
	// mult6 keeps even the alpha->0 (simulation-starved, DPLL-like)
	// configuration inside a few seconds per iteration.
	exact := gen.ArrayMultiplier(6)
	approx := als.TruncatedMultiplier(6, 3)
	for _, alpha := range []float64{0.01, 0.5, 2, 8, 64} {
		b.Run(fmt.Sprintf("alpha=%g", alpha), func(b *testing.B) {
			opt := core.Options{Method: core.MethodVACSEM, Alpha: alpha, TimeLimit: 5 * time.Minute}
			for i := 0; i < b.N; i++ {
				if _, err := Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricER}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSharedCache compares the run-wide shared component
// cache against private per-sub-miter caches on a multi-output MED
// workload (the sub-miters share most of their logic, which is where
// cross-sub-miter hits come from). Counts are identical either way.
func BenchmarkAblationSharedCache(b *testing.B) {
	exact := gen.RippleCarryAdder(16)
	approx := als.LowerORAdder(16, 5)
	for _, disable := range []bool{false, true} {
		b.Run(fmt.Sprintf("disableSharedCache=%v", disable), func(b *testing.B) {
			opt := core.Options{
				Method: core.MethodVACSEM, DisableSharedCache: disable,
				Workers: 0, TimeLimit: 5 * time.Minute,
			}
			for i := 0; i < b.N; i++ {
				if _, err := Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricMED}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSynth compares with/without the Phase 1 synthesis
// step (the compress2rs role).
func BenchmarkAblationSynth(b *testing.B) {
	exact := gen.ArrayMultiplier(6)
	approx := als.TruncatedMultiplier(6, 3)
	for _, noSynth := range []bool{false, true} {
		b.Run(fmt.Sprintf("noSynth=%v", noSynth), func(b *testing.B) {
			opt := core.Options{Method: core.MethodVACSEM, NoSynth: noSynth, TimeLimit: 5 * time.Minute}
			for i := 0; i < b.N; i++ {
				if _, err := Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricER}, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2Example times the paper's motivating example end to end.
func BenchmarkFig2Example(b *testing.B) {
	c := circuit.New("fig2")
	in := make([]int, 11)
	for i := range in {
		in[i] = c.AddInput(fmt.Sprintf("i%d", i))
	}
	n11 := c.AddGate(circuit.And, in[3], in[4])
	n12 := c.AddGate(circuit.And, in[2], n11)
	n13 := c.AddGate(circuit.And, in[1], n12)
	n14 := c.AddGate(circuit.Or, in[0], n13)
	n15 := c.AddGate(circuit.Xor, in[5], in[6])
	n16 := c.AddGate(circuit.Xor, n15, in[7])
	n17 := c.AddGate(circuit.Xor, n16, in[8])
	n18 := c.AddGate(circuit.Xor, in[9], in[10])
	n19 := c.AddGate(circuit.Xor, n17, n18)
	n20 := c.AddGate(circuit.And, n14, n19)
	c.AddOutput(n20, "n20")
	f, err := cnf.Encode(c)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := counter.New(f, counter.Config{EnableSim: true})
		n, err := s.Count(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if n.Int64() != 544 {
			b.Fatalf("count = %v", n)
		}
	}
}

// BenchmarkCNFEncode measures Phase 1 throughput on a mult12 sub-miter.
func BenchmarkCNFEncode(b *testing.B) {
	exact := gen.ArrayMultiplier(12)
	approx := als.TruncatedMultiplier(12, 6)
	m, err := miter.ER(exact, approx)
	if err != nil {
		b.Fatal(err)
	}
	m = synth.Compress(m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cnf.Encode(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompress measures the synthesis pipeline on a mult10 miter.
func BenchmarkCompress(b *testing.B) {
	exact := gen.ArrayMultiplier(10)
	approx := als.TruncatedMultiplier(10, 5)
	m, err := miter.ER(exact, approx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		synth.Compress(m)
	}
}
