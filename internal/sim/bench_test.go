package sim

import (
	"context"
	"math/bits"
	"runtime"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// benchCircuit is a fixed 2^20-pattern workload (20 inputs, a few
// hundred gates) shared by every BenchmarkSimKernel variant so the
// reported pattern throughputs compare like for like.
func benchCircuit() *circuit.Circuit {
	return testutil.RandomCircuit(20, 300, 4, 123)
}

// benchCircuitLarge is the scaled workload for parallel-speedup
// measurements: 2^26 patterns over ~300 gates is north of 2^34
// word-level gate evaluations per enumeration, hundreds of milliseconds
// of serial work — enough to amortize worker startup, which the small
// benchCircuit (finishing in single-digit milliseconds) never could.
func benchCircuitLarge() *circuit.Circuit {
	return testutil.RandomCircuit(26, 300, 4, 123)
}

func reportPatterns(b *testing.B, total uint64) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(total)*float64(b.N)/s/1e6, "Mpat/s")
	}
}

// BenchmarkSimKernel compares one full exhaustive enumeration of the
// bench miter across the implementations: the reference interpreter
// (per-gate switch over circuit.Node), the unfused identity-slot tape,
// the fused output-cone tape (the production enumeration path), and the
// fused tape with the block range spread over all CPUs. The miter here
// is deliberately small (milliseconds per enumeration) — parallel rows
// on it mostly measure worker startup; see BenchmarkSimKernelParallel
// for the scaled workload.
func BenchmarkSimKernel(b *testing.B) {
	c := benchCircuit()
	n := len(c.Inputs)
	total := uint64(1) << uint(n)
	blocks := total / 64

	b.Run("interpreter", func(b *testing.B) {
		e := NewEngine(c)
		in := make([]uint64, n)
		counts := make([]uint64, len(c.Outputs))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := range counts {
				counts[j] = 0
			}
			for blk := uint64(0); blk < blocks; blk++ {
				for k := 0; k < n; k++ {
					in[k] = inputWord(k, blk)
				}
				e.Run(in)
				for j := range counts {
					counts[j] += uint64(bits.OnesCount64(e.Out(j)))
				}
			}
		}
		reportPatterns(b, total)
	})

	b.Run("tape", func(b *testing.B) {
		p := Compile(c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.CountOnes(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
		reportPatterns(b, total)
	})

	b.Run("tape-fused", func(b *testing.B) {
		p := CompileOutputs(c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.CountOnes(context.Background(), 1); err != nil {
				b.Fatal(err)
			}
		}
		reportPatterns(b, total)
	})

	b.Run("tape-parallel", func(b *testing.B) {
		p := CompileOutputs(c)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.CountOnes(context.Background(), runtime.GOMAXPROCS(0)); err != nil {
				b.Fatal(err)
			}
		}
		reportPatterns(b, total)
	})
}

// BenchmarkSimKernelParallel measures parallel scaling on the large
// miter at fixed worker counts. Workers beyond GOMAXPROCS cannot help
// (there are no idle CPUs to run them), so rows above the machine's
// core count report the scheduler's behaviour, not speedup.
func BenchmarkSimKernelParallel(b *testing.B) {
	c := benchCircuitLarge()
	total := uint64(1) << uint(len(c.Inputs))
	p := CompileOutputs(c)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "workers-1", 2: "workers-2", 4: "workers-4", 8: "workers-8"}[workers], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.CountOnes(context.Background(), workers); err != nil {
					b.Fatal(err)
				}
			}
			reportPatterns(b, total)
		})
	}
}

// BenchmarkCompile measures the one-time tape lowering cost the kernel
// pays per circuit (it is amortized over the whole enumeration), for
// both the identity-slot and the fused compiler.
func BenchmarkCompile(b *testing.B) {
	c := benchCircuit()
	b.Run("identity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Compile(c)
		}
	})
	b.Run("fused", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CompileOutputs(c)
		}
	})
}
