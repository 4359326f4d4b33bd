package sim

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"runtime"
	"testing"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// TestProgramMatchesEngineAllNodes is the tape's core property: compiled
// evaluation produces the same word as the reference interpreter for
// every node of random circuits, on every word of a multi-batch run
// (including the partial final batch).
func TestProgramMatchesEngineAllNodes(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		nIn := 1 + int(seed%10)
		c := testutil.RandomCircuit(nIn, 5+int(seed*7%40), 2+int(seed%3), seed)
		rng := rand.New(rand.NewSource(seed + 1000))
		words := 1 + int(seed%(2*BatchWords+3)) // exercises full and partial batches
		vectors := RandomVectors(nIn, words, rng)

		sigs := RunAllNodes(c, vectors, words)
		e := NewEngine(c)
		in := make([]uint64, nIn)
		for w := 0; w < words; w++ {
			for i := range in {
				in[i] = vectors[i][w]
			}
			e.Run(in)
			for id := range c.Nodes {
				if sigs[id][w] != e.Val(id) {
					t.Fatalf("seed %d: node %d word %d: tape %#x, interpreter %#x",
						seed, id, w, sigs[id][w], e.Val(id))
				}
			}
		}
	}
}

// TestRunAllNodesMatchesInterpreter: every node's signature, read out of
// the fused tape through its literal, equals the interpreter's word on a
// circuit built to reach each literal case — Buf/Not chains (complement
// edges over complement edges, an output on a complemented edge), Mux
// and Maj gates with negated operands (folded into the output edge, or
// materialized), the constants, a gate no output reaches, an input only
// that gate reads and an input nothing reads — over word counts that
// are not multiples of BatchWords.
func TestRunAllNodesMatchesInterpreter(t *testing.T) {
	c := circuit.New("lits")
	a, b, s := c.AddInput("a"), c.AddInput("b"), c.AddInput("s")
	u := c.AddInput("u")
	c.AddInput("unused")
	na := c.AddGate(circuit.Not, a)
	nna := c.AddGate(circuit.Buf, c.AddGate(circuit.Not, c.AddGate(circuit.Buf, na)))
	nb, ns := c.AddGate(circuit.Not, b), c.AddGate(circuit.Not, s)
	one := c.Const1()
	muxFolded := c.AddGate(circuit.Mux, ns, na, nb)
	muxMat := c.AddGate(circuit.Mux, s, na, b)
	majFolded := c.AddGate(circuit.Maj, na, nb, ns)
	majMat := c.AddGate(circuit.Maj, nna, nb, one)
	x := c.AddGate(circuit.Xnor, muxFolded, majFolded)
	y := c.AddGate(circuit.Nand, muxMat, c.AddGate(circuit.Not, majMat))
	c.AddGate(circuit.Or, c.AddGate(circuit.Not, u), x) // dead
	c.SetOutputs(x, y, c.AddGate(circuit.Not, y), nna, 0)

	rng := rand.New(rand.NewSource(3))
	for _, words := range []int{1, 3, BatchWords + 5, 2*BatchWords + 1} {
		vectors := RandomVectors(len(c.Inputs), words, rng)
		sigs := RunAllNodes(c, vectors, words)
		e := NewEngine(c)
		in := make([]uint64, len(c.Inputs))
		for w := 0; w < words; w++ {
			for i := range in {
				in[i] = vectors[i][w]
			}
			e.Run(in)
			for id := range c.Nodes {
				if sigs[id][w] != e.Val(id) {
					t.Fatalf("words %d: node %d (%v) word %d: tape %#x, interpreter %#x",
						words, id, c.Nodes[id].Kind, w, sigs[id][w], e.Val(id))
				}
			}
		}
	}
}

// TestParallelCountsBitIdentical pins the merge determinism claim:
// per-output exhaustive counts are the same for 1, 2, and GOMAXPROCS
// workers (uint64 addition is associative and commutative, so chunk
// order cannot matter). Run under -race this also exercises the worker
// pool for data races even on a single-CPU machine.
func TestParallelCountsBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		nIn := 14 + int(seed%4) // 2^14..2^17 patterns: hundreds of batches
		c := testutil.RandomCircuit(nIn, 60+int(seed*11%80), 3, seed)
		p := CompileOutputs(c)
		serial, err := p.CountOnes(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8, runtime.GOMAXPROCS(0), 0} {
			got, err := p.CountOnes(context.Background(), workers)
			if err != nil {
				t.Fatal(err)
			}
			for j := range serial {
				if got[j] != serial[j] {
					t.Fatalf("seed %d workers %d output %d: %d != serial %d",
						seed, workers, j, got[j], serial[j])
				}
			}
		}
	}
}

// TestParallelCountsMatchBrute cross-checks the parallel kernel against
// per-pattern brute force, closing the loop from tape + merge all the
// way to ground truth.
func TestParallelCountsMatchBrute(t *testing.T) {
	c := testutil.RandomCircuit(13, 70, 3, 42)
	want := testutil.CountOnesBrute(c)
	got, err := CompileOutputs(c).CountOnes(context.Background(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("output %d: %d, want %d", j, got[j], want[j])
		}
	}
}

// TestKernelPanicReachesCaller: a kernel panic on a parallel worker
// goroutine (here: a tape operand corrupted to index past the value
// array) is re-raised on CountOnes' own goroutine, where the caller can
// recover it, instead of killing the process.
func TestKernelPanicReachesCaller(t *testing.T) {
	p := CompileOutputs(testutil.RandomCircuit(14, 60, 3, 7))
	p.ins[0].a = 1 << 30
	defer func() {
		if recover() == nil {
			t.Error("CountOnes returned normally; want the worker panic re-raised")
		}
	}()
	p.CountOnes(context.Background(), 2)
}

// TestCompileComponentCounts checks the component program's consistency
// accumulator against brute-force enumeration: free inputs enumerate,
// pinned inputs hold constants, and checking gates constrain the
// surviving patterns.
func TestCompileComponentCounts(t *testing.T) {
	// y0 = (a & b) ^ p, y1 = ~(b | p) with p pinned; check y0 == 1.
	c := circuit.New("comp")
	a := c.AddInput("a")
	b := c.AddInput("b")
	p := c.AddInput("p")
	g1 := c.AddGate(circuit.And, a, b)
	g2 := c.AddGate(circuit.Xor, g1, p)
	g3 := c.AddGate(circuit.Nor, b, p)
	c.AddOutput(g2, "y0")
	c.AddOutput(g3, "y1")

	for _, pinVal := range []bool{false, true} {
		gates := []int32{int32(g1), int32(g2), int32(g3)}
		free := []int32{int32(a), int32(b)}
		pinned := []PinnedInput{{Node: int32(p), Val: pinVal}}
		check := func(g int32) int8 {
			if g == int32(g2) {
				return 1 // require y0 == 1
			}
			if g == int32(g3) {
				return -1 // require y1 == 0
			}
			return 0
		}
		prog, err := CompileComponent(c, gates, free, pinned, check)
		if err != nil {
			t.Fatal(err)
		}
		// Accumulator reset, three gates (the pinned input folds into an
		// edge), two checks.
		if prog.Len() != 6 {
			t.Errorf("pin=%v: tape length %d, want 6", pinVal, prog.Len())
		}
		counts, err := prog.CountOnes(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		// Brute force over (a, b).
		want := uint64(0)
		for pat := 0; pat < 4; pat++ {
			av, bv := pat&1 == 1, pat&2 == 2
			y0 := (av && bv) != pinVal
			y1 := !(bv || pinVal)
			if y0 && !y1 {
				want++
			}
		}
		if counts[0] != want {
			t.Errorf("pin=%v: count = %d, want %d", pinVal, counts[0], want)
		}
	}
}

// TestComponentProgramNoChecksCountsAll compiles every gate of a random
// circuit as a component with no checks and no pins: the accumulator
// stays all-ones, so the count must be exactly 2^K.
func TestComponentProgramNoChecksCountsAll(t *testing.T) {
	c := testutil.RandomCircuit(9, 40, 2, 7)
	var gates []int32
	for id := 1; id < len(c.Nodes); id++ {
		if c.Nodes[id].Kind.IsGate() {
			gates = append(gates, int32(id))
		}
	}
	free := make([]int32, len(c.Inputs))
	for i, id := range c.Inputs {
		free[i] = int32(id)
	}
	prog, err := CompileComponent(c, gates, free, nil, func(int32) int8 { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	counts, err := prog.CountOnes(context.Background(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(1) << 9; counts[0] != want {
		t.Errorf("count = %d, want %d", counts[0], want)
	}
}

// TestRunHelpersCancel pins that the exhaustive count honors an
// already-cancelled context.
func TestRunHelpersCancel(t *testing.T) {
	c := testutil.RandomCircuit(8, 30, 2, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompileOutputs(c).CountOnes(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Errorf("CountOnes err = %v, want Canceled", err)
	}
}

// TestFusedMatchesIdentityTape pins the fused compiler's core property:
// CompileOutputs (complement edges, fused opcodes, dead-gate drop,
// compacted slots) counts exactly what the reference interpreter's
// node-by-node walk counts, over random circuits spanning the
// single-block, small-batch (2 and 4 block) and multi-batch enumeration
// paths, and its tape never holds more instructions than the circuit
// has gates.
func TestFusedMatchesIdentityTape(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		nIn := 1 + int(seed%16) // 2^1 .. 2^16 patterns
		c := testutil.RandomCircuit(nIn, 5+int(seed*9%120), 1+int(seed%4), seed)
		want := interpCountOnes(c)
		fused := CompileOutputs(c)
		if gates := len(c.Nodes) - len(c.Inputs) - 1; fused.Len() > gates {
			t.Errorf("seed %d: fused tape longer than the circuit's %d gates (%d)", seed, gates, fused.Len())
		}
		got, err := fused.CountOnes(context.Background(), 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("seed %d output %d: fused %d, interpreter %d", seed, j, got[j], want[j])
			}
		}
	}
}

// TestCountOnesCancelNoMetricLeak cancels an enumeration and asserts
// the kernel's success metrics (patterns, blocks, seconds — the
// aggregates feeding /metrics and bench reports) do not advance: a
// cancelled run must not leak a partial count into any derived
// throughput.
func TestCountOnesCancelNoMetricLeak(t *testing.T) {
	c := testutil.RandomCircuit(28, 600, 2, 5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	beforeKP, beforeKB := mKernelPatterns.Value(), mKernelBlocks.Value()
	beforeKS := hKernelSeconds.Count()
	if _, err := CompileOutputs(c).CountOnes(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if v := mKernelPatterns.Value(); v != beforeKP {
		t.Errorf("sim.kernel_patterns advanced by %d on a cancelled run", v-beforeKP)
	}
	if v := mKernelBlocks.Value(); v != beforeKB {
		t.Errorf("sim.kernel_blocks advanced by %d on a cancelled run", v-beforeKB)
	}
	if v := hKernelSeconds.Count(); v != beforeKS {
		t.Errorf("sim.kernel_seconds observed %d samples on a cancelled run", v-beforeKS)
	}
}

// TestParallelScalingSmoke measures parallel/serial throughput on the
// scaled bench miter and warns (soft gate, mirroring the bench -diff
// gate in scripts/check.sh) when 4 workers deliver under 2x serial.
// Machines without at least 4 CPUs cannot exhibit the speedup at all,
// so the smoke skips there; set VACSEM_SCALING_HARD=1 to turn the
// warning into a failure on dedicated hardware.
func TestParallelScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke needs a multi-hundred-millisecond miter; skipped in -short")
	}
	if n := runtime.GOMAXPROCS(0); n < 4 {
		t.Skipf("scaling smoke needs >= 4 CPUs, have GOMAXPROCS=%d", n)
	}
	c := testutil.RandomCircuit(26, 300, 4, 123) // benchCircuitLarge
	p := CompileOutputs(c)
	measure := func(workers int) (float64, []uint64) {
		start := time.Now()
		counts, err := p.CountOnes(context.Background(), workers)
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start).Seconds(), counts
	}
	measure(4) // warm-up: page in the tape and scratch arrays
	serialSec, serialCounts := measure(1)
	parSec, parCounts := measure(4)
	for j := range serialCounts {
		if parCounts[j] != serialCounts[j] {
			t.Fatalf("output %d: parallel count %d != serial %d", j, parCounts[j], serialCounts[j])
		}
	}
	ratio := serialSec / parSec
	t.Logf("scaling smoke: serial %.3fs, 4 workers %.3fs, speedup %.2fx", serialSec, parSec, ratio)
	if ratio < 2 {
		msg := "SCALING WARNING: parallel CountOnes speedup " +
			"below 2x at 4 workers — kernel scaling regression?"
		if os.Getenv("VACSEM_SCALING_HARD") == "1" {
			t.Errorf("%s (%.2fx)", msg, ratio)
		} else {
			t.Logf("%s (%.2fx)", msg, ratio)
		}
	}
}
