package sim

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// countOnes is the serial exhaustive count of every output of c.
func countOnes(t *testing.T, c *circuit.Circuit) []uint64 {
	t.Helper()
	counts, err := CompileOutputs(c).CountOnes(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return counts
}

func TestInputWordBasePatterns(t *testing.T) {
	// Bit p of inputWord(i, 0) must equal bit i of pattern index p.
	for i := 0; i < 6; i++ {
		w := inputWord(i, 0)
		for p := uint(0); p < 64; p++ {
			want := p>>uint(i)&1 == 1
			if (w>>p&1 == 1) != want {
				t.Fatalf("inputWord(%d,0) bit %d wrong", i, p)
			}
		}
	}
	// Inputs >= 6 select on the block index.
	if inputWord(6, 0) != 0 || inputWord(6, 1) != ^uint64(0) {
		t.Error("InputWord block selection wrong")
	}
	if inputWord(8, 3) != 0 || inputWord(8, 4) != ^uint64(0) {
		t.Error("InputWord high-bit selection wrong")
	}
}

func TestBlockMask(t *testing.T) {
	cases := []struct {
		block, total, want uint64
	}{
		{0, 64, ^uint64(0)},
		{0, 5, 31},
		{1, 100, (1 << 36) - 1},
	}
	for _, c := range cases {
		if got := blockMask(c.block, c.total); got != c.want {
			t.Errorf("blockMask(%d, %d) = %#x, want %#x", c.block, c.total, got, c.want)
		}
	}
}

// TestExhaustiveCountsMatchBrute is the simulator's core property: word-
// parallel exhaustive counts equal per-pattern brute-force counts on
// random circuits.
func TestExhaustiveCountsMatchBrute(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		nIn := 1 + int(seed%9)
		c := testutil.RandomCircuit(nIn, 4+int(seed*5%30), 3, seed)
		want := testutil.CountOnesBrute(c)
		got := countOnes(t, c)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("seed %d out %d: %d != %d", seed, j, got[j], want[j])
			}
		}
	}
}

func TestCountOnesExhaustiveSingle(t *testing.T) {
	c := circuit.New("and")
	a := c.AddInput("a")
	b := c.AddInput("b")
	c.AddOutput(c.AddGate(circuit.And, a, b), "y")
	if n := countOnes(t, c)[0]; n != 1 {
		t.Errorf("count = %d, want 1", n)
	}
}

func TestCountOnesZeroInputCircuit(t *testing.T) {
	c := circuit.New("const")
	c.AddOutput(c.Const1(), "y")
	if n := countOnes(t, c)[0]; n != 1 {
		t.Errorf("const1 with no inputs: count = %d, want 1", n)
	}
}

func TestEngineRunMatchesEval(t *testing.T) {
	c := testutil.RandomCircuit(7, 25, 4, 11)
	e := NewEngine(c)
	rng := rand.New(rand.NewSource(5))
	in := make([]uint64, 7)
	for i := range in {
		in[i] = rng.Uint64()
	}
	e.Run(in)
	for bit := 0; bit < 64; bit += 5 {
		args := make([]bool, 7)
		for i := range args {
			args[i] = in[i]>>uint(bit)&1 == 1
		}
		out := c.Eval(args)
		for j := range out {
			if (e.Out(j)>>uint(bit)&1 == 1) != out[j] {
				t.Fatalf("bit %d output %d mismatch", bit, j)
			}
		}
	}
}

// TestCompileOutputsAndRunAllNodes: the output words of the output-cone
// tape over precomputed vectors equal the output nodes' signatures, and
// the input signatures echo the vectors.
func TestCompileOutputsAndRunAllNodes(t *testing.T) {
	c := testutil.RandomCircuit(6, 20, 2, 3)
	rng := rand.New(rand.NewSource(9))
	const words = 8
	vectors := RandomVectors(6, words, rng)
	sigs := RunAllNodes(c, vectors, words)
	p := CompileOutputs(c)
	p.runVectors(vectors, words, func(v []uint64, w0, n int) {
		for j, o := range p.outputs {
			for w := 0; w < n; w++ {
				if v[o+int32(w)] != sigs[c.Outputs[j]][w0+w] {
					t.Fatalf("CompileOutputs and RunAllNodes disagree at out %d word %d", j, w0+w)
				}
			}
		}
	})
	// Input signatures must echo the vectors.
	for i, id := range c.Inputs {
		for w := 0; w < words; w++ {
			if sigs[id][w] != vectors[i][w] {
				t.Fatalf("input %d signature differs from vector", i)
			}
		}
	}
}

// Property: counting ones of an OR over independent inputs obeys
// inclusion-exclusion (spot sanity via quick).
func TestOrCountProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := 1 + int(nRaw%8)
		c := circuit.New("or")
		cur := c.AddInput("")
		for i := 1; i < n; i++ {
			cur = c.AddGate(circuit.Or, cur, c.AddInput(""))
		}
		c.AddOutput(cur, "y")
		want := uint64(1)<<uint(n) - 1 // all patterns except all-zero
		return countOnes(t, c)[0] == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
