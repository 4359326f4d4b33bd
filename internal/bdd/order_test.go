package bdd

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

func TestDFSOrderIsAPermutation(t *testing.T) {
	for _, c := range []interface {
		NumInputs() int
	}{} {
		_ = c
	}
	circs := []struct {
		name string
		n    int
		pos  []int
	}{
		{"adder", gen.RippleCarryAdder(6).NumInputs(), DFSOrder(gen.RippleCarryAdder(6))},
		{"mult", gen.ArrayMultiplier(4).NumInputs(), DFSOrder(gen.ArrayMultiplier(4))},
		{"rand", testutil.RandomCircuit(7, 20, 2, 3).NumInputs(), DFSOrder(testutil.RandomCircuit(7, 20, 2, 3))},
	}
	for _, tc := range circs {
		if len(tc.pos) != tc.n {
			t.Fatalf("%s: order length %d, want %d", tc.name, len(tc.pos), tc.n)
		}
		seen := make([]bool, tc.n)
		for _, p := range tc.pos {
			if p < 0 || p >= tc.n || seen[p] {
				t.Fatalf("%s: order %v is not a permutation", tc.name, tc.pos)
			}
			seen[p] = true
		}
	}
}

func TestDFSOrderInterleavesAdderOperands(t *testing.T) {
	// The whole point of the heuristic: a-bits and b-bits must
	// interleave, keeping adder BDDs linear.
	c := gen.RippleCarryAdder(16)
	pos := DFSOrder(c)
	// a_i and b_i (inputs i and 16+i) must sit near each other.
	for i := 0; i < 16; i++ {
		d := pos[i] - pos[16+i]
		if d < 0 {
			d = -d
		}
		if d > 3 {
			t.Fatalf("a%d and b%d are %d levels apart (order not interleaved)", i, i, d)
		}
	}
}

func TestOrderedBuildMatchesUnordered(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		c := testutil.RandomCircuit(5, 18, 2, seed+80)
		want := testutil.CountOnesBrute(c)

		plain := New(c.NumInputs(), 0)
		outs1, err := plain.Build(context.Background(), c, nil, c.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		ordered := New(c.NumInputs(), 0)
		outs2, err := ordered.Build(context.Background(), c, DFSOrder(c), c.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			w := new(big.Int).SetUint64(want[j])
			if got := plain.CountOnes(outs1[j]); got.Cmp(w) != 0 {
				t.Fatalf("seed %d out %d plain: %v != %v", seed, j, got, w)
			}
			if got := ordered.CountOnes(outs2[j]); got.Cmp(w) != 0 {
				t.Fatalf("seed %d out %d ordered: %v != %v", seed, j, got, w)
			}
		}
	}
}

func TestOrderedAdderStaysSmall(t *testing.T) {
	c := gen.RippleCarryAdder(32)
	m := New(c.NumInputs(), 1<<20)
	if _, err := m.Build(context.Background(), c, DFSOrder(c), c.Outputs); err != nil {
		t.Fatalf("interleaved 32-bit adder should not explode: %v", err)
	}
	if m.NumNodes() > 100000 {
		t.Errorf("adder32 BDD with DFS order has %d nodes (expected linear-ish)", m.NumNodes())
	}
}

func TestBadOrderRejected(t *testing.T) {
	c := gen.RippleCarryAdder(2)
	m := New(c.NumInputs(), 0)
	if _, err := m.Build(context.Background(), c, []int{0, 1}, c.Outputs); err == nil {
		t.Error("short order accepted")
	}
}
