package bdd

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

// evalAll snapshots the full truth table of each root (the circuits in
// these tests are small enough to enumerate).
func evalAll(m *Manager, roots []Ref) [][]bool {
	n := m.numVars
	tables := make([][]bool, len(roots))
	in := make([]bool, n)
	for j, r := range roots {
		tab := make([]bool, 1<<uint(n))
		for x := range tab {
			for i := range in {
				in[i] = x>>uint(i)&1 == 1
			}
			tab[x] = m.Eval(r, in)
		}
		tables[j] = tab
	}
	return tables
}

// TestSwapLevelsPreservesFunctions is the sifter's core safety
// property: adjacent level swaps rewrite nodes in place, so every
// outstanding Ref must keep its exact function (checked by full truth
// tables) and its model count through an arbitrary swap sequence.
func TestSwapLevelsPreservesFunctions(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := testutil.RandomCircuit(8, 30+int(seed*7%40), 3, seed)
		m := New(8, 0)
		roots, err := m.Build(context.Background(), c, nil, c.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		want := evalAll(m, roots)
		wantCounts := make([]*big.Int, len(roots))
		for j, r := range roots {
			wantCounts[j] = m.CountOnes(r)
		}
		rng := rand.New(rand.NewSource(seed + 77))
		for s := 0; s < 40; s++ {
			if err := m.swapLevels(int32(rng.Intn(7))); err != nil {
				t.Fatal(err)
			}
		}
		got := evalAll(m, roots)
		for j := range roots {
			for x := range want[j] {
				if got[j][x] != want[j][x] {
					t.Fatalf("seed %d root %d pattern %d: function changed after swaps", seed, j, x)
				}
			}
			if m.CountOnes(roots[j]).Cmp(wantCounts[j]) != 0 {
				t.Fatalf("seed %d root %d: count changed after swaps", seed, j)
			}
		}
	}
}

// TestSwapLevelsKeepsOpsUsable pins that the unique/memo tables stay
// coherent enough for further apply operations after swaps: new ITE
// results on swapped diagrams must still be correct.
func TestSwapLevelsKeepsOpsUsable(t *testing.T) {
	c := testutil.RandomCircuit(6, 25, 2, 3)
	m := New(6, 0)
	roots, err := m.Build(context.Background(), c, nil, c.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	for l := int32(0); l < 5; l++ {
		if err := m.swapLevels(l); err != nil {
			t.Fatal(err)
		}
	}
	and, err := m.And(roots[0], roots[1])
	if err != nil {
		t.Fatal(err)
	}
	xor, err := m.Xor(roots[0], roots[1])
	if err != nil {
		t.Fatal(err)
	}
	in := make([]bool, 6)
	for x := 0; x < 1<<6; x++ {
		for i := range in {
			in[i] = x>>uint(i)&1 == 1
		}
		r0, r1 := m.Eval(roots[0], in), m.Eval(roots[1], in)
		if m.Eval(and, in) != (r0 && r1) {
			t.Fatalf("pattern %d: AND on swapped diagrams wrong", x)
		}
		if m.Eval(xor, in) != (r0 != r1) {
			t.Fatalf("pattern %d: XOR on swapped diagrams wrong", x)
		}
	}
}

// TestReorderShrinksBadOrderAdder gives the sifter its textbook win: a
// ripple-carry adder built with the declaration order (all a-bits above
// all b-bits — the order whose diagrams are exponential) must come out
// of one Reorder pass strictly smaller, with identical counts.
func TestReorderShrinksBadOrderAdder(t *testing.T) {
	c := gen.RippleCarryAdder(8) // 16 inputs, declaration order is bad
	m := New(16, 0)
	roots, err := m.Build(context.Background(), c, nil, c.Outputs) // nil order = declaration order
	if err != nil {
		t.Fatal(err)
	}
	before, _ := m.liveStats(roots)
	wantCounts := make([]*big.Int, len(roots))
	for j, r := range roots {
		wantCounts[j] = m.CountOnes(r)
	}
	if err := m.Reorder(roots); err != nil {
		t.Fatal(err)
	}
	after, _ := m.liveStats(roots)
	t.Logf("adder live size: %d -> %d", before, after)
	if after >= before {
		t.Errorf("reorder did not shrink the bad-order adder: %d -> %d", before, after)
	}
	for j, r := range roots {
		if m.CountOnes(r).Cmp(wantCounts[j]) != 0 {
			t.Errorf("root %d: count changed across reorder", j)
		}
	}
}

// TestCountDifferentMatchesXor pins the ER pair traversal against the
// reference: CountDifferent(f, g) == CountOnes(f XOR g) over random
// circuit outputs, including f == g and terminal operands.
func TestCountDifferentMatchesXor(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		nIn := 4 + int(seed%8)
		c := testutil.RandomCircuit(nIn, 20+int(seed*11%60), 2, seed)
		m := New(nIn, 0)
		roots, err := m.Build(context.Background(), c, nil, c.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		f, g := roots[0], roots[1]
		for _, pair := range [][2]Ref{{f, g}, {g, f}, {f, f}, {f, True}, {False, g}, {False, True}} {
			x, err := m.Xor(pair[0], pair[1])
			if err != nil {
				t.Fatal(err)
			}
			want := m.CountOnes(x)
			got := m.CountDifferent(pair[0], pair[1])
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d (%d,%d): CountDifferent = %v, CountOnes(xor) = %v",
					seed, pair[0], pair[1], got, want)
			}
		}
	}
}

// TestAutoReorderCountsUnchanged builds a miter-sized circuit with
// auto-reordering armed (trigger lowered so it actually fires) and
// checks every output count against the fixed-order build.
func TestAutoReorderCountsUnchanged(t *testing.T) {
	c := testutil.RandomCircuit(14, 250, 4, 21)
	fixed := New(14, 0)
	want, err := fixed.Build(context.Background(), c, nil, c.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	auto := New(14, 0)
	auto.EnableAutoReorder()
	auto.reorderNext = 256 // fire several times on this small build
	got, err := auto.Build(context.Background(), c, nil, c.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	fired := mReorders.Value()
	if fired == 0 {
		t.Fatal("auto-reorder never fired; trigger broken")
	}
	for j := range want {
		w := fixed.CountOnes(want[j])
		g := auto.CountOnes(got[j])
		if w.Cmp(g) != 0 {
			t.Errorf("output %d: auto-reordered count %v, fixed-order %v", j, g, w)
		}
	}
}

// TestVarOrderTracksSwaps pins the var<->level bookkeeping.
func TestVarOrderTracksSwaps(t *testing.T) {
	m := New(4, 0)
	c := gen.RippleCarryAdder(2)
	if _, err := m.Build(context.Background(), c, nil, c.Outputs); err != nil {
		t.Fatal(err)
	}
	if err := m.swapLevels(1); err != nil {
		t.Fatal(err)
	}
	order := m.VarOrder()
	want := []int32{0, 2, 1, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("VarOrder = %v, want %v", order, want)
		}
	}
	for l, v := range order {
		if m.levelOf[v] != int32(l) {
			t.Fatalf("levelOf[%d] = %d, want %d", v, m.levelOf[v], l)
		}
	}
}
