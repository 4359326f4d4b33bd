package bdd

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

func mustVar(t *testing.T, m *Manager, i int) Ref {
	t.Helper()
	v, err := m.Var(i)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestTerminalsAndVar(t *testing.T) {
	m := New(3, 0)
	a := mustVar(t, m, 0)
	if m.Eval(a, []bool{true, false, false}) != true {
		t.Error("var eval wrong")
	}
	if m.Eval(a, []bool{false, true, true}) != false {
		t.Error("var eval wrong")
	}
	if _, err := m.Var(5); err == nil {
		t.Error("out-of-range var accepted")
	}
	if m.Eval(True, nil) != true || m.Eval(False, nil) != false {
		t.Error("terminal eval wrong")
	}
}

func TestBasicOps(t *testing.T) {
	m := New(2, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	and, _ := m.And(a, b)
	or, _ := m.Or(a, b)
	xor, _ := m.Xor(a, b)
	na, _ := m.Not(a)
	for x := 0; x < 4; x++ {
		in := []bool{x&1 == 1, x>>1&1 == 1}
		if m.Eval(and, in) != (in[0] && in[1]) {
			t.Error("and wrong")
		}
		if m.Eval(or, in) != (in[0] || in[1]) {
			t.Error("or wrong")
		}
		if m.Eval(xor, in) != (in[0] != in[1]) {
			t.Error("xor wrong")
		}
		if m.Eval(na, in) != !in[0] {
			t.Error("not wrong")
		}
	}
}

func TestCanonicity(t *testing.T) {
	// Same function built two ways must give the identical reference.
	m := New(3, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	ab, _ := m.And(a, b)
	ba, _ := m.And(b, a)
	if ab != ba {
		t.Error("AND not canonical")
	}
	// De Morgan: ~(a&b) == ~a | ~b
	nab, _ := m.Not(ab)
	na, _ := m.Not(a)
	nb, _ := m.Not(b)
	dm, _ := m.Or(na, nb)
	if nab != dm {
		t.Error("De Morgan violated (non-canonical)")
	}
	// x XOR x == False
	xx, _ := m.Xor(a, a)
	if xx != False {
		t.Error("x^x != False")
	}
}

func TestCountOnes(t *testing.T) {
	m := New(4, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	and, _ := m.And(a, b)
	// a&b over 4 vars: 1/4 of 16 = 4.
	if got := m.CountOnes(and); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("count(a&b) = %v, want 4", got)
	}
	if got := m.CountOnes(True); got.Cmp(big.NewInt(16)) != 0 {
		t.Errorf("count(true) = %v", got)
	}
	if got := m.CountOnes(False); got.Sign() != 0 {
		t.Errorf("count(false) = %v", got)
	}
	xor, _ := m.Xor(a, b)
	if got := m.CountOnes(xor); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("count(a^b) = %v, want 8", got)
	}
}

// TestBuildOutputsMatchesBrute: BDD counts equal brute-force pattern
// counts on random circuits — the BDD analogue of the counter's core
// soundness test.
func TestBuildOutputsMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		c := testutil.RandomCircuit(3+int(seed%6), 5+int(seed*3%30), 3, seed+900)
		m := New(c.NumInputs(), 0)
		outs, err := m.Build(context.Background(), c, nil, c.Outputs)
		if err != nil {
			t.Fatal(err)
		}
		want := testutil.CountOnesBrute(c)
		for j, f := range outs {
			if got := m.CountOnes(f); got.Cmp(new(big.Int).SetUint64(want[j])) != 0 {
				t.Fatalf("seed %d out %d: bdd %v, brute %d", seed, j, got, want[j])
			}
		}
	}
}

func TestBuildAdder(t *testing.T) {
	c := gen.RippleCarryAdder(8)
	m := New(c.NumInputs(), 0)
	outs, err := m.Build(context.Background(), c, nil, c.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	// Sum bit j has P(1) = 1/2 => count 2^15 for all but the carry-out.
	half := new(big.Int).Lsh(big.NewInt(1), 15)
	for j := 0; j < 8; j++ {
		if got := m.CountOnes(outs[j]); got.Cmp(half) != 0 {
			t.Errorf("adder bit %d count = %v, want %v", j, got, half)
		}
	}
	// Adder BDDs stay linear in width under the natural interleaved-ish
	// order? With a..a b..b order they are linear in n too.
	if m.NumNodes() > 4000 {
		t.Errorf("adder8 BDD suspiciously large: %d nodes", m.NumNodes())
	}
}

func TestNodeLimit(t *testing.T) {
	// A multiplier's middle product bits explode; a tiny limit must trip
	// cleanly even on mult4.
	c := gen.ArrayMultiplier(4)
	m := New(c.NumInputs(), 40)
	if _, err := m.Build(context.Background(), c, nil, c.Outputs); err != ErrNodeLimit {
		t.Errorf("expected ErrNodeLimit, got %v", err)
	}
}

func TestSize(t *testing.T) {
	m := New(3, 0)
	a := mustVar(t, m, 0)
	b := mustVar(t, m, 1)
	c := mustVar(t, m, 2)
	maj, _ := m.And(a, b)
	t2, _ := m.And(a, c)
	maj, _ = m.Or(maj, t2)
	t3, _ := m.And(b, c)
	maj, _ = m.Or(maj, t3)
	if s := m.Size(maj); s < 3 || s > 6 {
		t.Errorf("maj size = %d", s)
	}
	if m.Size(True) != 0 {
		t.Error("terminal size must be 0")
	}
}

func TestInputCountMismatch(t *testing.T) {
	c := gen.RippleCarryAdder(2)
	m := New(3, 0)
	if _, err := m.Build(context.Background(), c, nil, c.Outputs); err == nil {
		t.Error("input-count mismatch accepted")
	}
}
