package counter

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/testutil"
)

// countWith encodes the single-output circuit and counts with the given
// config, returning the model count.
func countWith(t *testing.T, c *circuit.Circuit, cfg Config) *big.Int {
	t.Helper()
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	s := New(f, cfg)
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatalf("Count: %v", err)
	}
	// Inputs of the circuit outside the output cone are not encoded;
	// account for them so the result ranges over all 2^I patterns.
	extra := c.NumInputs() - f.NumEncodedInputs()
	if extra < 0 {
		t.Fatalf("more encoded inputs than circuit inputs")
	}
	return new(big.Int).Lsh(n, uint(extra))
}

func singleOutput(c *circuit.Circuit, root int) *circuit.Circuit {
	c.SetOutputs(root)
	return c
}

func TestCountConstants(t *testing.T) {
	c := circuit.New("const")
	for i := 0; i < 3; i++ {
		c.AddInput("")
	}
	// output = const0: count 0
	c0 := c.Clone()
	c0.SetOutputs(0)
	if got := countWith(t, c0, Config{}); got.Sign() != 0 {
		t.Errorf("const0 count = %v, want 0", got)
	}
	// output = const1: count 2^3
	c1 := c.Clone()
	one := c1.Const1()
	c1.SetOutputs(one)
	if got := countWith(t, c1, Config{}); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("const1 count = %v, want 8", got)
	}
}

func TestCountSingleInput(t *testing.T) {
	c := circuit.New("wire")
	a := c.AddInput("a")
	c.SetOutputs(a)
	if got := countWith(t, c, Config{}); got.Cmp(big.NewInt(1)) != 0 {
		t.Errorf("single input count = %v, want 1", got)
	}
}

func TestCountAndOrXor(t *testing.T) {
	mk := func(k circuit.Kind) *circuit.Circuit {
		c := circuit.New(k.String())
		a := c.AddInput("a")
		b := c.AddInput("b")
		g := c.AddGate(k, a, b)
		c.SetOutputs(g)
		return c
	}
	cases := []struct {
		k    circuit.Kind
		want int64
	}{
		{circuit.And, 1}, {circuit.Or, 3}, {circuit.Xor, 2},
		{circuit.Nand, 3}, {circuit.Nor, 1}, {circuit.Xnor, 2},
	}
	for _, tc := range cases {
		if got := countWith(t, mk(tc.k), Config{}); got.Cmp(big.NewInt(tc.want)) != 0 {
			t.Errorf("%s count = %v, want %d", tc.k, got, tc.want)
		}
	}
}

func TestCountMuxMaj(t *testing.T) {
	c := circuit.New("mux")
	s := c.AddInput("s")
	a := c.AddInput("a")
	b := c.AddInput("b")
	g := c.AddGate(circuit.Mux, s, a, b)
	c.SetOutputs(g)
	// Mux(s,a,b) = 1 for: s=0,a=1 (2 b-values) + s=1,b=1 (2 a-values) = 4
	if got := countWith(t, c, Config{}); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("mux count = %v, want 4", got)
	}

	c2 := circuit.New("maj")
	x := c2.AddInput("x")
	y := c2.AddInput("y")
	z := c2.AddInput("z")
	m := c2.AddGate(circuit.Maj, x, y, z)
	c2.SetOutputs(m)
	if got := countWith(t, c2, Config{}); got.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("maj count = %v, want 4", got)
	}
}

func TestCountXorChain(t *testing.T) {
	// Parity of n inputs: exactly half the patterns are odd.
	for _, n := range []int{2, 5, 8, 13} {
		c := circuit.New("parity")
		prev := c.AddInput("")
		for i := 1; i < n; i++ {
			in := c.AddInput("")
			prev = c.AddGate(circuit.Xor, prev, in)
		}
		c.SetOutputs(prev)
		want := new(big.Int).Lsh(big.NewInt(1), uint(n-1))
		for _, cfg := range []Config{{}, {EnableSim: true}} {
			if got := countWith(t, c, cfg); got.Cmp(want) != 0 {
				t.Errorf("parity(%d) sim=%v count = %v, want %v", n, cfg.EnableSim, got, want)
			}
		}
	}
}

func TestCountDisconnectedComponents(t *testing.T) {
	// (a AND b) AND (c XOR d): components after top decomposition.
	c := circuit.New("two")
	a := c.AddInput("a")
	b := c.AddInput("b")
	x := c.AddInput("c")
	y := c.AddInput("d")
	g1 := c.AddGate(circuit.And, a, b)
	g2 := c.AddGate(circuit.Xor, x, y)
	out := c.AddGate(circuit.And, g1, g2)
	c.SetOutputs(out)
	if got := countWith(t, c, Config{}); got.Cmp(big.NewInt(2)) != 0 {
		t.Errorf("count = %v, want 2", got)
	}
}

func TestCountUnusedInputsFactor(t *testing.T) {
	// 5 inputs, output depends on 2 of them: count must scale by 2^3.
	c := circuit.New("partial")
	a := c.AddInput("a")
	b := c.AddInput("b")
	for i := 0; i < 3; i++ {
		c.AddInput("")
	}
	g := c.AddGate(circuit.And, a, b)
	c.SetOutputs(g)
	if got := countWith(t, c, Config{}); got.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("count = %v, want 8", got)
	}
}

// TestCountRandomVsBrute is the core soundness test: on hundreds of random
// circuits, the solver (DPLL-only, VACSEM with simulation, and VACSEM
// without cache) must match per-pattern brute force exactly.
func TestCountRandomVsBrute(t *testing.T) {
	configs := map[string]Config{
		"dpll":      {},
		"sim":       {EnableSim: true},
		"sim-alpha": {EnableSim: true, Alpha: 100, MinSimGates: 1}, // simulate aggressively
		"nocache":   {EnableSim: true, DisableCache: true},
	}
	for seed := int64(0); seed < 60; seed++ {
		nIn := 3 + int(seed%8)
		nGates := 5 + int(seed*7%40)
		c := testutil.RandomCircuit(nIn, nGates, 1, seed)
		want := testutil.CountOnesBrute(c)[0]
		for name, cfg := range configs {
			got := countWith(t, c, cfg)
			if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
				t.Fatalf("seed %d cfg %s: count = %v, want %d\ncircuit: %v",
					seed, name, got, want, c.Stat())
			}
		}
	}
}

func TestCountStatsPlausible(t *testing.T) {
	c := testutil.RandomCircuit(8, 40, 1, 42)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{EnableSim: true, Alpha: 50})
	if _, err := s.Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Propagations == 0 {
		t.Errorf("expected propagations > 0")
	}
	if st.SimCalls == 0 && st.Decisions == 0 {
		t.Errorf("solver did no work at all: %+v", st)
	}
}

func TestCountRepeatable(t *testing.T) {
	c := testutil.RandomCircuit(9, 50, 1, 7)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{EnableSim: true})
	a, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Errorf("Count not repeatable: %v then %v", a, b)
	}
}

func TestLitIndex(t *testing.T) {
	if litIndex(3) != 6 || litIndex(-3) != 7 {
		t.Errorf("litIndex broken: %d %d", litIndex(3), litIndex(-3))
	}
	if litVar(-9) != 9 || litVar(9) != 9 {
		t.Errorf("litVar broken")
	}
}

func TestUnsatisfiableFormula(t *testing.T) {
	// x AND NOT x
	c := circuit.New("unsat")
	a := c.AddInput("a")
	na := c.AddGate(circuit.Not, a)
	g := c.AddGate(circuit.And, a, na)
	c.SetOutputs(g)
	if got := countWith(t, c, Config{}); got.Sign() != 0 {
		t.Errorf("unsat count = %v, want 0", got)
	}
	if got := countWith(t, c, Config{EnableSim: true}); got.Sign() != 0 {
		t.Errorf("unsat count (sim) = %v, want 0", got)
	}
}
