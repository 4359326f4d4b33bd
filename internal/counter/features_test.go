package counter

// Tests of the engine features added on top of the basic DPLL counter:
// clause learning, implicit BCP, the cache bound and the controller's
// size thresholds — each checked for exactness against brute force and
// for the intended behavioural effect.

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

func TestLearningKeepsCountsExact(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		c := testutil.RandomCircuit(4+int(seed%7), 10+int(seed*5%50), 1, seed+7777)
		want := testutil.CountOnesBrute(c)[0]
		f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{},
			{DisableLearning: true},
			{DisableIBCP: true},
			{DisableLearning: true, DisableIBCP: true},
			{EnableSim: true, MinSimGates: 1, Alpha: 50},
		} {
			s := New(f, cfg)
			got, err := s.Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			extra := c.NumInputs() - f.NumEncodedInputs()
			got = new(big.Int).Lsh(got, uint(extra))
			if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
				t.Fatalf("seed %d cfg %+v: %v != %d", seed, cfg, got, want)
			}
		}
	}
}

func TestLearningActuallyLearns(t *testing.T) {
	// A MED high-bit style instance with deep UNSAT structure: the
	// solver must record learned clauses.
	exact := gen.RippleCarryAdder(8)
	cc := circuit.New("pair")
	ins := make([]int, 16)
	for i := range ins {
		ins[i] = cc.AddInput("")
	}
	o1 := circuit.Append(cc, exact, ins)
	o2 := circuit.Append(cc, exact, ins)
	// Assert two provably-equal outputs differ: UNSAT with nontrivial
	// proof (the solver cannot see the equality structurally after
	// encoding).
	x := cc.AddGate(circuit.Xor, o1[7], o2[7])
	cc.AddOutput(x, "f")
	f, err := cnf.Encode(cc)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Sign() != 0 {
		t.Fatalf("equal-output miter count = %v, want 0", n)
	}
	if s.Stats().Learned == 0 && s.Stats().FailedLiterals == 0 {
		t.Error("no learning and no failed literals on an UNSAT instance")
	}
}

func TestLearnedClausesSurviveRecount(t *testing.T) {
	c := testutil.RandomCircuit(10, 60, 1, 321)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	a, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	firstLearned := s.learned
	b, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if a.Cmp(b) != 0 {
		t.Fatalf("recount with retained learned clauses differs: %v vs %v", a, b)
	}
	if s.learned < firstLearned {
		t.Error("learned clauses were dropped by reset")
	}
}

func TestCacheBoundEviction(t *testing.T) {
	c := testutil.RandomCircuit(12, 80, 1, 99)
	want := testutil.CountOnesBrute(c)[0]
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	// A tiny cache bound forces constant eviction; counts stay exact.
	// The bound is enforced per shard (rounded up), so the effective
	// global ceiling is at most one entry per shard here.
	s := New(f, Config{MaxCacheEntries: 4})
	got, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	extra := c.NumInputs() - f.NumEncodedInputs()
	got = new(big.Int).Lsh(got, uint(extra))
	if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
		t.Fatalf("bounded cache broke exactness: %v != %d", got, want)
	}
	if n := s.cache.Len(); n > cacheShards {
		t.Errorf("cache grew past bound: %d entries", n)
	}
}

func TestMinSimGatesGatesTheController(t *testing.T) {
	// A 10-gate dense circuit: with MinSimGates above the size the
	// simulator must never fire; below, it must.
	c := circuit.New("dense")
	a := c.AddInput("a")
	b := c.AddInput("b")
	cur := c.AddGate(circuit.Xor, a, b)
	for i := 0; i < 9; i++ {
		cur = c.AddGate(circuit.Xor, cur, a)
	}
	c.AddOutput(cur, "y")
	// The blasted encoding keeps the XOR gates as clause sets, so the
	// component actually reaches the simulation controller (natively the
	// Gauss pass counts this pure parity chain in closed form first).
	f, err := cnf.EncodeBlasted(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{EnableSim: true, Alpha: 1000, MinSimGates: 50})
	if _, err := s.Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Stats().SimCalls != 0 {
		t.Errorf("simulation fired below MinSimGates: %+v", s.Stats())
	}
	s2 := New(f, Config{EnableSim: true, Alpha: 1000, MinSimGates: 1, DisableIBCP: true, DisableLearning: true})
	if _, err := s2.Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s2.Stats().SimCalls == 0 {
		t.Errorf("simulation never fired with MinSimGates=1: %+v", s2.Stats())
	}
}

func TestSatisfiableWithAllFeatureCombos(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		c := testutil.RandomCircuit(5+int(seed%5), 15+int(seed*3%30), 1, seed+4242)
		want := testutil.CountOnesBrute(c)[0] > 0
		f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{},
			{DisableIBCP: true, DisableLearning: true},
			{EnableSim: true, MinSimGates: 1, Alpha: 20},
		} {
			s := New(f, cfg)
			got, err := s.Satisfiable(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("seed %d cfg %+v: Satisfiable=%v, want %v", seed, cfg, got, want)
			}
		}
	}
}

// TestSimVerdict pins the controller rule: each rejection reason, and
// the boundaries of the K cap, the gate floor and the density score.
func TestSimVerdict(t *testing.T) {
	cases := []struct {
		name        string
		cfg         Config
		gates, k    int
		reject      string
		wantDensity float64
	}{
		{"k at the cap", Config{}, 339, 26, "", 2 * 339.0 / (26 * 26)},
		{"k over the cap", Config{}, 10000, 27, "too_many_inputs", 0},
		{"raised cap", Config{MaxSimVars: 30}, 10000, 27, "", 2 * 10000.0 / (27 * 27)},
		{"kernel limit", Config{MaxSimVars: 100}, 1 << 20, 63, "too_many_inputs", 0},
		{"gates at the floor", Config{}, 24, 4, "", 3},
		{"gates under the floor", Config{}, 23, 4, "few_gates", 0},
		{"density exactly 1", Config{}, 32, 8, "low_density", 1},
		{"density just over 1", Config{}, 33, 8, "", 2 * 33.0 / 64},
		{"alpha scales the score", Config{Alpha: 4}, 32, 8, "", 2},
		{"no free inputs", Config{}, 24, 0, "", 0},
	}
	for _, c := range cases {
		reject, density := c.cfg.SimVerdict(c.gates, c.k)
		if reject != c.reject || density != c.wantDensity {
			t.Errorf("%s: SimVerdict(%d, %d) = (%q, %v), want (%q, %v)",
				c.name, c.gates, c.k, reject, density, c.reject, c.wantDensity)
		}
	}
}
