package counter

import (
	"context"
	"math/big"
	"strings"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/testutil"
)

// withinEpsilon reports |got - want| within the multiplicative band
// want/(1+eps) <= got <= want*(1+eps), using rational arithmetic.
func withinEpsilon(got, want *big.Int, eps float64) bool {
	// Compare using a fixed-point scale of 1e6: got*(1e6) vs bounds.
	scale := big.NewInt(1_000_000)
	factor := big.NewInt(int64((1 + eps) * 1_000_000))
	lo := new(big.Int).Mul(got, factor) // got*(1+eps) >= want ?
	hi := new(big.Int).Mul(want, factor)
	gs := new(big.Int).Mul(got, scale)
	ws := new(big.Int).Mul(want, scale)
	return lo.Cmp(ws) >= 0 && gs.Cmp(hi) <= 0
}

// TestApproxCrossValidation is the seeded cross-validation harness: on
// >= 50 small circuits (<= 16 inputs) the approximate count must land
// within the (1+ε) band of the exact count. Seeds are fixed, so the
// hashing is deterministic and the test cannot flake.
func TestApproxCrossValidation(t *testing.T) {
	const trials = 60
	const eps = 0.8
	hashed := 0
	for seed := int64(0); seed < trials; seed++ {
		// Random single-output circuits have narrow cones and tiny counts,
		// which would hit the exact shortcut every time. OR the random
		// output with a parity over all inputs: the cone covers every
		// input and the count is at least half the space — large and
		// irregular, so the trial genuinely exercises XOR streamlining.
		c := testutil.RandomCircuit(6+int(seed%11), 12+int(seed*5%40), 1, seed+909)
		par := c.Inputs[0]
		for _, in := range c.Inputs[1:] {
			par = c.AddGate(circuit.Xor, par, in)
		}
		c.SetOutputs(c.AddGate(circuit.Or, c.Outputs[0], par))
		f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(f, Config{}).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r, err := ApproxCount(context.Background(), f, ApproxConfig{
			Epsilon: eps, Delta: 0.2, Seed: seed, Rounds: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Exact {
			if r.Count.Cmp(want) != 0 {
				t.Fatalf("seed %d: exact-path approx %v != %v", seed, r.Count, want)
			}
			continue
		}
		hashed++
		if !withinEpsilon(r.Count, want, eps) {
			t.Errorf("seed %d: approx %v outside (1+%g) band of exact %v", seed, r.Count, eps, want)
		}
	}
	// The harness must actually exercise XOR streamlining, not just the
	// small-count exact shortcut.
	if hashed < trials/3 {
		t.Errorf("only %d/%d trials took the hashing path", hashed, trials)
	}
}

// TestApproxSamplingSetMatchesFullSpace: hashing only over the encoded
// inputs (an independent support of a Tseitin formula) must estimate
// the same count as hashing over all variables.
func TestApproxSamplingSetMatchesFullSpace(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		c := testutil.RandomCircuit(10, 30, 1, seed+5151)
		f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(f, Config{}).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var inputs []int32
		for _, id := range f.Circ.Inputs {
			if v := f.VarOfNode[id]; v != 0 {
				inputs = append(inputs, v)
			}
		}
		r, err := ApproxCount(context.Background(), f, ApproxConfig{
			Epsilon: 0.8, Seed: seed, Rounds: 5, Sampling: inputs,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Exact {
			if r.Count.Cmp(want) != 0 {
				t.Fatalf("seed %d: exact-path approx %v != %v", seed, r.Count, want)
			}
			continue
		}
		if !withinEpsilon(r.Count, want, 0.8) {
			t.Errorf("seed %d: input-sampled approx %v outside band of %v", seed, r.Count, want)
		}
	}
}

// TestApproxDeterministicSeed: identical parameters and seed give
// identical estimates; different seeds may differ.
func TestApproxDeterministicSeed(t *testing.T) {
	c := testutil.RandomCircuit(12, 40, 1, 4242)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ApproxConfig{Epsilon: 0.5, Delta: 0.2, Seed: 7, Rounds: 3}
	a, err := ApproxCount(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ApproxCount(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Count.Cmp(b.Count) != 0 {
		t.Errorf("same seed, different estimates: %v vs %v", a.Count, b.Count)
	}
}

// TestApproxExactShortcut: a formula with fewer models than the pivot
// is returned exactly.
func TestApproxExactShortcut(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 3 2\n1 0\n-2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ApproxCount(context.Background(), f, ApproxConfig{Epsilon: 0.8, Delta: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Count.Cmp(big.NewInt(2)) != 0 {
		t.Fatalf("want exact 2, got %v (exact=%v)", r.Count, r.Exact)
	}
	if r.Epsilon != 0.8 || r.Delta != 0.2 || r.Pivot != ApproxPivot(0.8) {
		t.Errorf("result fields not echoed: %+v", r)
	}
}

// TestApproxUnsat: unsatisfiable formulas report an exact zero.
func TestApproxUnsat(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 2 3\n1 0\n-1 2 0\nx 1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := ApproxCount(context.Background(), f, ApproxConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Exact || r.Count.Sign() != 0 {
		t.Fatalf("want exact 0, got %v (exact=%v)", r.Count, r.Exact)
	}
}

// TestApproxRejectsBadParams: epsilon/delta outside their domains.
func TestApproxRejectsBadParams(t *testing.T) {
	f, _ := cnf.ParseDIMACS(strings.NewReader("p cnf 1 1\n1 0\n"))
	for _, cfg := range []ApproxConfig{
		{Epsilon: -1},
		{Delta: -0.5},
		{Delta: 1.5},
	} {
		if _, err := ApproxCount(context.Background(), f, cfg); err == nil {
			t.Errorf("cfg %+v: expected error", cfg)
		}
	}
}

// TestApproxPivotAndRounds pins the ApproxMC parameter formulas.
func TestApproxPivotAndRounds(t *testing.T) {
	if p := ApproxPivot(0.8); p != 72 {
		t.Errorf("pivot(0.8) = %d, want 72", p)
	}
	// Exact binomial-tail schedule: smallest odd t with
	// P[Bin(t, 0.36) >= (t+1)/2] <= delta.
	for _, tc := range []struct {
		delta float64
		want  int
	}{{0.2, 9}, {0.05, 33}, {0.45, 1}} {
		if r := ApproxRounds(tc.delta); r != tc.want {
			t.Errorf("rounds(%g) = %d, want %d", tc.delta, r, tc.want)
		}
	}
	// The schedule is monotone: lower delta never means fewer rounds.
	prev := 0
	for _, d := range []float64{0.45, 0.3, 0.2, 0.1, 0.05, 0.01} {
		r := ApproxRounds(d)
		if r < prev || r%2 == 0 {
			t.Errorf("rounds(%g) = %d, want odd and >= %d", d, r, prev)
		}
		prev = r
	}
}
