package core

import (
	"context"
	"math/big"
	"math/rand"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

func TestBDDMethodAgreesOnRandomCircuits(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		exact := testutil.RandomCircuit(4+int(seed%5), 10+int(seed*3%25), 3, seed+60)
		approx := approxVersion(exact, seed*5+1)
		wantER, wantMED, _ := refMetrics(exact, approx)
		er, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatalf("seed %d ER: %v", seed, err)
		}
		if er.Value.Cmp(wantER) != 0 {
			t.Errorf("seed %d: BDD ER = %v, want %v", seed, er.Value, wantER)
		}
		med, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatalf("seed %d MED: %v", seed, err)
		}
		if med.Value.Cmp(wantMED) != 0 {
			t.Errorf("seed %d: BDD MED = %v, want %v", seed, med.Value, wantMED)
		}
	}
}

// TestBDDMethodWithReorderAgrees runs the same cross-check with the
// primary inputs of both circuits permuted alike. That moves every input
// to another BDD variable index (DFSOrder maps input positions to
// variables) and must change node counts only, never values.
func TestBDDMethodWithReorderAgrees(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		exact := testutil.RandomCircuit(4+int(seed%5), 10+int(seed*3%25), 3, seed+60)
		approx := approxVersion(exact, seed*5+1)
		wantER, wantMED, _ := refMetrics(exact, approx)
		perm := rand.New(rand.NewSource(seed)).Perm(exact.NumInputs())
		pe, pa := permuteInputs(exact, perm), permuteInputs(approx, perm)
		er, err := Verify(context.Background(), pe, pa, MetricSpec{Kind: MetricER}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatalf("seed %d ER: %v", seed, err)
		}
		if er.Value.Cmp(wantER) != 0 {
			t.Errorf("seed %d: permuted-input BDD ER = %v, want %v", seed, er.Value, wantER)
		}
		med, err := Verify(context.Background(), pe, pa, MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatalf("seed %d MED: %v", seed, err)
		}
		if med.Value.Cmp(wantMED) != 0 {
			t.Errorf("seed %d: permuted-input BDD MED = %v, want %v", seed, med.Value, wantMED)
		}
	}
	// An adder with its operand bits in reverse order.
	exact := gen.RippleCarryAdder(12)
	approx := als.LowerORAdder(12, 5)
	rev := make([]int, exact.NumInputs())
	for i := range rev {
		rev[i] = len(rev) - 1 - i
	}
	b, err := Verify(context.Background(), permuteInputs(exact, rev), permuteInputs(approx, rev), MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodEnum})
	if err != nil {
		t.Fatal(err)
	}
	if b.Value.Cmp(e.Value) != 0 {
		t.Errorf("permuted-input BDD MED %v != enum %v", b.Value, e.Value)
	}
}

// permuteInputs returns a copy of c whose i-th primary input is c's
// perm[i]-th.
func permuteInputs(c *circuit.Circuit, perm []int) *circuit.Circuit {
	cp := c.Clone()
	for i, j := range perm {
		cp.Inputs[i] = c.Inputs[j]
	}
	return cp
}

func TestBDDMethodOnAdder(t *testing.T) {
	// DD methods handle adders well (linear BDDs) — the paper notes they
	// support up to 32-bit adders. Verify a 16-bit LOA's ER against
	// VACSEM and a 12-bit LOA's MED against enumeration.
	for _, tc := range []struct {
		name   string
		bits   int
		approx int
		metric MetricKind
		ref    Method
	}{
		{"adder16/ER", 16, 4, MetricER, MethodVACSEM},
		{"adder12/MED", 12, 5, MetricMED, MethodEnum},
	} {
		exact := gen.RippleCarryAdder(tc.bits)
		approx := als.LowerORAdder(tc.bits, tc.approx)
		b, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: tc.metric}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		r, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: tc.metric}, Options{Method: tc.ref})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b.Value.Cmp(r.Value) != 0 {
			t.Errorf("%s: BDD %v != %v %v", tc.name, b.Value, tc.ref, r.Value)
		}
	}
}

func TestBDDMethodExplodesOnMultiplier(t *testing.T) {
	// The scalability wall of footnote 2: multiplier deviation functions
	// blow BDDs up. With a modest node budget the method must fail
	// cleanly where VACSEM succeeds.
	exact := gen.ArrayMultiplier(8)
	approx := als.TruncatedMultiplier(8, 4)
	_, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD, BDDNodeLimit: 20000})
	if err != ErrBDDTooLarge {
		t.Fatalf("expected ErrBDDTooLarge, got %v", err)
	}
	// VACSEM on the same instance succeeds.
	if _, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodVACSEM}); err != nil {
		t.Fatalf("VACSEM failed where it should win: %v", err)
	}
}

func TestBDDThresholdProb(t *testing.T) {
	exact := gen.ArrayMultiplier(4)
	approx := als.TruncatedMultiplier(4, 2)
	for _, tv := range []int64{0, 3, 9} {
		b, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricThresholdProb, Threshold: big.NewInt(tv)}, Options{Method: MethodBDD})
		if err != nil {
			t.Fatal(err)
		}
		e, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricThresholdProb, Threshold: big.NewInt(tv)}, Options{Method: MethodEnum})
		if err != nil {
			t.Fatal(err)
		}
		if b.Value.Cmp(e.Value) != 0 {
			t.Errorf("t=%d: BDD %v != enum %v", tv, b.Value, e.Value)
		}
	}
}
