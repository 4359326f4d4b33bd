package core

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/als"
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

// TestBDDMethodWithReorderAgrees runs the same cross-check with dynamic
// variable reordering enabled: sifting changes node counts, never
// values, all the way through the public API.
func TestBDDMethodWithReorderAgrees(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		exact := testutil.RandomCircuit(4+int(seed%5), 10+int(seed*3%25), 3, seed+60)
		approx := approxVersion(exact, seed*5+1)
		wantER, wantMED, _ := refMetrics(exact, approx)
		er, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodBDD, BDDReorder: true})
		if err != nil {
			t.Fatalf("seed %d ER: %v", seed, err)
		}
		if er.Value.Cmp(wantER) != 0 {
			t.Errorf("seed %d: reordered BDD ER = %v, want %v", seed, er.Value, wantER)
		}
		med, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD, BDDReorder: true})
		if err != nil {
			t.Fatalf("seed %d MED: %v", seed, err)
		}
		if med.Value.Cmp(wantMED) != 0 {
			t.Errorf("seed %d: reordered BDD MED = %v, want %v", seed, med.Value, wantMED)
		}
	}
	// A larger instance where the auto-trigger actually fires.
	exact := gen.RippleCarryAdder(12)
	approx := als.LowerORAdder(12, 5)
	b, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodBDD, BDDReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	e, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Method: MethodEnum})
	if err != nil {
		t.Fatal(err)
	}
	if b.Value.Cmp(e.Value) != 0 {
		t.Errorf("reordered BDD MED %v != enum %v", b.Value, e.Value)
	}
}

func TestBDDMethodOnAdder(t *testing.T) {
	// DD methods handle adders well (linear BDDs) — the paper notes they
	// support up to 32-bit adders. Verify a 16-bit LOA.
	exact := gen.RippleCarryAdder(16)
	approx := als.LowerORAdder(16, 4)
	b, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodBDD})
	if err != nil {
		t.Fatal(err)
	}
	v, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricER}, Options{Method: MethodVACSEM})
	if err != nil {
		t.Fatal(err)
	}
	if b.Value.Cmp(v.Value) != 0 {
		t.Errorf("BDD %v != VACSEM %v", b.Value, v.Value)
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
