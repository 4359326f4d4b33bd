package als

import (
	"context"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/gen"
)

func exhaustiveER(exact, approx *circuit.Circuit, t *testing.T) float64 {
	t.Helper()
	r, err := core.Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricER}, core.Options{Method: core.MethodEnum})
	if err != nil {
		t.Fatalf("VerifyER: %v", err)
	}
	return r.Float()
}

func TestApproximateInterfacePreserved(t *testing.T) {
	exact := gen.ArrayMultiplier(4)
	approx := Approximate(exact, Config{Seed: 1, TargetER: 0.05})
	if err := approx.Validate(); err != nil {
		t.Fatal(err)
	}
	if approx.NumInputs() != exact.NumInputs() || approx.NumOutputs() != exact.NumOutputs() {
		t.Fatalf("interface changed: %d/%d vs %d/%d",
			approx.NumInputs(), approx.NumOutputs(), exact.NumInputs(), exact.NumOutputs())
	}
}

func TestApproximateDeterministic(t *testing.T) {
	exact := gen.RippleCarryAdder(6)
	a := Approximate(exact, Config{Seed: 3, TargetER: 0.03})
	b := Approximate(exact, Config{Seed: 3, TargetER: 0.03})
	for x := uint64(0); x < 1<<12; x += 13 {
		if a.EvalUint(x) != b.EvalUint(x) {
			t.Fatal("Approximate not deterministic")
		}
	}
}

func TestApproximateRespectsBudgetRoughly(t *testing.T) {
	// The budget is estimated on 16k random patterns; the true ER on a
	// 12-input circuit must stay within a small multiple of it.
	exact := gen.RippleCarryAdder(6)
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		approx := Approximate(exact, Config{Seed: seed, TargetER: 0.02})
		er := exhaustiveER(exact, approx, t)
		if er > 0.10 {
			t.Errorf("seed %d: ER %.4f far above 0.02 budget", seed, er)
		}
	}
}

func TestApproximateChangesSomething(t *testing.T) {
	exact := gen.ArrayMultiplier(4)
	changed := false
	for _, seed := range []int64{1, 2, 3, 4, 5, 6} {
		approx := Approximate(exact, Config{Seed: seed, TargetER: 0.05})
		if exhaustiveER(exact, approx, t) > 0 {
			changed = true
			break
		}
	}
	if !changed {
		t.Error("no seed produced a non-zero-error approximation of mult4")
	}
}

func TestLowerORAdder(t *testing.T) {
	n, k := 6, 3
	exact := gen.RippleCarryAdder(n)
	loa := LowerORAdder(n, k)
	if loa.NumInputs() != 2*n || loa.NumOutputs() != n+1 {
		t.Fatalf("loa interface: %d/%d", loa.NumInputs(), loa.NumOutputs())
	}
	// LOA with k=0 must be exact.
	if er := exhaustiveER(exact, LowerORAdder(n, 0), t); er != 0 {
		t.Errorf("LOA k=0 ER = %v, want 0", er)
	}
	er := exhaustiveER(exact, loa, t)
	if er <= 0 || er >= 1 {
		t.Errorf("LOA k=3 ER = %v, want in (0,1)", er)
	}
	// Behavioural spot check: upper bits use the a&b carry guess.
	got := loa.EvalUint(0b000111_000101) // a=0b000101, b=0b000111
	a, b := uint64(0b000101), uint64(0b000111)
	lowOr := (a | b) & 7
	carry := (a >> 2 & 1) & (b >> 2 & 1)
	hi := (a>>3 + b>>3 + carry)
	want := lowOr | hi<<3
	if got != want {
		t.Errorf("LOA(5,7) = %b, want %b", got, want)
	}
}

func TestTruncatedAdder(t *testing.T) {
	n, k := 5, 2
	ta := TruncatedAdder(n, k)
	for x := uint64(0); x < 1<<uint(2*n); x += 17 {
		a := x & 31
		b := x >> 5
		want := ((a >> 2) + (b >> 2)) << 2
		if got := ta.EvalUint(x); got != want {
			t.Fatalf("trunc(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
	// k = 0 is the exact adder.
	exact := gen.RippleCarryAdder(n)
	if er := exhaustiveER(exact, TruncatedAdder(n, 0), t); er != 0 {
		t.Errorf("truncated k=0 ER = %v", er)
	}
}

func TestTruncatedMultiplier(t *testing.T) {
	n := 4
	exact := gen.ArrayMultiplier(n)
	// k=0 keeps every partial product: exact.
	if er := exhaustiveER(exact, TruncatedMultiplier(n, 0), t); er != 0 {
		t.Errorf("truncmult k=0 ER = %v, want 0", er)
	}
	// Larger k must be increasingly wrong but never exceed ER 1.
	prev := 0.0
	for _, k := range []int{1, 2, 3, 4} {
		er := exhaustiveER(exact, TruncatedMultiplier(n, k), t)
		if er < prev {
			t.Errorf("truncmult ER not monotone at k=%d: %v < %v", k, er, prev)
		}
		prev = er
	}
	// Behavioural: truncated product never exceeds the exact product.
	tm := TruncatedMultiplier(n, 3)
	for x := uint64(0); x < 256; x++ {
		a, b := x&15, x>>4
		got := tm.EvalUint(x)
		if got > a*b {
			t.Fatalf("truncmult(%d,%d) = %d exceeds %d", a, b, got, a*b)
		}
	}
}

func TestSuiteApproximations(t *testing.T) {
	exact := gen.RippleCarryAdder(5)
	versions := SuiteApproximations(exact, 10, 100)
	if len(versions) != 10 {
		t.Fatalf("got %d versions", len(versions))
	}
	for i, v := range versions {
		if err := v.Validate(); err != nil {
			t.Errorf("version %d: %v", i, err)
		}
		if v.NumInputs() != exact.NumInputs() || v.NumOutputs() != exact.NumOutputs() {
			t.Errorf("version %d: interface mismatch", i)
		}
	}
}
