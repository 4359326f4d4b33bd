package core

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

// bruteWCE computes the worst-case error per pattern.
func bruteWCE(exact, approx interface {
	EvalBig(*big.Int) *big.Int
	NumInputs() int
}, nIn int) *big.Int {
	max := new(big.Int)
	for x := uint64(0); x < 1<<uint(nIn); x++ {
		xb := new(big.Int).SetUint64(x)
		d := new(big.Int).Sub(exact.EvalBig(xb), approx.EvalBig(xb))
		d.Abs(d)
		if d.Cmp(max) > 0 {
			max.Set(d)
		}
	}
	return max
}

func TestWCETruncatedAdder(t *testing.T) {
	n, k := 5, 2
	exact := gen.RippleCarryAdder(n)
	approx := als.TruncatedAdder(n, k)
	want := bruteWCE(exact, approx, 2*n)
	for _, m := range []Method{MethodVACSEM, MethodDPLL} {
		r, err := VerifyWCE(context.Background(), exact, approx, Options{Method: m})
		if err != nil {
			t.Fatal(err)
		}
		if r.WCE.Cmp(want) != 0 {
			t.Errorf("%v: WCE = %v, want %v", m, r.WCE, want)
		}
		if r.SATCalls == 0 || r.Runtime <= 0 {
			t.Errorf("%v: bad bookkeeping %+v", m, r)
		}
	}
}

func TestWCEIdenticalIsZero(t *testing.T) {
	c := gen.ArrayMultiplier(3)
	r, err := VerifyWCE(context.Background(), c, c.Clone(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.WCE.Sign() != 0 {
		t.Errorf("WCE of identical circuits = %v", r.WCE)
	}
}

func TestWCERandomCircuits(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		exact := testutil.RandomCircuit(5, 14, 3, seed+40)
		approx := approxVersion(exact, seed*11+3)
		want := bruteWCE(exact, approx, 5)
		r, err := VerifyWCE(context.Background(), exact, approx, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.WCE.Cmp(want) != 0 {
			t.Errorf("seed %d: WCE = %v, want %v", seed, r.WCE, want)
		}
	}
}

func TestWCEWideAdder(t *testing.T) {
	// Beyond per-pattern enumeration comfort (2^24 patterns): a 12-bit
	// truncated adder. Deviation = lowa + lowb <= 2*(2^k - 1), and that
	// bound is achieved. (Wider adders need CDCL for the UNSAT probes of
	// the binary search; our counter intentionally omits learning.)
	n, k := 12, 3
	exact := gen.RippleCarryAdder(n)
	approx := als.TruncatedAdder(n, k)
	r, err := VerifyWCE(context.Background(), exact, approx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := big.NewInt(2 * (1<<uint(k) - 1))
	if r.WCE.Cmp(want) != 0 {
		t.Errorf("WCE = %v, want %v", r.WCE, want)
	}
}

func TestWCEMultiplier(t *testing.T) {
	n, k := 4, 3
	exact := gen.ArrayMultiplier(n)
	approx := als.TruncatedMultiplier(n, k)
	want := bruteWCE(exact, approx, 2*n)
	r, err := VerifyWCE(context.Background(), exact, approx, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.WCE.Cmp(want) != 0 {
		t.Errorf("WCE = %v, want %v", r.WCE, want)
	}
}
