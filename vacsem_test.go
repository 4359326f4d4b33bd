package vacsem_test

// Integration tests of the public API: the flows a downstream adopter
// would write, cross-checked between engines and against closed-form
// expectations.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"

	"vacsem"
	"vacsem/internal/dist"
)

var (
	bg      = context.Background()
	specER  = vacsem.MetricSpec{Kind: vacsem.MetricER}
	specMED = vacsem.MetricSpec{Kind: vacsem.MetricMED}
)

func TestPublicQuickstartFlow(t *testing.T) {
	exact := vacsem.RippleCarryAdder(8)
	approx := vacsem.LowerORAdder(8, 3)
	er, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	enum, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{Method: vacsem.MethodEnum})
	if err != nil {
		t.Fatal(err)
	}
	dpll, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{Method: vacsem.MethodDPLL})
	if err != nil {
		t.Fatal(err)
	}
	if er.Value.Cmp(enum.Value) != 0 || er.Value.Cmp(dpll.Value) != 0 {
		t.Fatalf("engines disagree: %v %v %v", er.Value, dpll.Value, enum.Value)
	}
	if er.Value.Sign() <= 0 || er.Value.Cmp(big.NewRat(1, 1)) >= 0 {
		t.Errorf("LOA ER out of (0,1): %v", er.Value)
	}
}

func TestPublicWideAdderER(t *testing.T) {
	// The paper's headline scale: adders way beyond enumeration. A
	// truncated 64-bit adder (k=1): the result's bit0 is 0 while the
	// true bit0 is a0 XOR b0, and the carry into bit 1 is dropped when
	// a0&b0; exact ER is computable in closed form: error iff
	// (a0 XOR b0) OR (a0 AND b0) = a0 OR b0, so ER = 3/4.
	exact := vacsem.RippleCarryAdder(64)
	approx := truncatedAdder(t, 64, 1)
	r, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.Cmp(big.NewRat(3, 4)) != 0 {
		t.Errorf("64-bit truncated adder ER = %v, want 3/4", r.Value)
	}
	if r.NumInputs != 128 {
		t.Errorf("NumInputs = %d", r.NumInputs)
	}
}

// truncatedAdder builds, via the public API only, an n-bit adder whose
// low k output bits are 0 and whose carry chain starts at bit k.
func truncatedAdder(t *testing.T, n, k int) *vacsem.Circuit {
	t.Helper()
	c := vacsem.NewCircuit("trunc")
	ins := make([]int, 2*n)
	for i := range ins {
		ins[i] = c.AddInput("")
	}
	full := vacsem.RippleCarryAdder(n - k)
	sub := make([]int, 2*(n-k))
	copy(sub, ins[k:n])
	copy(sub[n-k:], ins[n+k:])
	outs := vacsem.AppendCircuit(c, full, sub)
	for j := 0; j < k; j++ {
		c.AddOutput(0, "")
	}
	for _, o := range outs {
		c.AddOutput(o, "")
	}
	return c
}

func TestPublicMEDClosedForm(t *testing.T) {
	// Truncated k=1 adder: deviation = (a0 + b0), E = 1/4*0+1/2*1+1/4*2 = 1.
	exact := vacsem.RippleCarryAdder(16)
	approx := truncatedAdder(t, 16, 1)
	r, err := vacsem.Verify(bg, exact, approx, specMED, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("MED = %v, want 1", r.Value)
	}
}

func TestPublicMultiplierFlow(t *testing.T) {
	exact := vacsem.ArrayMultiplier(5)
	approx := vacsem.TruncatedMultiplier(5, 2)
	v, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	e, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{Method: vacsem.MethodEnum})
	if err != nil {
		t.Fatal(err)
	}
	if v.Value.Cmp(e.Value) != 0 {
		t.Fatalf("vacsem %v != enum %v", v.Value, e.Value)
	}
}

func TestPublicThresholdMonotone(t *testing.T) {
	exact := vacsem.ArrayMultiplier(4)
	approx := vacsem.TruncatedMultiplier(4, 3)
	prev := big.NewRat(2, 1)
	for _, tv := range []int64{0, 1, 3, 7, 15} {
		r, err := vacsem.Verify(bg, exact, approx, vacsem.MetricSpec{Kind: vacsem.MetricThresholdProb, Threshold: big.NewInt(tv)}, vacsem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Cmp(prev) > 0 {
			t.Errorf("P(dev>%d) = %v not monotone decreasing", tv, r.Value)
		}
		prev = r.Value
	}
}

func TestPublicApproximateAndBenchmarks(t *testing.T) {
	for _, name := range []string{"absdiff", "mac", "int2float"} {
		exact, err := vacsem.BenchmarkByName(name)
		if err != nil {
			t.Fatal(err)
		}
		approx := vacsem.Approximate(exact, vacsem.ALSConfig{Seed: 1, TargetER: 0.02, RequireError: true})
		r, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.Value.Sign() <= 0 {
			t.Errorf("%s: RequireError produced zero-error circuit", name)
		}
		if r.Value.Cmp(big.NewRat(1, 4)) > 0 {
			t.Errorf("%s: ER %v far beyond 0.02 budget", name, r.Value)
		}
	}
}

func TestPublicFileRoundTrips(t *testing.T) {
	c := vacsem.ArrayMultiplier(3)
	var blifBuf, aagBuf bytes.Buffer
	if err := vacsem.WriteBLIF(&blifBuf, c); err != nil {
		t.Fatal(err)
	}
	if err := vacsem.WriteAIGER(&aagBuf, c); err != nil {
		t.Fatal(err)
	}
	fromBlif, err := vacsem.ReadBLIF(bytes.NewReader(blifBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fromAag, err := vacsem.ReadAIGER(bytes.NewReader(aagBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// All three must verify ER=0 against each other.
	for _, other := range []*vacsem.Circuit{fromBlif, fromAag} {
		r, err := vacsem.Verify(bg, c, other, specER, vacsem.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Value.Sign() != 0 {
			t.Errorf("round-tripped circuit differs: ER = %v", r.Value)
		}
	}
}

func TestPublicCompressPreservesER(t *testing.T) {
	exact := vacsem.ArrayMultiplier(4)
	approx := vacsem.TruncatedMultiplier(4, 2)
	before, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := vacsem.Verify(bg, vacsem.Compress(exact), vacsem.Compress(approx), specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if before.Value.Cmp(after.Value) != 0 {
		t.Errorf("Compress changed ER: %v -> %v", before.Value, after.Value)
	}
}

func TestPublicToAIGPreservesER(t *testing.T) {
	exact := vacsem.RippleCarryAdder(6)
	approx := vacsem.LowerORAdder(6, 2)
	a, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := vacsem.Verify(bg, vacsem.ToAIG(exact), vacsem.ToAIG(approx), specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Value.Cmp(b.Value) != 0 {
		t.Errorf("ToAIG changed ER: %v -> %v", a.Value, b.Value)
	}
}

func TestPublicBiasedAndConditional(t *testing.T) {
	exact := vacsem.RippleCarryAdder(4)
	approx := vacsem.LowerORAdder(4, 2)
	biases := make([]vacsem.Bias, 8)
	for i := range biases {
		biases[i] = vacsem.UniformBias()
	}
	biased, err := vacsem.VerifyBiased(bg, exact, approx, specER, biases, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if biased.Value.Cmp(plain.Value) != 0 {
		t.Errorf("uniform biases changed ER: %v vs %v", biased.Value, plain.Value)
	}

	cond := vacsem.NewCircuit("always")
	for i := 0; i < 8; i++ {
		cond.AddInput("")
	}
	cond.AddOutput(cond.Const1(), "c")
	condER, err := vacsem.VerifyERConditional(bg, exact, approx, cond, vacsem.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if condER.Value.Cmp(plain.Value) != 0 {
		t.Errorf("trivial condition changed ER: %v vs %v", condER.Value, plain.Value)
	}
}

func TestPublicTimeoutSurface(t *testing.T) {
	exact := vacsem.ArrayMultiplier(10)
	approx := vacsem.TruncatedMultiplier(10, 5)
	_, err := vacsem.Verify(bg, exact, approx, specER, vacsem.Options{Method: vacsem.MethodDPLL, TimeLimit: 1})
	if err != vacsem.ErrTimeout {
		t.Errorf("expected ErrTimeout, got %v", err)
	}
	wide := vacsem.RippleCarryAdder(64)
	_, err = vacsem.Verify(bg, wide, vacsem.LowerORAdder(64, 2), specER, vacsem.Options{Method: vacsem.MethodEnum})
	if err != vacsem.ErrTooLarge {
		t.Errorf("expected ErrTooLarge, got %v", err)
	}
}

// TestRootEntryPointsHonourContext runs every root Verify* entry point
// twice: under an already cancelled context each must fail with
// context.Canceled, and under a live one each must return the value of
// an independent reference computation (a VerifyMetrics, VerifyMiter or
// internal/dist call).
func TestRootEntryPointsHonourContext(t *testing.T) {
	exact := vacsem.RippleCarryAdder(6)
	approx := vacsem.LowerORAdder(6, 2)
	opt := vacsem.Options{Workers: 1}
	n := exact.NumInputs()
	biases := make([]vacsem.Bias, n)
	for i := range biases {
		biases[i] = vacsem.Bias{Num: uint64(1 + i%3), Bits: 2}
	}
	cond := vacsem.NewCircuit("top")
	ins := make([]int, n)
	for i := range ins {
		ins[i] = cond.AddInput("")
	}
	cond.AddOutput(cond.AddGate(vacsem.Or, ins[n/2-1], ins[n-1]), "c")
	erMiter, err := vacsem.ERMiter(exact, approx)
	if err != nil {
		t.Fatal(err)
	}
	medMiter, err := vacsem.MEDMiter(exact, approx)
	if err != nil {
		t.Fatal(err)
	}
	medWeights := make([]*big.Int, medMiter.NumOutputs())
	for j := range medWeights {
		medWeights[j] = new(big.Int).Lsh(big.NewInt(1), uint(j))
	}

	value := func(r *vacsem.Result, err error) (string, error) {
		if err != nil {
			return "", err
		}
		return r.Value.RatString(), nil
	}
	session := func(ctx context.Context, e, a *vacsem.Circuit, specs ...vacsem.MetricSpec) ([]*vacsem.Result, error) {
		sr, err := vacsem.VerifyMetrics(ctx, e, a, specs, opt)
		if err != nil {
			return nil, err
		}
		return sr.Results, nil
	}
	cases := []struct {
		name string
		call func(ctx context.Context) (string, error)
		ref  func() (string, error)
	}{
		{"VerifyMetrics",
			func(ctx context.Context) (string, error) {
				rs, err := session(ctx, exact, approx, specER, specMED)
				if err != nil {
					return "", err
				}
				return rs[0].Value.RatString() + " " + rs[1].Value.RatString(), nil
			},
			func() (string, error) {
				er, err := value(vacsem.VerifyMiter(bg, "er", erMiter, []*big.Int{big.NewInt(1)}, opt))
				if err != nil {
					return "", err
				}
				med, err := value(vacsem.VerifyMiter(bg, "med", medMiter, medWeights, opt))
				return er + " " + med, err
			}},
		{"Verify",
			func(ctx context.Context) (string, error) {
				return value(vacsem.Verify(ctx, exact, approx, specMED, opt))
			},
			func() (string, error) {
				rs, err := session(bg, exact, approx, specMED)
				if err != nil {
					return "", err
				}
				return rs[0].Value.RatString(), nil
			}},
		{"VerifyMiter",
			func(ctx context.Context) (string, error) {
				return value(vacsem.VerifyMiter(ctx, "er", erMiter, []*big.Int{big.NewInt(1)}, opt))
			},
			func() (string, error) {
				rs, err := session(bg, exact, approx, specER)
				if err != nil {
					return "", err
				}
				return rs[0].Value.RatString(), nil
			}},
		{"VerifyWCE",
			func(ctx context.Context) (string, error) {
				r, err := vacsem.VerifyWCE(ctx, exact, approx, opt)
				if err != nil {
					return "", err
				}
				return r.WCE.String(), nil
			},
			func() (string, error) {
				// The WCE is the smallest t with P(|dev| > t) = 0.
				specs := make([]vacsem.MetricSpec, 1<<uint(exact.NumOutputs()))
				for i := range specs {
					specs[i] = vacsem.MetricSpec{Kind: vacsem.MetricThresholdProb, Threshold: big.NewInt(int64(i))}
				}
				rs, err := session(bg, exact, approx, specs...)
				if err != nil {
					return "", err
				}
				for i, r := range rs {
					if r.Value.Sign() == 0 {
						return fmt.Sprint(i), nil
					}
				}
				return "", fmt.Errorf("no threshold with zero probability")
			}},
		{"VerifyBiased",
			func(ctx context.Context) (string, error) {
				return value(vacsem.VerifyBiased(ctx, exact, approx, specMED, biases, opt))
			},
			func() (string, error) {
				be, err := dist.ApplyBias(exact, biases)
				if err != nil {
					return "", err
				}
				ba, err := dist.ApplyBias(approx, biases)
				if err != nil {
					return "", err
				}
				rs, err := session(bg, be, ba, specMED)
				if err != nil {
					return "", err
				}
				return rs[0].Value.RatString(), nil
			}},
		{"VerifyERConditional",
			func(ctx context.Context) (string, error) {
				return value(vacsem.VerifyERConditional(ctx, exact, approx, cond, opt))
			},
			func() (string, error) {
				return value(dist.VerifyERConditional(bg, exact, approx, cond, opt))
			}},
		{"VerifyMEDConditional",
			func(ctx context.Context) (string, error) {
				return value(vacsem.VerifyMEDConditional(ctx, exact, approx, cond, opt))
			},
			func() (string, error) {
				return value(dist.VerifyMEDConditional(bg, exact, approx, cond, opt))
			}},
	}
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	for _, tc := range cases {
		if _, err := tc.call(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: cancelled context: err = %v, want context.Canceled", tc.name, err)
		}
		got, err := tc.call(bg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := tc.ref()
		if err != nil {
			t.Fatalf("%s reference: %v", tc.name, err)
		}
		if got != want {
			t.Errorf("%s = %s, reference %s", tc.name, got, want)
		}
	}
}
