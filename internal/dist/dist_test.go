package dist

import (
	"context"
	"math"
	"math/big"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
)

func TestBiasValidate(t *testing.T) {
	if err := (Bias{Num: 3, Bits: 2}).Validate(); err != nil {
		t.Error(err)
	}
	if err := (Bias{Num: 5, Bits: 2}).Validate(); err == nil {
		t.Error("over-1 bias accepted")
	}
	if err := (Bias{Num: 1, Bits: 0}).Validate(); err == nil {
		t.Error("zero-bit bias accepted")
	}
	if err := (Bias{Num: 1, Bits: 31}).Validate(); err == nil {
		t.Error("huge bias accepted")
	}
}

func TestBiasProb(t *testing.T) {
	p := Bias{Num: 3, Bits: 3}.Prob()
	if p.Cmp(big.NewRat(3, 8)) != 0 {
		t.Errorf("Prob = %v, want 3/8", p)
	}
}

func TestApplyBiasSignalProbability(t *testing.T) {
	// One input, bias 3/8: P(output=1) must be exactly 3/8.
	c := circuit.New("wire")
	a := c.AddInput("a")
	c.AddOutput(a, "y")
	bc, err := ApplyBias(c, []Bias{{Num: 3, Bits: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if bc.NumInputs() != 3 {
		t.Fatalf("biased circuit has %d inputs, want 3", bc.NumInputs())
	}
	ones := 0
	for x := uint64(0); x < 8; x++ {
		if bc.EvalUint(x) == 1 {
			ones++
		}
	}
	if ones != 3 {
		t.Errorf("biased wire is 1 on %d/8 patterns, want 3", ones)
	}
}

func TestApplyBiasUniformPassThrough(t *testing.T) {
	c := gen.RippleCarryAdder(3)
	biases := make([]Bias, c.NumInputs())
	for i := range biases {
		biases[i] = Uniform()
	}
	bc, err := ApplyBias(c, biases)
	if err != nil {
		t.Fatal(err)
	}
	if bc.NumInputs() != c.NumInputs() {
		t.Fatalf("uniform biases changed input count: %d", bc.NumInputs())
	}
	for x := uint64(0); x < 64; x++ {
		if bc.EvalUint(x) != c.EvalUint(x) {
			t.Fatalf("uniform pass-through changed function at %d", x)
		}
	}
}

// TestBiasedERMatchesDirectComputation: biased ER of an AND gate whose
// approximation is constant 0. Error occurs iff a&b=1, so biased ER =
// p_a * p_b exactly.
func TestBiasedERMatchesDirectComputation(t *testing.T) {
	exact := circuit.New("and")
	a := exact.AddInput("a")
	b := exact.AddInput("b")
	exact.AddOutput(exact.AddGate(circuit.And, a, b), "y")
	approx := circuit.New("zero")
	approx.AddInput("a")
	approx.AddInput("b")
	approx.AddOutput(0, "y")

	biases := []Bias{{Num: 3, Bits: 2}, {Num: 1, Bits: 3}} // 3/4 and 1/8
	want := new(big.Rat).Mul(big.NewRat(3, 4), big.NewRat(1, 8))
	for _, m := range []core.Method{core.MethodVACSEM, core.MethodDPLL, core.MethodEnum} {
		r, err := VerifyBiased(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricER}, biases, core.Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if r.Value.Cmp(want) != 0 {
			t.Errorf("%v: biased ER = %v, want %v", m, r.Value, want)
		}
	}
}

func TestBiasedMED(t *testing.T) {
	// Identity vs constant-0 on one input with bias 5/8: MED = E[x] = 5/8.
	exact := circuit.New("id")
	a := exact.AddInput("a")
	exact.AddOutput(a, "y")
	approx := circuit.New("zero")
	approx.AddInput("a")
	approx.AddOutput(0, "y")
	r, err := VerifyBiased(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricMED}, []Bias{{Num: 5, Bits: 3}}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.Cmp(big.NewRat(5, 8)) != 0 {
		t.Errorf("biased MED = %v, want 5/8", r.Value)
	}
}

func TestApplyBiasErrors(t *testing.T) {
	c := gen.RippleCarryAdder(2)
	if _, err := ApplyBias(c, []Bias{{Num: 1, Bits: 1}}); err == nil {
		t.Error("bias count mismatch accepted")
	}
	bad := make([]Bias, c.NumInputs())
	for i := range bad {
		bad[i] = Bias{Num: 9, Bits: 2}
	}
	if _, err := ApplyBias(c, bad); err == nil {
		t.Error("invalid bias accepted")
	}
}

// TestConditionalER: adder vs LOA conditioned on "low bits of both
// operands are zero" — under that condition the LOA is exact, so the
// conditional ER must be 0 while the unconditional ER is positive.
func TestConditionalER(t *testing.T) {
	n, k := 4, 2
	exact := gen.RippleCarryAdder(n)
	approx := als.LowerORAdder(n, k)

	cond := circuit.New("lowzero")
	ins := make([]int, 2*n)
	for i := range ins {
		ins[i] = cond.AddInput("")
	}
	// a0=a1=b0=b1=0
	acc := cond.Const1()
	for _, i := range []int{0, 1, n, n + 1} {
		acc = cond.AddGate(circuit.And, acc, cond.AddGate(circuit.Not, ins[i]))
	}
	cond.AddOutput(acc, "c")

	uncond, err := core.Verify(context.Background(), exact, approx, core.MetricSpec{Kind: core.MetricER}, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uncond.Value.Sign() == 0 {
		t.Fatal("unconditional ER unexpectedly 0")
	}
	r, err := VerifyERConditional(context.Background(), exact, approx, cond, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.Sign() != 0 {
		t.Errorf("conditional ER = %v, want 0", r.Value)
	}
}

// TestConditionalMEDMatchesBrute cross-checks the conditional MED
// against per-pattern brute force on a small circuit.
func TestConditionalMEDMatchesBrute(t *testing.T) {
	n := 3
	exact := gen.RippleCarryAdder(n)
	approx := als.TruncatedAdder(n, 1)

	// Condition: a != 0.
	cond := circuit.New("anonzero")
	ins := make([]int, 2*n)
	for i := range ins {
		ins[i] = cond.AddInput("")
	}
	or := ins[0]
	for i := 1; i < n; i++ {
		or = cond.AddGate(circuit.Or, or, ins[i])
	}
	cond.AddOutput(or, "c")

	// Brute force.
	var sum, cnt int64
	for x := uint64(0); x < 1<<uint(2*n); x++ {
		a := x & 7
		b := x >> 3
		if a == 0 {
			continue
		}
		cnt++
		ex := a + b
		ap := ((a >> 1) + (b >> 1)) << 1
		d := int64(ex) - int64(ap)
		if d < 0 {
			d = -d
		}
		sum += d
	}
	want := new(big.Rat).SetFrac64(sum, cnt)

	r, err := VerifyMEDConditional(context.Background(), exact, approx, cond, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Value.Cmp(want) != 0 {
		t.Errorf("conditional MED = %v, want %v", r.Value, want)
	}
}

func TestConditionalUnsatisfiable(t *testing.T) {
	exact := gen.RippleCarryAdder(2)
	approx := als.TruncatedAdder(2, 1)
	cond := circuit.New("never")
	for i := 0; i < 4; i++ {
		cond.AddInput("")
	}
	cond.AddOutput(0, "c") // const0
	if _, err := VerifyERConditional(context.Background(), exact, approx, cond, core.Options{}); err == nil {
		t.Error("unsatisfiable condition accepted")
	}
}

func TestConditionalInterfaceChecks(t *testing.T) {
	exact := gen.RippleCarryAdder(2)
	approx := als.TruncatedAdder(2, 1)
	cond := circuit.New("short")
	cond.AddInput("")
	cond.AddOutput(0, "c")
	if _, err := VerifyERConditional(context.Background(), exact, approx, cond, core.Options{}); err == nil {
		t.Error("input-count mismatch accepted")
	}
	cond2 := circuit.New("multi")
	for i := 0; i < 4; i++ {
		cond2.AddInput("")
	}
	cond2.AddOutput(0, "a")
	cond2.AddOutput(0, "b")
	if _, err := VerifyERConditional(context.Background(), exact, approx, cond2, core.Options{}); err == nil {
		t.Error("multi-output condition accepted")
	}
}

// TestConditionalApproxBand pins the (ε, δ) guarantee of a conditional
// metric on the approx backend. The value is a ratio of two separately
// estimated counts, so when both are approximate the band is the
// product of the two factors and the failure probability the union of
// the two: (1+ε)^2-1 and 2δ at the defaults. A denominator counted
// exactly leaves the numerator's band as it is.
func TestConditionalApproxBand(t *testing.T) {
	n := 12
	exact := gen.RippleCarryAdder(n)
	approx := als.LowerORAdder(n, 4)
	// noCarry (the exact sum fits in n bits) has too many models to
	// count exactly under hashing; topBit (a11 ∨ b11) has 3 models over
	// a 2-input support, which the approx backend counts exactly.
	noCarry := circuit.New("nocarry")
	ins := make([]int, 2*n)
	for i := range ins {
		ins[i] = noCarry.AddInput("")
	}
	sum := circuit.Append(noCarry, exact, ins)
	noCarry.AddOutput(noCarry.AddGate(circuit.Not, sum[n]), "c")
	topBit := circuit.New("topbit")
	for i := range ins {
		ins[i] = topBit.AddInput("")
	}
	topBit.AddOutput(topBit.AddGate(circuit.Or, ins[n-1], ins[2*n-1]), "c")

	eps, delta := counter.DefaultEpsilon, counter.DefaultDelta
	for _, tc := range []struct {
		cond             *circuit.Circuit
		wantEps, wantDel float64
	}{
		{noCarry, (1+eps)*(1+eps) - 1, 2 * delta},
		{topBit, eps, delta},
	} {
		ctx := context.Background()
		r, err := VerifyERConditional(ctx, exact, approx, tc.cond, core.Options{Method: core.MethodApprox, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Approx || math.Abs(r.Epsilon-tc.wantEps) > 1e-9 || math.Abs(r.Delta-tc.wantDel) > 1e-9 ||
			math.Abs(r.Confidence-(1-tc.wantDel)) > 1e-9 {
			t.Errorf("%s: approx=%v ε=%v δ=%v confidence=%v, want ε=%v δ=%v confidence=%v",
				tc.cond.Name, r.Approx, r.Epsilon, r.Delta, r.Confidence, tc.wantEps, tc.wantDel, 1-tc.wantDel)
		}
		ex, err := VerifyERConditional(ctx, exact, approx, tc.cond, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, want := r.Float(), ex.Float()
		if got < want/(1+r.Epsilon) || got > want*(1+r.Epsilon) {
			t.Errorf("%s: estimate %v outside the reported band around %v", tc.cond.Name, got, want)
		}
	}
}
