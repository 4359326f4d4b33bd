// Package dist extends VACSEM beyond the paper's uniform-input
// assumption — the extension the paper lists as future work ("expand
// VACSEM's capabilities to accommodate non-uniform input distributions").
//
// Two mechanisms are provided, both reductions to the existing uniform
// counting engine, so every engine (VACSEM, DPLL, enumeration) and every
// metric keeps working unchanged:
//
//   - Biased inputs with dyadic probabilities k/2^m: each primary input
//     is re-expressed as a comparator over m fresh uniform inputs
//     ("rand < k"), which has probability exactly k/2^m of being 1.
//     Metrics over the transformed circuit equal weighted metrics over
//     the original inputs.
//
//   - Conditional metrics: metrics restricted to input patterns
//     satisfying a user-supplied condition circuit (an input-space
//     constraint such as "operands are never both zero"). Implemented as
//     the ratio of two counts: E[F | cond] = Σ w_j·#SAT(f_j ∧ cond) /
//     #SAT(cond).
package dist

import (
	"context"
	"fmt"
	"math/big"

	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/miter"
)

// Bias is a dyadic probability Num/2^Bits with 0 <= Num <= 2^Bits.
type Bias struct {
	Num  uint64
	Bits int
}

// Uniform is the 1/2 bias (one fresh input, threshold 1).
func Uniform() Bias { return Bias{Num: 1, Bits: 1} }

// Validate checks the bias is well-formed.
func (b Bias) Validate() error {
	if b.Bits < 1 || b.Bits > 30 {
		return fmt.Errorf("dist: bias denominator 2^%d out of range [2^1, 2^30]", b.Bits)
	}
	if b.Num > 1<<uint(b.Bits) {
		return fmt.Errorf("dist: bias %d/2^%d exceeds 1", b.Num, b.Bits)
	}
	return nil
}

// Prob returns the bias as an exact rational.
func (b Bias) Prob() *big.Rat {
	return new(big.Rat).SetFrac(
		new(big.Int).SetUint64(b.Num),
		new(big.Int).Lsh(big.NewInt(1), uint(b.Bits)))
}

// ApplyBias rewrites the circuit so input i, instead of being a uniform
// primary input, is driven by a comparator "rand_i < biases[i].Num" over
// biases[i].Bits fresh uniform inputs. The returned circuit computes the
// same outputs; uniform metrics over it equal biased metrics over the
// original. Inputs with the Uniform bias are passed through untouched.
func ApplyBias(c *circuit.Circuit, biases []Bias) (*circuit.Circuit, error) {
	if len(biases) != c.NumInputs() {
		return nil, fmt.Errorf("dist: %d biases for %d inputs", len(biases), c.NumInputs())
	}
	for i, b := range biases {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("input %d: %w", i, err)
		}
	}
	nc := circuit.New(c.Name + "_biased")
	drivers := make([]int, c.NumInputs())
	for i := range biases {
		b := biases[i]
		if b.Num == 1 && b.Bits == 1 {
			drivers[i] = nc.AddInput(c.Nodes[c.Inputs[i]].Name)
			continue
		}
		fresh := make([]int, b.Bits)
		for j := range fresh {
			fresh[j] = nc.AddInput(fmt.Sprintf("b%d_%d", i, j))
		}
		drivers[i] = ltConst(nc, fresh, b.Num)
	}
	outs := circuit.Append(nc, c, drivers)
	for j, o := range outs {
		nc.AddOutput(o, c.OutputName(j))
	}
	return nc, nil
}

// ltConst builds "value(bits) < k" (bits LSB-first), scanning MSB->LSB.
func ltConst(c *circuit.Circuit, bits []int, k uint64) int {
	if k >= 1<<uint(len(bits)) {
		return c.Const1()
	}
	lt := 0 // const0
	eq := c.Const1()
	for j := len(bits) - 1; j >= 0; j-- {
		kj := k>>uint(j)&1 == 1
		if kj {
			// bit 0 while k-bit 1 => less at this position
			nb := c.AddGate(circuit.Not, bits[j])
			lt = c.AddGate(circuit.Or, lt, c.AddGate(circuit.And, eq, nb))
			eq = c.AddGate(circuit.And, eq, bits[j])
		} else {
			// k-bit 0: can only stay equal when bit 0
			nb := c.AddGate(circuit.Not, bits[j])
			eq = c.AddGate(circuit.And, eq, nb)
		}
	}
	return lt
}

// VerifyBiased verifies spec when input i is 1 with probability
// biases[i] (independent inputs, dyadic probabilities): a uniform
// verification of the bias-expanded circuit pair.
func VerifyBiased(ctx context.Context, exact, approx *circuit.Circuit, spec core.MetricSpec, biases []Bias, opt core.Options) (*core.Result, error) {
	be, err := ApplyBias(exact, biases)
	if err != nil {
		return nil, err
	}
	ba, err := ApplyBias(approx, biases)
	if err != nil {
		return nil, err
	}
	r, err := core.Verify(ctx, be, ba, spec, opt)
	if err != nil {
		return nil, err
	}
	r.Metric = spec.MetricName() + "(biased)"
	return r, nil
}

// VerifyERConditional verifies ER restricted to the input patterns on
// which cond (a single-output circuit over the same inputs) is 1:
// ER | cond = #SAT(er-miter ∧ cond) / #SAT(cond). It returns an error
// when the condition is unsatisfiable.
func VerifyERConditional(ctx context.Context, exact, approx, cond *circuit.Circuit, opt core.Options) (*core.Result, error) {
	m, err := miter.ER(exact, approx)
	if err != nil {
		return nil, err
	}
	return conditional(ctx, "ER|cond", m, []*big.Int{big.NewInt(1)}, cond, opt)
}

// VerifyMEDConditional verifies MED restricted to patterns with cond=1.
func VerifyMEDConditional(ctx context.Context, exact, approx, cond *circuit.Circuit, opt core.Options) (*core.Result, error) {
	m, err := miter.MED(exact, approx)
	if err != nil {
		return nil, err
	}
	w := make([]*big.Int, m.NumOutputs())
	for j := range w {
		w[j] = new(big.Int).Lsh(big.NewInt(1), uint(j))
	}
	return conditional(ctx, "MED|cond", m, w, cond, opt)
}

// conditional computes sum_j w_j*#SAT(f_j & cond) / #SAT(cond).
func conditional(ctx context.Context, name string, m *circuit.Circuit, weights []*big.Int, cond *circuit.Circuit, opt core.Options) (*core.Result, error) {
	if cond.NumInputs() != m.NumInputs() {
		return nil, fmt.Errorf("dist: condition has %d inputs, circuits have %d",
			cond.NumInputs(), m.NumInputs())
	}
	if cond.NumOutputs() != 1 {
		return nil, fmt.Errorf("dist: condition must have exactly one output")
	}
	// Constrained miter: each output AND-ed with cond.
	cm := circuit.New(m.Name + "_cond")
	ins := make([]int, m.NumInputs())
	for i := range ins {
		ins[i] = cm.AddInput(m.Nodes[m.Inputs[i]].Name)
	}
	mouts := circuit.Append(cm, m, ins)
	couts := circuit.Append(cm, cond, ins)
	for j, o := range mouts {
		cm.AddOutput(cm.AddGate(circuit.And, o, couts[0]), m.OutputName(j))
	}
	num, err := core.VerifyMiter(ctx, name, cm, weights, opt)
	if err != nil {
		return nil, err
	}
	// Denominator: #SAT(cond) / 2^I as a probability.
	condM := circuit.New(cond.Name + "_only")
	ins2 := make([]int, cond.NumInputs())
	for i := range ins2 {
		ins2[i] = condM.AddInput("")
	}
	condOuts := circuit.Append(condM, cond, ins2)
	condM.AddOutput(condOuts[0], "cond")
	den, err := core.VerifyMiter(ctx, "cond", condM, []*big.Int{big.NewInt(1)}, opt)
	if err != nil {
		return nil, err
	}
	if den.Value.Sign() == 0 {
		return nil, fmt.Errorf("dist: condition is unsatisfiable")
	}
	num.Metric = name
	num.Value = new(big.Rat).Quo(num.Value, den.Value)
	if num.Approx || den.Approx {
		// num ∈ [N/(1+ε_n), N(1+ε_n)] and den ∈ [D/(1+ε_d), D(1+ε_d)],
		// so the ratio is within a (1+ε_n)(1+ε_d) factor of N/D whenever
		// both land in their bands: union bound over the two failures.
		num.Approx = true
		num.Epsilon = (1+num.Epsilon)*(1+den.Epsilon) - 1
		num.Delta = min(num.Delta+den.Delta, 1)
		num.Confidence = 1 - num.Delta
		num.BestEffort = num.BestEffort || den.BestEffort
	}
	return num, nil
}
