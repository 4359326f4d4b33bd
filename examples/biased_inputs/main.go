// Non-uniform input distributions — the extension the paper lists as
// future work. Real workloads rarely exercise inputs uniformly: sensor
// values cluster near zero, sparse neural activations are mostly zero.
// This example verifies how the error of an approximate adder shifts
// when the operands' high bits are rarely set (small-operand workload),
// and how conditioning on a workload constraint changes the verdict.
package main

import (
	"context"
	"fmt"
	"log"

	"vacsem"
)

const width = 10

func main() {
	exact := vacsem.RippleCarryAdder(width)
	approx := vacsem.LowerORAdder(width, 3)
	ctx := context.Background()
	erSpec := vacsem.MetricSpec{Kind: vacsem.MetricER}
	medSpec := vacsem.MetricSpec{Kind: vacsem.MetricMED}

	// Uniform baseline.
	er, err := vacsem.Verify(ctx, exact, approx, erSpec, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	med, err := vacsem.Verify(ctx, exact, approx, medSpec, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("uniform inputs      : ER = %-10.6g MED = %.6g\n", er.Float(), med.Float())

	// Sparse workload: each low-half bit of both operands is 1 with
	// probability 1/8 only (e.g. mostly-small residuals), high half
	// uniform. The LOA's errors live exactly in the low bits, so this
	// workload shift changes the verdict substantially.
	biases := make([]vacsem.Bias, 2*width)
	for op := 0; op < 2; op++ {
		for j := 0; j < width; j++ {
			b := vacsem.UniformBias()
			if j < width/2 {
				b = vacsem.Bias{Num: 1, Bits: 3} // 1/8
			}
			biases[op*width+j] = b
		}
	}
	erB, err := vacsem.VerifyBiased(ctx, exact, approx, erSpec, biases, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	medB, err := vacsem.VerifyBiased(ctx, exact, approx, medSpec, biases, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sparse-low biased   : ER = %-10.6g MED = %.6g\n", erB.Float(), medB.Float())

	// Conditional verification: the datapath guarantees the operands'
	// low 3 bits are never both all-ones (no worst-case LOA pattern).
	cond := vacsem.NewCircuit("guard")
	ins := make([]int, 2*width)
	for i := range ins {
		ins[i] = cond.AddInput(fmt.Sprintf("x%d", i))
	}
	allOnesA := cond.AddGate(vacsem.And, ins[0], ins[1])
	allOnesA = cond.AddGate(vacsem.And, allOnesA, ins[2])
	allOnesB := cond.AddGate(vacsem.And, ins[width], ins[width+1])
	allOnesB = cond.AddGate(vacsem.And, allOnesB, ins[width+2])
	both := cond.AddGate(vacsem.And, allOnesA, allOnesB)
	cond.AddOutput(cond.AddGate(vacsem.Not, both), "ok")

	erC, err := vacsem.VerifyERConditional(ctx, exact, approx, cond, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	medC, err := vacsem.VerifyMEDConditional(ctx, exact, approx, cond, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("guarded workload    : ER = %-10.6g MED = %.6g\n", erC.Float(), medC.Float())
	fmt.Println("\nAll three rows are exact (model-counted), not sampled estimates.")
}
