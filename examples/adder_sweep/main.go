// Adder design-space sweep: the error-tolerant-design story from the
// paper's introduction. An architect choosing how many low bits of a
// 24-bit adder to approximate needs *exact* error metrics for each
// candidate — estimates from sampling can be off by orders of magnitude
// at low error rates. This example sweeps the lower-OR adder (LOA) and
// the truncated adder across the approximation degree k and verifies
// ER, MED and mean Hamming distance formally for each point.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"vacsem"
)

const width = 16

func main() {
	exact := vacsem.RippleCarryAdder(width)
	// All three metrics verify in one session: the shared base miter is
	// built once and deviation bits common to several metrics are
	// counted once.
	specs := []vacsem.MetricSpec{
		{Kind: vacsem.MetricER}, {Kind: vacsem.MetricMED}, {Kind: vacsem.MetricMHD},
	}

	fmt.Printf("design-space sweep of approximate %d-bit adders (formal, all 2^%d patterns)\n\n",
		width, 2*width)
	fmt.Printf("%-14s %-3s %12s %14s %10s %12s\n", "family", "k", "ER", "MED", "MHD", "runtime")

	for _, family := range []struct {
		name  string
		build func(k int) *vacsem.Circuit
	}{
		{"lower-OR", func(k int) *vacsem.Circuit { return vacsem.LowerORAdder(width, k) }},
		{"truncated", func(k int) *vacsem.Circuit { return truncated(k) }},
	} {
		for k := 0; k <= 6; k += 2 {
			approx := family.build(k)
			start := time.Now()
			sr, err := vacsem.VerifyMetrics(context.Background(), exact, approx, specs, vacsem.Options{})
			if err != nil {
				log.Fatal(err)
			}
			er, med, mhd := sr.Results[0], sr.Results[1], sr.Results[2]
			fmt.Printf("%-14s %-3d %12.6g %14.6g %10.4g %12v\n",
				family.name, k, er.Float(), med.Float(), mhd.Float(),
				time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
	fmt.Println("Reading the table: at equal k the lower-OR adder beats plain truncation")
	fmt.Println("on every metric (its a|b low bits and carry guess are right far more")
	fmt.Println("often than a constant 0), at the cost of k extra OR gates — the exact")
	fmt.Println("numbers above are what a sampling-based estimator can only approximate.")
}

// truncated builds the truncated adder through the public API: an
// approximate adder whose k low output bits are constant 0.
func truncated(k int) *vacsem.Circuit {
	c := vacsem.NewCircuit(fmt.Sprintf("trunc%d_%d", width, k))
	ins := make([]int, 2*width)
	for i := range ins {
		ins[i] = c.AddInput(fmt.Sprintf("x%d", i))
	}
	full := vacsem.RippleCarryAdder(width)
	outs := vacsem.AppendCircuit(c, full, ins)
	for j, o := range outs {
		if j < k {
			c.AddOutput(0, fmt.Sprintf("s%d", j)) // const0
		} else {
			c.AddOutput(o, fmt.Sprintf("s%d", j))
		}
	}
	return c
}
