// Custom average-error metric via a user-defined deviation miter.
//
// Section II-A of the paper notes that beyond ER and MED, "verifying
// other average error metrics can also be converted into #SAT problems
// similarly". This example builds such a metric from scratch with the
// public API: for an approximate absolute-difference unit, it verifies
//
//  1. the probability that the *parity* of the result is wrong (a metric
//     a checksum-protected datapath would care about), and
//  2. a weighted bit-flip cost, where a flip in output bit j costs 2^j
//     cents — built as a deviation miter whose outputs are the per-bit
//     XORs, verified with custom weights.
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"

	"vacsem"
)

func main() {
	exact, err := vacsem.BenchmarkByName("absdiff")
	if err != nil {
		log.Fatal(err)
	}
	approx := vacsem.Approximate(exact, vacsem.ALSConfig{
		Seed: 42, TargetER: 0.05, RequireError: true,
	})
	fmt.Printf("exact  : %s\napprox : %s\n\n", exact.Stat(), approx.Stat())

	// --- Metric 1: parity error probability ------------------------------
	// Miter: one output, XOR of the parities of both result words.
	m := vacsem.NewCircuit("parity_miter")
	ins := make([]int, exact.NumInputs())
	for i := range ins {
		ins[i] = m.AddInput(fmt.Sprintf("x%d", i))
	}
	ye := vacsem.AppendCircuit(m, exact, ins)
	ya := vacsem.AppendCircuit(m, approx, ins)
	par := func(bits []int) int {
		acc := bits[0]
		for _, b := range bits[1:] {
			acc = m.AddGate(vacsem.Xor, acc, b)
		}
		return acc
	}
	m.AddOutput(m.AddGate(vacsem.Xor, par(ye), par(ya)), "parity_err")

	r, err2 := vacsem.VerifyMiter(context.Background(), "parity-error", m, []*big.Int{big.NewInt(1)}, vacsem.Options{})
	if err2 != nil {
		log.Fatal(err2)
	}
	fmt.Printf("P(parity wrong)      = %-10.6g (%s), runtime %v\n",
		r.Float(), r.Value.RatString(), r.Runtime)

	// --- Metric 2: weighted bit-flip cost --------------------------------
	// Miter: one output per bit position, weight 2^j.
	hd := vacsem.NewCircuit("flipcost_miter")
	ins2 := make([]int, exact.NumInputs())
	for i := range ins2 {
		ins2[i] = hd.AddInput(fmt.Sprintf("x%d", i))
	}
	ye2 := vacsem.AppendCircuit(hd, exact, ins2)
	ya2 := vacsem.AppendCircuit(hd, approx, ins2)
	weights := make([]*big.Int, len(ye2))
	for j := range ye2 {
		hd.AddOutput(hd.AddGate(vacsem.Xor, ye2[j], ya2[j]), fmt.Sprintf("flip%d", j))
		weights[j] = new(big.Int).Lsh(big.NewInt(1), uint(j))
	}
	r2, err := vacsem.VerifyMiter(context.Background(), "flip-cost", hd, weights, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("E[weighted flip cost] = %-10.6g (%s), runtime %v\n",
		r2.Float(), r2.Value.RatString(), r2.Runtime)

	// Cross-check both custom metrics against exhaustive enumeration.
	for name, miter := range map[string]*vacsem.Circuit{"parity": m, "flipcost": hd} {
		w := []*big.Int{big.NewInt(1)}
		if name == "flipcost" {
			w = weights
		}
		enum, err := vacsem.VerifyMiter(context.Background(), name, miter, w, vacsem.Options{Method: vacsem.MethodEnum})
		if err != nil {
			log.Fatal(err)
		}
		vac, err := vacsem.VerifyMiter(context.Background(), name, miter, w, vacsem.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cross-check %-9s: enum == vacsem: %v\n", name, enum.Value.Cmp(vac.Value) == 0)
	}
}
