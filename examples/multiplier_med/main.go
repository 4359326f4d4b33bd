// Multiplier MED + deviation distribution: verifies the mean error
// distance of truncated array multipliers (the paper's Table V workload
// class) and then sweeps a threshold comparator miter to obtain the
// exact complementary CDF of the deviation, P(|y - y'| > t) — the
// MACACO-style analysis, each point one model-counting call.
package main

import (
	"context"
	"fmt"
	"log"
	"math/big"
	"time"

	"vacsem"
)

func main() {
	const n = 8
	exact := vacsem.ArrayMultiplier(n)

	fmt.Printf("MED of truncated %dx%d multipliers (exact values over all 2^%d patterns)\n\n", n, n, 2*n)
	fmt.Printf("%-4s %12s %14s %12s\n", "k", "ER", "MED", "runtime")
	// Workers: 0 solves the per-bit sub-miters of the MED miter on one
	// worker per CPU; the counts are identical to a sequential run.
	opt := vacsem.Options{Workers: 0}
	ctx := context.Background()
	for k := 0; k <= 6; k++ {
		approx := vacsem.TruncatedMultiplier(n, k)
		start := time.Now()
		er, err := vacsem.Verify(ctx, exact, approx, vacsem.MetricSpec{Kind: vacsem.MetricER}, opt)
		if err != nil {
			log.Fatal(err)
		}
		med, err := vacsem.Verify(ctx, exact, approx, vacsem.MetricSpec{Kind: vacsem.MetricMED}, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-4d %12.6g %14.6g %12v\n",
			k, er.Float(), med.Float(), time.Since(start).Round(time.Millisecond))
	}

	// Deviation distribution of one design point.
	approx := vacsem.TruncatedMultiplier(n, 5)
	fmt.Printf("\ndeviation distribution of the k=5 design: P(|y-y'| > t)\n\n")
	fmt.Printf("%-8s %14s %14s\n", "t", "P(dev>t)", "exact fraction")
	for _, t := range []int64{0, 1, 2, 4, 8, 16, 32, 64} {
		r, err := vacsem.Verify(ctx, exact, approx,
			vacsem.MetricSpec{Kind: vacsem.MetricThresholdProb, Threshold: big.NewInt(t)}, vacsem.Options{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8d %14.6g %14s\n", t, r.Float(), r.Value.RatString())
	}
	fmt.Println("\nEach row is one #SAT call on a comparator miter; together they give")
	fmt.Println("the exact error CDF that sampling-based estimation can only approximate.")
}
