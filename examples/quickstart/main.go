// Quickstart: formally verify the error rate and mean error distance of
// a classic approximate adder (the lower-OR adder, LOA) against the
// exact ripple-carry adder — the workload class of the paper's Table IV
// and V — using the three engines the paper compares.
package main

import (
	"context"
	"fmt"
	"log"
	"runtime"
	"time"

	"vacsem"
)

func main() {
	const width = 16 // 32 inputs: far beyond per-pattern enumeration comfort
	exact := vacsem.RippleCarryAdder(width)
	approx := vacsem.LowerORAdder(width, 4) // low 4 bits approximated

	ctx := context.Background()
	erSpec := vacsem.MetricSpec{Kind: vacsem.MetricER}
	medSpec := vacsem.MetricSpec{Kind: vacsem.MetricMED}

	fmt.Printf("exact  : %s\n", exact.Stat())
	fmt.Printf("approx : %s\n\n", approx.Stat())

	// The MED miter splits into one independent #SAT problem per
	// deviation bit; Workers solves them concurrently (results are
	// bit-identical to the sequential run), and Progress streams each
	// completion.
	progress := func(ev vacsem.ProgressEvent) {
		fmt.Printf("    [%d/%d] %s done in %v\n",
			ev.Done, ev.Total, ev.Output, ev.Runtime.Round(time.Microsecond))
	}
	for _, m := range []vacsem.Method{vacsem.MethodVACSEM, vacsem.MethodDPLL} {
		er, err := vacsem.Verify(ctx, exact, approx, erSpec, vacsem.Options{Method: m})
		if err != nil {
			log.Fatalf("%v ER: %v", m, err)
		}
		opt := vacsem.Options{Method: m, Workers: runtime.GOMAXPROCS(0)}
		if m == vacsem.MethodVACSEM {
			opt.Progress = progress
		}
		med, err := vacsem.Verify(ctx, exact, approx, medSpec, opt)
		if err != nil {
			log.Fatalf("%v MED: %v", m, err)
		}
		fmt.Printf("[%v]\n", m)
		fmt.Printf("  ER  = %-12.6g (exact: %s)   in %v\n",
			er.Float(), er.Value.RatString(), er.Runtime.Round(time.Microsecond))
		fmt.Printf("  MED = %-12.6g (exact: %s)   in %v  (%d decisions, %d sim calls)\n\n",
			med.Float(), med.Value.RatString(), med.Runtime.Round(time.Microsecond),
			med.TotalStats.Decisions, med.TotalStats.SimCalls)
	}

	// Exhaustive enumeration is the ground-truth baseline while the
	// input space is still enumerable (2^32 here is already painful, so
	// demonstrate on a narrower adder).
	smallExact := vacsem.RippleCarryAdder(8)
	smallApprox := vacsem.LowerORAdder(8, 4)
	enum, err := vacsem.Verify(ctx, smallExact, smallApprox, erSpec, vacsem.Options{Method: vacsem.MethodEnum})
	if err != nil {
		log.Fatal(err)
	}
	vac, err := vacsem.Verify(ctx, smallExact, smallApprox, erSpec, vacsem.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("8-bit cross-check: enum ER = %s, VACSEM ER = %s (equal: %v)\n",
		enum.Value.RatString(), vac.Value.RatString(), enum.Value.Cmp(vac.Value) == 0)
}
