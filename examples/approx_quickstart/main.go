// Approx quickstart: estimate the error rate of an approximate adder
// with the (ε, δ) approximate-counting backend and compare it against
// the exact VACSEM value. The estimate comes with the guarantee
//
//	Pr[ exact/(1+ε) <= estimate <= (1+ε)·exact ] >= 1-δ
//
// and a fixed -count-seed makes the XOR sampling — and therefore the
// estimate — reproducible.
//
// With -write DIR the program instead serializes the adder pair as
// BLIF files (adder8.blif, adder8_apx.blif) and exits; scripts/check.sh
// uses that to feed the vacsem CLI's approx smoke test.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/big"
	"os"
	"path/filepath"
	"time"

	"vacsem"
)

func main() {
	write := flag.String("write", "", "write the adder pair as BLIF files into this directory and exit")
	flag.Parse()

	exact := vacsem.RippleCarryAdder(8)
	approx := vacsem.LowerORAdder(8, 3) // low 3 bits approximated

	if *write != "" {
		if err := writePair(*write, exact, approx); err != nil {
			log.Fatal(err)
		}
		return
	}

	ctx := context.Background()
	erSpec := vacsem.MetricSpec{Kind: vacsem.MetricER}
	ref, err := vacsem.Verify(ctx, exact, approx, erSpec, vacsem.Options{Method: vacsem.MethodVACSEM})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact   : ER = %s (%.6g) in %v\n",
		ref.Value.RatString(), ref.Float(), ref.Runtime.Round(time.Microsecond))

	// Tighter ε means a smaller tolerance band but a larger cell-size
	// pivot (more exact-counting work per probe); smaller δ means more
	// estimation rounds. The seed fixes the sampled parity constraints.
	est, err := vacsem.Verify(ctx, exact, approx, erSpec, vacsem.Options{
		Method: vacsem.MethodApprox, Epsilon: 0.2, Delta: 0.1, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("approx  : ER = %s (%.6g) in %v\n",
		est.Value.RatString(), est.Float(), est.Runtime.Round(time.Microsecond))
	if est.Approx {
		fmt.Printf("guarantee: value ± ε (ε=%g) @ confidence %.4g (δ=%.4g)\n",
			est.Epsilon, est.Confidence, est.Delta)
	} else {
		fmt.Println("guarantee: exact (the count fit under the pivot)")
	}

	// The estimate must land inside the band — with probability 1-δ in
	// general, deterministically for this fixed seed.
	band := new(big.Rat).SetFloat64(1 + est.Epsilon)
	hi := new(big.Rat).Mul(ref.Value, band)
	lo := new(big.Rat).Mul(est.Value, band) // est*(1+ε) >= ref <=> est >= ref/(1+ε)
	if lo.Cmp(ref.Value) < 0 || est.Value.Cmp(hi) > 0 {
		log.Fatalf("estimate %s outside the (1+ε) band of %s",
			est.Value.RatString(), ref.Value.RatString())
	}
	fmt.Println("estimate lands inside the (1+ε) band of the exact value")
}

// writePair serializes the adder pair as BLIF files under dir.
func writePair(dir string, exact, approx *vacsem.Circuit) error {
	for _, c := range []struct {
		name string
		circ *vacsem.Circuit
	}{{"adder8.blif", exact}, {"adder8_apx.blif", approx}} {
		f, err := os.Create(filepath.Join(dir, c.name))
		if err != nil {
			return err
		}
		if err := vacsem.WriteBLIF(f, c.circ); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
