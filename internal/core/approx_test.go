package core

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

// ratWithinBand reports want/(1+eps) <= got <= want*(1+eps) in exact
// rational arithmetic.
func ratWithinBand(got, want *big.Rat, eps float64) bool {
	band := new(big.Rat).SetFloat64(1 + eps)
	hi := new(big.Rat).Mul(want, band)
	lo := new(big.Rat).Mul(got, band) // got*(1+eps) >= want <=> got >= want/(1+eps)
	return lo.Cmp(want) >= 0 && got.Cmp(hi) <= 0
}

// TestApproxAdderWithinEpsilon is the acceptance case of the approx
// backend: ER of an 8-bit approximate adder pair at ε=0.1, δ=0.05 must
// land within ε of the exact value, across seeded trials. Seeds are
// fixed, so the XOR sampling is deterministic and the test cannot
// flake.
func TestApproxAdderWithinEpsilon(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	apx := als.LowerORAdder(8, 3)
	ref, err := Verify(context.Background(), exact, apx, MetricSpec{Kind: MetricER}, Options{Method: MethodVACSEM})
	if err != nil {
		t.Fatal(err)
	}
	trials := int64(4)
	if testing.Short() || testutil.RaceEnabled {
		// One seed keeps the acceptance parameters exercised without
		// dominating the package runtime (δ=0.05 means 33 estimation
		// rounds per trial; ~5x more under race instrumentation).
		trials = 1
	}
	for seed := int64(0); seed < trials; seed++ {
		res, err := Verify(context.Background(), exact, apx, MetricSpec{Kind: MetricER}, Options{
			Method: MethodApprox, Epsilon: 0.1, Delta: 0.05, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ratWithinBand(res.Value, ref.Value, 0.1) {
			t.Errorf("seed %d: approx ER %s outside (1+0.1) band of exact %s",
				seed, res.Value.RatString(), ref.Value.RatString())
		}
		if res.Approx {
			if res.Epsilon != 0.1 {
				t.Errorf("seed %d: Epsilon = %g, want 0.1", seed, res.Epsilon)
			}
			if res.Delta <= 0 || res.Delta >= 1 || res.Confidence != 1-res.Delta {
				t.Errorf("seed %d: Delta/Confidence inconsistent: %g / %g",
					seed, res.Delta, res.Confidence)
			}
		} else if res.Value.Cmp(ref.Value) != 0 {
			t.Errorf("seed %d: exact-path approx %s != %s",
				seed, res.Value.RatString(), ref.Value.RatString())
		}
	}
}

// TestApproxCrossValidatesExactBackends checks the approx backend
// against every exact backend on small random circuit pairs (<= 16
// inputs): each estimate must land within the (1+ε) band of the exact
// value, which dpll, enum and bdd all agree on. The pairs are
// independent random circuits with the same I/O signature, so their
// deviation counts are large enough that at least some trials must go
// through XOR hashing rather than the small-count exact shortcut.
func TestApproxCrossValidatesExactBackends(t *testing.T) {
	const eps = 0.8
	trials := int64(8)
	if testing.Short() {
		trials = 3
	}
	hashed := 0
	for seed := int64(0); seed < trials; seed++ {
		n := 8 + int(seed%4)
		c := testutil.RandomCircuit(n, 15+int(seed*5%25), 2, seed+6061)
		apx := testutil.RandomCircuit(n, 15+int(seed*7%25), 2, seed+7207)
		apx.Name = c.Name
		est, err := Verify(context.Background(), c, apx, MetricSpec{Kind: MetricER}, Options{
			Method: MethodApprox, Epsilon: eps, Delta: 0.45, Seed: seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if est.Approx {
			hashed++
		}
		for _, m := range []Method{MethodDPLL, MethodEnum, MethodBDD} {
			ref, err := Verify(context.Background(), c, apx, MetricSpec{Kind: MetricER}, Options{Method: m})
			if err != nil {
				t.Fatal(err)
			}
			if est.Approx {
				if !ratWithinBand(est.Value, ref.Value, eps) {
					t.Errorf("seed %d: approx %s outside (1+%g) band of %v value %s",
						seed, est.Value.RatString(), eps, m, ref.Value.RatString())
				}
			} else if est.Value.Cmp(ref.Value) != 0 {
				t.Errorf("seed %d: exact-path approx %s != %v value %s",
					seed, est.Value.RatString(), m, ref.Value.RatString())
			}
		}
	}
	if hashed == 0 {
		t.Error("no trial exercised XOR hashing: every estimate took the exact shortcut")
	}
}

// TestApproxSeedDeterminism: one Options.Seed reproduces the estimate
// exactly, at any worker count — tasks derive their streams from the
// seed and their task index, never from scheduling.
func TestApproxSeedDeterminism(t *testing.T) {
	exact := gen.RippleCarryAdder(6)
	apx := als.LowerORAdder(6, 2)
	opt := Options{Method: MethodApprox, Epsilon: 0.3, Delta: 0.3, Seed: 11, Workers: 1}
	a, err := Verify(context.Background(), exact, apx, MetricSpec{Kind: MetricMED}, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 4
	b, err := Verify(context.Background(), exact, apx, MetricSpec{Kind: MetricMED}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value.Cmp(b.Value) != 0 || a.Count.Cmp(b.Count) != 0 {
		t.Errorf("same seed, different estimates across worker counts: %s vs %s",
			a.Value.RatString(), b.Value.RatString())
	}
	if a.Approx != b.Approx || a.Epsilon != b.Epsilon || a.Delta != b.Delta {
		t.Errorf("approx metadata differs across worker counts: %+v vs %+v", a, b)
	}
}

// TestApproxProbeReuseAcrossTasks: two structurally isomorphic output
// cones over disjoint input halves are distinct plan tasks (the dedup
// key includes input positions) but extract to identical cone circuits
// and therefore identical CNF. Because every task draws its hash rows
// from the session seed alone and the engine shares one probe cache per
// approx session, the second task must replay the first task's probes
// from the cache instead of re-counting. Workers is pinned to 1 so the
// first task completes before the second starts: at least half of all
// probes are then cache hits, and the two estimates are identical.
func TestApproxProbeReuseAcrossTasks(t *testing.T) {
	m := circuit.New("twin_parity")
	ins := make([]int, 16)
	for i := range ins {
		ins[i] = m.AddInput(fmt.Sprintf("x%d", i))
	}
	parity := func(lo int) int {
		g := ins[lo]
		for i := lo + 1; i < lo+8; i++ {
			g = m.AddGate(circuit.Xor, g, ins[i])
		}
		return g
	}
	m.AddOutput(parity(0), "d0")
	m.AddOutput(parity(8), "d1")
	// Each parity cone has 128 models over its 8 inputs — above the
	// ε=0.8 pivot of 72, so both tasks go through XOR hashing.
	res, err := VerifyMiter(context.Background(), "twin_parity", m,
		[]*big.Int{big.NewInt(1), big.NewInt(1)},
		Options{Method: MethodApprox, Epsilon: 0.8, Delta: 0.2, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Subs) != 2 {
		t.Fatalf("expected 2 sub-miter tasks, got %d", len(res.Subs))
	}
	if !res.Subs[0].Approx || !res.Subs[1].Approx {
		t.Fatalf("expected both tasks hashed, got Approx=%v/%v",
			res.Subs[0].Approx, res.Subs[1].Approx)
	}
	if res.Subs[0].Count.Cmp(res.Subs[1].Count) != 0 {
		t.Errorf("isomorphic tasks disagree: %s vs %s",
			res.Subs[0].Count, res.Subs[1].Count)
	}
	probes, reused := res.TotalStats.ApproxProbes, res.TotalStats.ApproxProbesReused
	if probes == 0 {
		t.Fatal("no hash-cell probes recorded")
	}
	if reused == 0 || 2*reused < probes {
		t.Errorf("cross-task probe reuse too low: %d of %d probes reused", reused, probes)
	}
	if reused >= probes {
		t.Errorf("reuse cannot exceed total probes: %d of %d", reused, probes)
	}
	// Both cones are odd-parity functions: P(output=1) = 1/2 each, so
	// the weighted metric value is exactly 1.
	if !ratWithinBand(res.Value, big.NewRat(1, 1), 0.8) {
		t.Errorf("metric value %s outside (1+0.8) band of 1", res.Value.RatString())
	}
}

// TestApproxPinnedCounts pins the approx backend's estimates bit for
// bit: ER and MED of an 8-bit LOA pair at the default (ε, δ) for seeds
// 1..5, at one and four workers. Any change to the hash family, the
// boundary search or support minimization that moves an estimate fails
// here, so refactors of the approx path must keep these numbers.
func TestApproxPinnedCounts(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	apx := als.LowerORAdder(8, 3)
	specs := []MetricSpec{{Kind: MetricER}, {Kind: MetricMED}}
	want := map[int64][2]string{ // seed -> ER count, MED count
		1: {"37888", "90112"},
		2: {"37888", "90112"},
		3: {"37888", "90112"},
		4: {"37888", "90112"},
		5: {"38912", "90112"},
	}
	first := int64(1)
	if testing.Short() || testutil.RaceEnabled {
		// Five seeds at two worker counts take ~15 s uninstrumented;
		// keep the seed whose ER estimate differs from the others.
		first = 5
	}
	for seed := first; seed <= 5; seed++ {
		for _, workers := range []int{1, 4} {
			sr, err := VerifyMetrics(context.Background(), exact, apx, specs,
				Options{Method: MethodApprox, Seed: seed, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range sr.Results {
				if got := res.Count.String(); got != want[seed][i] {
					t.Errorf("seed %d workers %d %s: count %s, want %s",
						seed, workers, res.Metric, got, want[seed][i])
				}
			}
		}
	}
}

// TestApproxMethodNames pins the registry plumbing: the method name
// resolves both ways and exact methods report Confidence 1.
func TestApproxMethodNames(t *testing.T) {
	if MethodApprox.String() != "approx" {
		t.Errorf("MethodApprox.String() = %q", MethodApprox.String())
	}
	m, err := MethodByName("approx")
	if err != nil || m != MethodApprox {
		t.Errorf("MethodByName(approx) = %v, %v", m, err)
	}
	exact := gen.RippleCarryAdder(4)
	apx := als.LowerORAdder(4, 2)
	res, err := Verify(context.Background(), exact, apx, MetricSpec{Kind: MetricER}, Options{Method: MethodVACSEM})
	if err != nil {
		t.Fatal(err)
	}
	if res.Approx || res.Confidence != 1 {
		t.Errorf("exact result reports Approx=%v Confidence=%g", res.Approx, res.Confidence)
	}
}
