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

// halfPair builds a circuit pair over `halves` disjoint groups of 8
// inputs: in each group the exact circuit outputs the group's parity and
// the approximate one the AND of its first two inputs. Each MHD bit then
// disagrees on 128 of its group's 256 patterns — above the ε=0.8 pivot
// of 72, so the approx backend hashes it.
func halfPair(halves int) (exact, apx *circuit.Circuit) {
	exact, apx = circuit.New("parity"), circuit.New("and2")
	for h := 0; h < halves; h++ {
		var ex, ax []int
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("x%d_%d", h, i)
			ex = append(ex, exact.AddInput(name))
			ax = append(ax, apx.AddInput(name))
		}
		g := ex[0]
		for _, in := range ex[1:] {
			g = exact.AddGate(circuit.Xor, g, in)
		}
		exact.AddOutput(g, fmt.Sprintf("y%d", h))
		apx.AddOutput(apx.AddGate(circuit.And, ax[0], ax[1]), fmt.Sprintf("y%d", h))
	}
	return exact, apx
}

// TestIsomorphicConesShareOneTask: the two MHD bits of halfPair(2) are
// isomorphic cones over disjoint inputs. Cone keys rank inputs within
// the cone, so the plan makes them one task on every backend: one bit
// owns it and the other is Shared. Each bit's count equals a standalone
// run of one cone, scaled by the other group's free inputs; the approx
// backend gives both bits the same estimate.
func TestIsomorphicConesShareOneTask(t *testing.T) {
	exact, apx := halfPair(2)
	one, oneApx := halfPair(1)
	mhd := []MetricSpec{{Kind: MetricMHD}}
	for _, m := range []Method{MethodVACSEM, MethodDPLL, MethodEnum, MethodBDD, MethodApprox} {
		opt := Options{Method: m, Seed: 5, Workers: 1}
		sr, err := VerifyMetrics(context.Background(), exact, apx, mhd, opt)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if sr.TasksRequested != 2 || sr.TasksUnique != 1 {
			t.Errorf("%v: %d bits in %d tasks, want 2 bits in 1 task", m, sr.TasksRequested, sr.TasksUnique)
		}
		subs := sr.Results[0].Subs
		if subs[0].Shared == subs[1].Shared || subs[0].Task != subs[1].Task {
			t.Errorf("%v: Shared=%v/%v tasks %d/%d, want one owner of one task",
				m, subs[0].Shared, subs[1].Shared, subs[0].Task, subs[1].Task)
		}
		alone, err := Verify(context.Background(), one, oneApx, mhd[0], opt)
		if err != nil {
			t.Fatalf("%v standalone: %v", m, err)
		}
		want := new(big.Int).Lsh(alone.Count, 8)
		for k, sub := range subs {
			if sub.Count.Cmp(want) != 0 {
				t.Errorf("%v: bit %d count %v, want the standalone cone's %v << 8", m, k, sub.Count, alone.Count)
			}
		}
		if m == MethodApprox && !subs[0].Approx {
			t.Errorf("approx: the shared task was counted exactly, want it hashed")
		}
		if m != MethodApprox && alone.Count.Int64() != 128 {
			t.Errorf("%v: standalone count %v, want 128", m, alone.Count)
		}
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
	if testutil.RaceEnabled {
		// Hash cells are simulated, so five seeds at two worker counts
		// take about 0.7 s uninstrumented (-short included) but about 8 s
		// under the race detector; there keep the seed whose ER estimate
		// differs from the others.
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
