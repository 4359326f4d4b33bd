package core

import (
	"context"
	"runtime"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/gen"
	"vacsem/internal/store"
)

// TestStoreCrossSessionReuse is the cross-request dedup contract at the
// core layer, on every exact backend: two identical sessions over one
// injected store return bit-identical results, and the second solves
// nothing — every non-trivial task is served from the cone tier.
func TestStoreCrossSessionReuse(t *testing.T) {
	for _, m := range []Method{MethodVACSEM, MethodDPLL, MethodEnum, MethodBDD} {
		t.Run(m.String(), func(t *testing.T) {
			exact := gen.RippleCarryAdder(12)
			approx := als.LowerORAdder(12, 4)
			specs := []MetricSpec{{Kind: MetricER}, {Kind: MetricMED}}
			st := store.New(store.Config{})
			opt := Options{Method: m, Workers: runtime.GOMAXPROCS(0), Store: st}

			cold, err := VerifyMetrics(context.Background(), exact, approx, specs, opt)
			if err != nil {
				t.Fatal(err)
			}
			if cold.StoreConeHits != 0 {
				t.Errorf("cold run reports %d store hits on an empty store", cold.StoreConeHits)
			}
			baseline, err := VerifyMetrics(context.Background(), exact, approx, specs,
				Options{Method: m, Workers: opt.Workers})
			if err != nil {
				t.Fatal(err)
			}
			warm, err := VerifyMetrics(context.Background(), exact, approx, specs, opt)
			if err != nil {
				t.Fatal(err)
			}

			nonTrivial := 0
			for i := range cold.Results {
				for j := range cold.Results[i].Subs {
					s := &cold.Results[i].Subs[j]
					if !s.Trivial && !s.Shared {
						nonTrivial++
					}
				}
			}
			if warm.StoreConeHits == 0 {
				t.Fatal("warm run served nothing from the store")
			}
			if warm.StoreConeHits != nonTrivial {
				t.Errorf("warm run solved tasks the store should have served: hits=%d, non-trivial tasks=%d",
					warm.StoreConeHits, nonTrivial)
			}
			if warm.TotalStats.Decisions != 0 || warm.TotalStats.Components != 0 {
				t.Errorf("warm run still ran solvers: decisions=%d components=%d",
					warm.TotalStats.Decisions, warm.TotalStats.Components)
			}
			for i := range cold.Results {
				for _, r := range []*SessionResult{warm, baseline} {
					if cold.Results[i].Value.Cmp(r.Results[i].Value) != 0 {
						t.Errorf("metric %s: values diverge: cold %v vs %v",
							cold.Results[i].Metric, cold.Results[i].Value, r.Results[i].Value)
					}
				}
				for j := range cold.Results[i].Subs {
					if cold.Results[i].Subs[j].Count.Cmp(warm.Results[i].Subs[j].Count) != 0 {
						t.Errorf("metric %s sub %d: warm count %v != cold %v",
							cold.Results[i].Metric, j,
							warm.Results[i].Subs[j].Count, cold.Results[i].Subs[j].Count)
					}
				}
			}

			// The warm run's FromStore flags must cover exactly the non-trivial
			// owner bits.
			for i := range warm.Results {
				for j := range warm.Results[i].Subs {
					s := &warm.Results[i].Subs[j]
					if s.Shared {
						continue
					}
					if s.FromStore == s.Trivial {
						t.Errorf("metric %s sub %d: FromStore=%v Trivial=%v, want them to partition",
							warm.Results[i].Metric, j, s.FromStore, s.Trivial)
					}
				}
			}
		})
	}
}

// TestStoreApproxGuardsExact pins the reuse rule across methods: counts
// stored by an approximate session must never serve an exact request,
// while a second identical approximate session reuses them.
func TestStoreApproxGuardsExact(t *testing.T) {
	exact := gen.RippleCarryAdder(10)
	approx := als.LowerORAdder(10, 3)
	st := store.New(store.Config{})
	apOpt := Options{Method: MethodApprox, Seed: 7, Store: st}

	ap1, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricER}}, apOpt)
	if err != nil {
		t.Fatal(err)
	}
	ap2, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricER}}, apOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ap2.StoreConeHits == 0 {
		t.Error("identical approx re-run served nothing from the store")
	}
	if ap1.Results[0].Value.Cmp(ap2.Results[0].Value) != 0 {
		t.Errorf("approx re-run diverged: %v vs %v", ap1.Results[0].Value, ap2.Results[0].Value)
	}

	// The exact run over the approx-warmed store must match a storeless
	// exact run bit for bit (an approx entry serving it would generally
	// differ).
	ex, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricER}}, Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricER}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Results[0].Value.Cmp(ref.Results[0].Value) != 0 {
		t.Errorf("exact run over approx-warmed store diverged: %v, want %v",
			ex.Results[0].Value, ref.Results[0].Value)
	}
	if ex.Results[0].Approx {
		t.Error("exact run reports an approximate result after store reuse")
	}

	// Now that the exact session upgraded the entries, a further approx
	// session may reuse them — and must then report the exact value.
	ap3, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricER}}, apOpt)
	if err != nil {
		t.Fatal(err)
	}
	if ap3.StoreConeHits == 0 {
		t.Error("approx run after exact upgrade served nothing from the store")
	}
	if ap3.Results[0].Value.Cmp(ref.Results[0].Value) != 0 {
		t.Errorf("approx run reusing exact entries reports %v, want exact %v",
			ap3.Results[0].Value, ref.Results[0].Value)
	}
	if ap3.Results[0].Approx {
		t.Error("approx session serving only exact entries still reports Approx")
	}
}
