package core

import (
	"context"
	"runtime"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/gen"
)

// TestSharedCacheMatchesPrivate is the determinism contract of the
// run-wide shared component cache: a parallel MED verification with the
// shared cache on must be bit-identical — Value, Count, and every
// per-output sub-count — to the same run with private caches and to a
// sequential run. Cached values are exact counts of canonical residual
// formulas, so hits and misses can only change speed; this test (under
// -race, with one worker per CPU) is the executable form of that
// argument. It also asserts the sharing actually happens: the sub-miters
// of one MED miter share both circuit copies plus the subtractor, so a
// multi-output adder must see cross-sub-miter hits.
func TestSharedCacheMatchesPrivate(t *testing.T) {
	exact := gen.RippleCarryAdder(16)
	approx := als.LowerORAdder(16, 5)
	workers := runtime.GOMAXPROCS(0)

	shared, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	private, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: workers, DisableSharedCache: true})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricMED}, Options{Workers: 1, DisableSharedCache: true})
	if err != nil {
		t.Fatal(err)
	}

	for _, r := range []struct {
		name string
		got  *Result
	}{{"private parallel", private}, {"sequential", seq}} {
		if shared.Value.Cmp(r.got.Value) != 0 {
			t.Errorf("shared Value %v != %s Value %v", shared.Value, r.name, r.got.Value)
		}
		if shared.Count.Cmp(r.got.Count) != 0 {
			t.Errorf("shared Count %v != %s Count %v", shared.Count, r.name, r.got.Count)
		}
		if len(shared.Subs) != len(r.got.Subs) {
			t.Fatalf("sub count: shared %d vs %s %d", len(shared.Subs), r.name, len(r.got.Subs))
		}
		for i := range shared.Subs {
			if shared.Subs[i].Count.Cmp(r.got.Subs[i].Count) != 0 {
				t.Errorf("sub %d (%s): shared count %v != %s count %v", i,
					shared.Subs[i].Output, shared.Subs[i].Count, r.name, r.got.Subs[i].Count)
			}
		}
	}

	if shared.TotalStats.CacheCrossHits == 0 {
		t.Error("shared-cache run saw no cross-sub-miter hits on a multi-output MED")
	}
	if private.TotalStats.CacheCrossHits != 0 {
		t.Errorf("private caches reported %d cross-sub-miter hits, want 0",
			private.TotalStats.CacheCrossHits)
	}
}
