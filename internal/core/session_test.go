package core

import (
	"context"
	"math/big"
	"sync"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/counter"
	"vacsem/internal/gen"
	"vacsem/internal/testutil"
)

func sessionSpecs() []MetricSpec {
	return []MetricSpec{
		{Kind: MetricER},
		{Kind: MetricMED},
		{Kind: MetricMHD},
	}
}

// TestVerifyMetricsMatchesStandalone is the session-layer equivalence
// guarantee: one VerifyMetrics call over {ER, MED, MHD} returns, per
// metric, the exact same Value and Count as three standalone Verify
// calls — on every backend and regardless of worker count. Counts are
// function-determined, so the shared base, synthesis and cross-metric
// dedup must never change them.
func TestVerifyMetricsMatchesStandalone(t *testing.T) {
	ctx := context.Background()
	for seed := int64(1); seed <= 8; seed++ {
		nIn := 4 + int(seed%5)
		nOut := 2 + int(seed%3)
		exact := testutil.RandomCircuit(nIn, 12+int(seed*5%25), nOut, seed)
		approx := approxVersion(exact, seed*11+3)
		for _, m := range allMethods() {
			opt := Options{Method: m, Workers: 3}
			sess, err := VerifyMetrics(ctx, exact, approx, sessionSpecs(), opt)
			if err != nil {
				t.Fatalf("seed %d %v session: %v", seed, m, err)
			}
			if len(sess.Results) != 3 {
				t.Fatalf("seed %d %v: %d results", seed, m, len(sess.Results))
			}
			for i, spec := range sessionSpecs() {
				want, err := Verify(ctx, exact, approx, spec, opt)
				if err != nil {
					t.Fatal(err)
				}
				got := sess.Results[i]
				if got.Metric != want.Metric {
					t.Errorf("seed %d %v: result %d metric %q, want %q",
						seed, m, i, got.Metric, want.Metric)
				}
				if got.Value.Cmp(want.Value) != 0 {
					t.Errorf("seed %d %v %s: session value %v, standalone %v",
						seed, m, want.Metric, got.Value, want.Value)
				}
				if got.Count.Cmp(want.Count) != 0 {
					t.Errorf("seed %d %v %s: session count %v, standalone %v",
						seed, m, want.Metric, got.Count, want.Count)
				}
			}
		}
	}
}

// TestVerifyMetricsDedupOnAdders pins the acceptance property: on a
// bench-style adder pair the session solves strictly fewer tasks than
// requested (MED's low-order deviation bits reduce to MHD's XOR bits),
// while every metric value still matches its standalone run.
func TestVerifyMetricsDedupOnAdders(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	approx := als.LowerORAdder(8, 4)
	opt := Options{Workers: 2}
	sess, err := VerifyMetrics(context.Background(), exact, approx, sessionSpecs(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if sess.TasksDeduped <= 0 {
		t.Errorf("TasksDeduped = %d, want > 0 (requested %d, unique %d)",
			sess.TasksDeduped, sess.TasksRequested, sess.TasksUnique)
	}
	if sess.TasksUnique+sess.TasksDeduped != sess.TasksRequested {
		t.Errorf("task accounting: %d + %d != %d",
			sess.TasksUnique, sess.TasksDeduped, sess.TasksRequested)
	}
	if sess.BaseNodesAfter > sess.BaseNodesBefore {
		t.Errorf("base synthesis grew the miter: %d -> %d",
			sess.BaseNodesBefore, sess.BaseNodesAfter)
	}
	for i, spec := range sessionSpecs() {
		want, err := Verify(context.Background(), exact, approx, spec, opt)
		if err != nil {
			t.Fatal(err)
		}
		if sess.Results[i].Value.Cmp(want.Value) != 0 {
			t.Errorf("%s: session %v, standalone %v",
				want.Metric, sess.Results[i].Value, want.Value)
		}
	}
}

// TestSessionStatsAttribution checks the no-double-counting invariant:
// per-metric TotalStats equal the sum of their sub-results' stats
// (shared bits contribute zero), and the per-metric totals sum to the
// session total.
func TestSessionStatsAttribution(t *testing.T) {
	exact := gen.RippleCarryAdder(8)
	approx := als.LowerORAdder(8, 4)
	sess, err := VerifyMetrics(context.Background(), exact, approx, sessionSpecs(),
		Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sessionSum counter.Stats
	for _, r := range sess.Results {
		var metricSum counter.Stats
		sharedBits := 0
		for _, sub := range r.Subs {
			metricSum.Add(sub.Stats)
			if sub.Shared {
				sharedBits++
				if sub.Stats != (counter.Stats{}) {
					t.Errorf("%s/%s: shared bit carries stats %+v", r.Metric, sub.Output, sub.Stats)
				}
			}
		}
		if metricSum != r.TotalStats {
			t.Errorf("%s: TotalStats %+v != sum of subs %+v", r.Metric, r.TotalStats, metricSum)
		}
		sessionSum.Add(r.TotalStats)
		_ = sharedBits
	}
	if sessionSum != sess.TotalStats {
		t.Errorf("session TotalStats %+v != per-metric sum %+v", sess.TotalStats, sessionSum)
	}
}

// TestThresholdNameInProgressEvents pins the formatted metric name
// "P(dev>t)" end to end: it must arrive on progress events during the
// run (not be patched into the result afterwards) and on the result.
func TestThresholdNameInProgressEvents(t *testing.T) {
	exact := testutil.RandomCircuit(6, 20, 3, 4)
	approx := approxVersion(exact, 17)
	var (
		mu    sync.Mutex
		names = map[string]int{}
	)
	opt := Options{Progress: func(ev ProgressEvent) {
		mu.Lock()
		names[ev.Metric]++
		mu.Unlock()
	}}
	r, err := Verify(context.Background(), exact, approx, MetricSpec{Kind: MetricThresholdProb, Threshold: big.NewInt(2)}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r.Metric != "P(dev>2)" {
		t.Errorf("result metric = %q, want P(dev>2)", r.Metric)
	}
	if len(names) == 0 {
		t.Fatal("no progress events delivered")
	}
	for name := range names {
		if name != "P(dev>2)" {
			t.Errorf("progress event carried metric %q, want P(dev>2)", name)
		}
	}
}

func TestMetricSpecByName(t *testing.T) {
	for _, tc := range []struct {
		name string
		kind MetricKind
	}{
		{"er", MetricER}, {"med", MetricMED}, {"mhd", MetricMHD},
	} {
		spec, err := MetricSpecByName(tc.name, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if spec.Kind != tc.kind {
			t.Errorf("%s: kind %v", tc.name, spec.Kind)
		}
	}
	spec, err := MetricSpecByName("thr", big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Kind != MetricThresholdProb || spec.Threshold.Int64() != 5 {
		t.Errorf("thr: %+v", spec)
	}
	if _, err := MetricSpecByName("wce", nil); err == nil {
		t.Error("unknown metric name accepted")
	}
	// The session must reject a thr spec without a threshold.
	exact := testutil.RandomCircuit(4, 10, 2, 1)
	approx := approxVersion(exact, 3)
	if _, err := VerifyMetrics(context.Background(), exact, approx,
		[]MetricSpec{{Kind: MetricThresholdProb}}, Options{}); err == nil {
		t.Error("thr spec without threshold accepted")
	}
}
