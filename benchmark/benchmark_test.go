package main

import (
	"errors"
	"io"
	"math/big"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildServer compiles vacsem-serve from the repository for serve-mixed.
func buildServer(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "vacsem-serve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/vacsem-serve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build vacsem-serve: %v\n%s", err, out)
	}
	return bin
}

func quickRun(t *testing.T, w *workload, trace bool, g *goldenFile, serveBin string) (*outcome, error) {
	t.Helper()
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return run(runConfig{
		Spec: spec, Workload: w, Seed: defaultSeed, Budget: 500 * time.Millisecond,
		Trace: trace, Quick: true, ServeBin: serveBin, Golden: g, Log: io.Discard,
	})
}

// TestEveryMetricEmitted runs every workload at quick sizes, untraced and
// traced, and checks that each metric BENCHMARK.json names is reported
// with its unit and that every value matched its reference.
func TestEveryMetricEmitted(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	serveBin := buildServer(t)
	for _, sw := range spec.Workloads {
		w, err := workloadByName(sw.Name)
		if err != nil {
			t.Fatal(err)
		}
		for _, trace := range []bool{false, true} {
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			res, err := quickRun(t, w, trace, g, serveBin)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestGoldenGuards checks that a corrupted reference value fails the run
// and that a pair missing from golden.json is reported as drift.
func TestGoldenGuards(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloadByName("mult-sim")
	if err != nil {
		t.Fatal(err)
	}
	in, err := w.build(defaultSeed, true)
	if err != nil {
		t.Fatal(err)
	}
	fp := in.Pairs[0].FP
	orig, ok := g.Pairs[fp]
	if !ok {
		t.Fatalf("golden.json lacks quick pair %s", in.Pairs[0].Name)
	}

	bad := goldenEntry{Pair: orig.Pair, Counts: map[string]string{}}
	for m, c := range orig.Counts {
		v, _ := new(big.Int).SetString(c, 10)
		bad.Counts[m] = v.Add(v, big.NewInt(1)).String()
	}
	g.Pairs[fp] = bad
	res, err := quickRun(t, w, false, g, "")
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("corrupted golden value not caught: correct=%v failed=%d", res.Correct, res.Failed)
	}

	delete(g.Pairs, fp)
	if _, err := quickRun(t, w, false, g, ""); !errors.Is(err, errDrift) {
		t.Errorf("missing golden entry: err = %v, want workload drift", err)
	}
}

// TestOutOfBandEstimates checks that approx estimates outside their band
// fail a run only when there are more of them than δ explains.
func TestOutOfBandEstimates(t *testing.T) {
	w, err := workloadByName("approx-adder")
	if err != nil {
		t.Fatal(err)
	}
	p := &pair{Name: "p", Ref: "ref"}
	refs := map[string]counts{"ref": {"er": big.NewInt(1000)}}
	ops := func(n, out int) []op {
		var list []op
		for i := 0; i < n; i++ {
			v := int64(1100)
			if i < out {
				v = 5000
			}
			list = append(list, op{Pair: p, Counts: counts{"er": big.NewInt(v)}})
		}
		return list
	}
	for _, c := range []struct{ n, out, want int }{{40, 0, 0}, {40, 3, 0}, {40, 30, 30}} {
		if got := check(w, ops(c.n, c.out), refs, io.Discard); got != c.want {
			t.Errorf("%d of %d out of band: %d failed, want %d", c.out, c.n, got, c.want)
		}
	}
}

// TestCompareVerdicts pins the verdict matrix of -compare.
func TestCompareVerdicts(t *testing.T) {
	s := func(median, q1, q3 float64) summary { return summary{Median: median, Q1: q1, Q3: q3, N: 3} }
	tight := s(100, 99, 101)
	cases := []struct {
		name   string
		a, b   summary
		better string
		want   string
	}{
		{"lower same", tight, s(105, 104, 106), "lower", verdictSame},
		{"lower worse", tight, s(115, 114, 116), "lower", verdictWorse},
		{"lower better", tight, s(85, 84, 86), "lower", verdictBetter},
		{"higher same", tight, s(95, 94, 96), "higher", verdictSame},
		{"higher worse", tight, s(85, 84, 86), "higher", verdictWorse},
		{"higher better", tight, s(115, 114, 116), "higher", verdictBetter},
		{"A too noisy", s(100, 90, 120), s(200, 199, 201), "lower", verdictUnresolved},
		{"B too noisy", tight, s(100, 80, 120), "higher", verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.a, c.b, c.better, 0.1, 0); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Below the floor, neither a large relative change nor a wide spread
	// counts.
	if got := verdict(s(0.006, 0.005, 0.007), s(0.009, 0.006, 0.012), "lower", 0.1, setupFloorS); got != verdictSame {
		t.Errorf("set-up change under the floor: verdict %s, want same", got)
	}
}

// TestResultLines checks that the orchestrator reads a run's result line
// and the samples line printed before it.
func TestResultLines(t *testing.T) {
	out, err := lastLine(strings.NewReader(`{"samples":{"ops_per_s":[1.5,2.5]}}
{"correct":true,"attempted":2,"failed":0,"metrics":{"ops_per_s":{"value":2,"unit":"1/s"}}}
`))
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct || out.Attempted != 2 || out.Metrics["ops_per_s"].Value != 2 || len(out.Samples["ops_per_s"]) != 2 {
		t.Errorf("parsed %+v", out)
	}
	if _, err := lastLine(strings.NewReader("build failed\n")); err == nil {
		t.Error("a run without a result line parsed")
	}
}

// TestQuartilesMatchPython checks summarize against values of Python's
// statistics.quantiles(range(1, 11), n=4) and of a four-sample list.
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if s := summarize(xs); s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 || s.N != 10 {
		t.Errorf("summarize(1..10) = %+v, want q1 2.75, median 5.5, q3 8.25", s)
	}
	if s := summarize([]float64{1, 2, 4, 8}); s.Q1 != 1.25 || s.Median != 3 || s.Q3 != 7 {
		t.Errorf("summarize(1,2,4,8) = %+v, want q1 1.25, median 3, q3 7", s)
	}
}
