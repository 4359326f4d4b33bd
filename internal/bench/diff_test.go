package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func baselineReport() *Report {
	return &Report{
		Runs: []RunRecord{
			{Bench: "RCA-8", Metric: "ER", Method: "vacsem", Version: 1,
				Seconds: 0.5, Count: "100", Value: "100/256"},
			{Bench: "RCA-8", Metric: "MED", Method: "vacsem", Version: 1,
				Seconds: 1.0, Count: "300", Value: "300/256"},
			{Bench: "RCA-8", Metric: "ER", Method: "bdd", Version: 1,
				Seconds: 0.2, Infeasible: true},
		},
	}
}

// Exact counts are deterministic: any mismatch is a correctness
// regression.
func TestDiffValueMismatch(t *testing.T) {
	old := baselineReport()
	cur := baselineReport()
	cur.Runs[0].Count = "101"

	d := Diff(old, cur)
	if !d.HasRegressions() {
		t.Fatal("exact count changed: want regression")
	}
	if got := d.Regressions[0].Reason; !strings.Contains(got, "count changed") {
		t.Errorf("reason = %q, want count-changed", got)
	}

	cur = baselineReport()
	cur.Runs[1].Approx = true
	if d := Diff(old, cur); !d.HasRegressions() {
		t.Error("approx flag changed: want regression")
	}
}

// ok -> timeout is a regression; the reverse is an improvement; a run
// vanishing from the new report is a regression.
func TestDiffStatusTransitions(t *testing.T) {
	old := baselineReport()
	cur := baselineReport()
	cur.Runs[1].TimedOut = true
	cur.Runs[1].Count, cur.Runs[1].Value = "", ""

	d := Diff(old, cur)
	if !d.HasRegressions() {
		t.Fatal("ok -> timeout: want regression")
	}

	// Reverse direction: improvement, not regression.
	d = Diff(cur, old)
	if d.HasRegressions() {
		t.Errorf("timeout -> ok flagged as regression: %+v", d.Regressions)
	}
	improved := false
	for _, e := range d.Entries {
		if e.Key == "RCA-8/MED/vacsem/v1" && e.Verdict == VerdictImproved {
			improved = true
		}
	}
	if !improved {
		t.Errorf("timeout -> ok not marked improved: %+v", d.Entries)
	}

	// Missing run.
	cur2 := baselineReport()
	cur2.Runs = cur2.Runs[:1]
	if d := Diff(old, cur2); !d.HasRegressions() {
		t.Error("missing runs: want regression")
	}
}

// Identical reports produce a clean table and no regressions; so do
// reports whose counts agree but whose wall times differ, because the
// gate checks counts only.
func TestDiffClean(t *testing.T) {
	old := baselineReport()
	d := Diff(old, baselineReport())
	if d.HasRegressions() {
		t.Fatalf("identical reports: %+v", d.Regressions)
	}
	var sb strings.Builder
	d.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"RCA-8/ER/vacsem/v1", "3 compared", "0 regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}

	cur := baselineReport()
	cur.Runs[0].Seconds *= 10 // 10x slower
	cur.Runs[1].Seconds /= 10 // 10x faster
	d = Diff(old, cur)
	if d.HasRegressions() {
		t.Fatalf("wall time alone must not regress: %+v", d.Regressions)
	}
	want := map[string]float64{"RCA-8/ER/vacsem/v1": 10, "RCA-8/MED/vacsem/v1": 0.1}
	for _, e := range d.Entries {
		r, ok := want[e.Key]
		if !ok {
			continue
		}
		if e.Verdict != VerdictOK || e.Ratio < r*0.999 || e.Ratio > r*1.001 {
			t.Errorf("%s: verdict %s ratio %v, want ok at %vx", e.Key, e.Verdict, e.Ratio, r)
		}
	}
}

// Decisions and propagations of exact runs are gated at 1.10x on runs
// with at least 10^4 propagations; a shrink is an improvement, and
// approximate runs and small runs are not gated. An exact run that
// stops simulating regresses at any size.
func TestDiffWorkCounters(t *testing.T) {
	withWork := func(dec, prop uint64, approx bool) *Report {
		r := baselineReport()
		r.Runs[1].Stats.Decisions, r.Runs[1].Stats.Propagations = dec, prop
		r.Runs[1].Approx = approx
		return r
	}
	withSim := func(calls uint64, approx bool) *Report {
		r := withWork(10, 500, approx)
		r.Runs[1].Stats.SimCalls = calls
		return r
	}
	for _, tc := range []struct {
		name     string
		old, new *Report
		verdict  string
	}{
		{"propagations grow", withWork(1000, 50000, false), withWork(1000, 60000, false), VerdictRegressed},
		{"decisions grow", withWork(1000, 50000, false), withWork(1200, 50000, false), VerdictRegressed},
		{"within gate", withWork(1000, 50000, false), withWork(1090, 54000, false), VerdictOK},
		{"shrink", withWork(1000, 50000, false), withWork(500, 50000, false), VerdictImproved},
		{"below floor", withWork(10, 5000, false), withWork(50, 9999, false), VerdictOK},
		{"approx", withWork(1000, 50000, true), withWork(2000, 90000, true), VerdictOK},
		{"stopped simulating", withSim(3, false), withSim(0, false), VerdictRegressed},
		{"fewer sim calls", withSim(3, false), withSim(1, false), VerdictOK},
		{"started simulating", withSim(0, false), withSim(2, false), VerdictOK},
		{"approx stopped simulating", withSim(3, true), withSim(0, true), VerdictOK},
	} {
		d := Diff(tc.old, tc.new)
		for _, e := range d.Entries {
			if e.Key == "RCA-8/MED/vacsem/v1" && e.Verdict != tc.verdict {
				t.Errorf("%s: verdict %s (%s), want %s", tc.name, e.Verdict, e.Reason, tc.verdict)
			}
		}
	}
}

// The gate would have caught the propagation growth the native-XOR
// change committed, and the two adder runs it stopped simulating. The
// CI baselines pass it against the reports committed after them, and
// each earlier baseline against the one that replaced it.
func TestDiffWorkCommittedHistory(t *testing.T) {
	load := func(name string) *Report {
		r, err := LoadReport("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	d := Diff(load("BENCH_20260806T064907.json"), load("BENCH_20260808T073516.json"))
	if len(d.Regressions) != 10 {
		t.Errorf("native-XOR pair: %d regressions, want 10: %+v", len(d.Regressions), d.Regressions)
	}
	want := map[string]string{
		"adder16/ER/vacsem/v0": "propagations 89099 -> 142116",
		"adder32/ER/vacsem/v1": "stopped simulating: sim calls 20 -> 0",
	}
	for _, e := range d.Regressions {
		if reason, ok := want[e.Key]; ok && strings.Contains(e.Reason, reason) {
			delete(want, e.Key)
		}
	}
	for key, reason := range want {
		t.Errorf("%s not flagged with %q: %+v", key, reason, d.Regressions)
	}
	for _, pair := range [][2]string{
		{"BENCH_20260808T085213.json", "BENCH_20261017T094706.json"},
		{"BENCH_20261017T093530.json", "BENCH_20261017T095001.json"},
		{"BENCH_20260808T085213.json", "BENCH_20261019T102206.json"},
		{"BENCH_20261019T102206.json", "BENCH_20261019T172811.json"},
		{"BENCH_20261017T093530.json", "BENCH_20261019T102238.json"},
		{"BENCH_20261019T050207.json", "BENCH_20261019T102445.json"},
	} {
		if d := Diff(load(pair[0]), load(pair[1])); d.HasRegressions() {
			t.Errorf("%s -> %s: %+v", pair[0], pair[1], d.Regressions)
		}
	}
}

// Every committed BENCH_*.json keeps loading and diffs clean against
// itself, so the history stays readable as report fields come and go.
func TestCommittedReportsDiffClean(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_*.json found")
	}
	for _, p := range paths {
		r, err := LoadReport(p)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if len(r.Runs) == 0 {
			t.Errorf("%s: no runs", p)
		}
		if d := Diff(r, r); d.HasRegressions() {
			t.Errorf("%s: self-diff regressions %+v", p, d.Regressions)
		}
	}
}

// A report with two runs under one key would hide one of them from the
// gate, so LoadReport rejects it.
func TestLoadReportRejectsDuplicateRuns(t *testing.T) {
	rep := baselineReport()
	rep.Runs = append(rep.Runs, rep.Runs[0])
	rep.Runs[3].Count = "99"
	if _, err := LoadReport(writeReport(t, rep)); err == nil || !strings.Contains(err.Error(), "duplicate run RCA-8/ER/vacsem/v1") {
		t.Errorf("duplicate run: err = %v", err)
	}
	if _, err := LoadReport(writeReport(t, baselineReport())); err != nil {
		t.Errorf("distinct runs: %v", err)
	}
}

func writeReport(t *testing.T, rep *Report) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rep.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}
