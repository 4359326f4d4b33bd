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
