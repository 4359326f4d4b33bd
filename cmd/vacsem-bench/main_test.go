package main

import (
	"os"
	"path/filepath"
	"testing"

	"vacsem/internal/bench"
)

// -diff exits 2 on a report it cannot trust, here one holding two runs
// under one key, and 0 on a clean self-diff.
func TestDiffExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, runs ...bench.RunRecord) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := (&bench.Report{Runs: runs}).WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := bench.RunRecord{Bench: "adder8", Metric: "ER", Method: "vacsem", Count: "7"}
	clean := write("clean.json", run)
	dup := write("dup.json", run, run)
	if got := runDiff([]string{clean, clean}); got != 0 {
		t.Errorf("clean self-diff exits %d, want 0", got)
	}
	if got := runDiff([]string{dup, clean}); got != 2 {
		t.Errorf("duplicate runs in OLD: exit %d, want 2", got)
	}
	if got := runDiff([]string{clean, dup}); got != 2 {
		t.Errorf("duplicate runs in NEW: exit %d, want 2", got)
	}
}

// -diff gates on an exact run's decisions and propagations: a growth of
// more than 1.10x exits 1, a smaller one or a slower wall time exits 0.
func TestDiffWorkGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale func(*bench.RunRecord)) string {
		run := bench.RunRecord{Bench: "adder16", Metric: "ER", Method: "dpll", Count: "7", Seconds: 0.5}
		run.Stats.Decisions, run.Stats.Propagations = 1000, 50000
		scale(&run)
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := (&bench.Report{Runs: []bench.RunRecord{run}}).WriteJSON(f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", func(*bench.RunRecord) {})
	for _, tc := range []struct {
		name  string
		scale func(*bench.RunRecord)
		want  int
	}{
		{"propagations x1.2", func(r *bench.RunRecord) { r.Stats.Propagations = 60000 }, 1},
		{"propagations x1.05", func(r *bench.RunRecord) { r.Stats.Propagations = 52500 }, 0},
		{"seconds x10", func(r *bench.RunRecord) { r.Seconds *= 10 }, 0},
	} {
		if got := runDiff([]string{base, write(tc.name+".json", tc.scale)}); got != tc.want {
			t.Errorf("%s: exit %d, want %d", tc.name, got, tc.want)
		}
	}
	// The native-XOR change grew 8 of the 14 gated runs of this pair.
	if got := runDiff([]string{"../../BENCH_20260806T064907.json", "../../BENCH_20260808T073516.json"}); got != 1 {
		t.Errorf("BENCH_20260806T064907 -> BENCH_20260808T073516: exit %d, want 1", got)
	}
}
