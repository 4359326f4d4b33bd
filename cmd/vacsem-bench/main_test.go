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
