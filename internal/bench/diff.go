package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// The bench count gate: Diff compares two bench reports (old =
// committed baseline, new = fresh run) record-by-record and classifies
// every matched run. Two things count as regressions:
//
//   - correctness: two exact runs of the same (bench, metric, method,
//     version) reporting different counts, or a run switching between
//     exact and approximate — counts are deterministic, so any mismatch
//     is a bug, not noise;
//   - status: a run that used to complete now times out, becomes
//     infeasible, errors, or disappears from the report.
//
// Wall times are printed with their ratio but never gated: single runs
// are too noisy, and benchmark/ owns performance.

// Diff verdicts, ordered from benign to fatal.
const (
	VerdictOK        = "ok"
	VerdictImproved  = "improved"
	VerdictNew       = "new"     // in new only; informational
	VerdictMissing   = "MISSING" // in old only; a regression
	VerdictRegressed = "REGRESSED"
)

// DiffEntry is one compared run.
type DiffEntry struct {
	Key        string  `json:"key"` // "bench/metric/method/v<version>"
	OldSeconds float64 `json:"old_seconds"`
	NewSeconds float64 `json:"new_seconds"`
	// Ratio is NewSeconds/OldSeconds when both sides completed (0 otherwise).
	Ratio   float64 `json:"ratio,omitempty"`
	Verdict string  `json:"verdict"`
	// Reason explains non-ok verdicts ("exact count changed",
	// "status ok -> timeout", ...).
	Reason string `json:"reason,omitempty"`
}

// DiffResult is a completed report comparison.
type DiffResult struct {
	Entries []DiffEntry `json:"entries"`
	// Regressions lists the entries whose verdict is REGRESSED or
	// MISSING; the gate fails iff it is non-empty.
	Regressions []DiffEntry `json:"regressions"`
}

// HasRegressions reports whether the gate should fail.
func (d *DiffResult) HasRegressions() bool { return len(d.Regressions) > 0 }

func runKey(r *RunRecord) string {
	return fmt.Sprintf("%s/%s/%s/v%d", r.Bench, r.Metric, r.Method, r.Version)
}

// Diff compares two reports. Runs are matched by (bench, metric,
// method, version); order within the reports does not matter.
func Diff(old, new *Report) *DiffResult {
	d := &DiffResult{}

	oldRuns := make(map[string]*RunRecord, len(old.Runs))
	for i := range old.Runs {
		oldRuns[runKey(&old.Runs[i])] = &old.Runs[i]
	}
	seen := make(map[string]bool, len(new.Runs))
	for i := range new.Runs {
		nr := &new.Runs[i]
		key := runKey(nr)
		seen[key] = true
		or, ok := oldRuns[key]
		if !ok {
			d.Entries = append(d.Entries, DiffEntry{
				Key: key, NewSeconds: nr.Seconds, Verdict: VerdictNew,
			})
			continue
		}
		d.Entries = append(d.Entries, diffRun(key, or, nr))
	}
	for key, or := range oldRuns {
		if !seen[key] {
			d.Entries = append(d.Entries, DiffEntry{
				Key: key, OldSeconds: or.Seconds, Verdict: VerdictMissing,
				Reason: "run missing from new report",
			})
		}
	}
	sort.Slice(d.Entries, func(i, j int) bool { return d.Entries[i].Key < d.Entries[j].Key })
	for _, e := range d.Entries {
		if e.Verdict == VerdictRegressed || e.Verdict == VerdictMissing {
			d.Regressions = append(d.Regressions, e)
		}
	}
	return d
}

// diffRun classifies one matched pair.
func diffRun(key string, or, nr *RunRecord) DiffEntry {
	e := DiffEntry{Key: key, OldSeconds: or.Seconds, NewSeconds: nr.Seconds}
	ost, nst := or.outcome().String(), nr.outcome().String()
	if ost != nst {
		switch {
		case ost == "ok":
			e.Verdict = VerdictRegressed
			e.Reason = fmt.Sprintf("status ok -> %s", nst)
		case nst == "ok":
			e.Verdict = VerdictImproved
			e.Reason = fmt.Sprintf("status %s -> ok", ost)
		default:
			e.Verdict = VerdictOK
			e.Reason = fmt.Sprintf("status %s -> %s", ost, nst)
		}
		return e
	}
	if ost != "ok" {
		e.Verdict = VerdictOK
		e.Reason = "both " + ost
		return e
	}
	if or.Seconds > 0 {
		e.Ratio = nr.Seconds / or.Seconds
	}
	// Both completed. Exact counts are deterministic: any mismatch is a
	// correctness regression. Approximate runs are allowed to differ in
	// value (the estimate is randomized).
	if !or.Approx && !nr.Approx && or.Count != nr.Count {
		e.Verdict = VerdictRegressed
		e.Reason = fmt.Sprintf("exact count changed: %s -> %s", or.Count, nr.Count)
		return e
	}
	if or.Approx != nr.Approx {
		e.Verdict = VerdictRegressed
		e.Reason = fmt.Sprintf("approx flag changed: %v -> %v", or.Approx, nr.Approx)
		return e
	}
	e.Verdict = VerdictOK
	return e
}

// WriteTable renders the comparison as a delta table plus a one-line
// summary.
func (d *DiffResult) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "%-40s %10s %10s %8s %-10s %s\n",
		"RUN", "OLD(s)", "NEW(s)", "RATIO", "VERDICT", "NOTE")
	counts := map[string]int{}
	for _, e := range d.Entries {
		counts[e.Verdict]++
		ratio := ""
		if e.Ratio > 0 {
			ratio = fmt.Sprintf("%.2fx", e.Ratio)
		}
		fmt.Fprintf(w, "%-40s %10.3f %10.3f %8s %-10s %s\n",
			e.Key, e.OldSeconds, e.NewSeconds, ratio, e.Verdict, e.Reason)
	}
	fmt.Fprintf(w, "\n%d compared: %d ok, %d improved, %d new, %d regressed, %d missing\n",
		len(d.Entries), counts[VerdictOK], counts[VerdictImproved],
		counts[VerdictNew], counts[VerdictRegressed], counts[VerdictMissing])
}

// LoadReport reads a bench report JSON file (as written by -report or
// the default BENCH_<ts>.json path). A report with two runs under one
// (bench, metric, method, version) key is rejected: Diff matches runs
// by that key, so a duplicate would hide a run from the gate.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r Report
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := make(map[string]bool, len(r.Runs))
	for i := range r.Runs {
		key := runKey(&r.Runs[i])
		if seen[key] {
			return nil, fmt.Errorf("%s: duplicate run %s", path, key)
		}
		seen[key] = true
	}
	return &r, nil
}
