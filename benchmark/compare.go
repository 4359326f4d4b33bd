package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Compare verdicts.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// setupFloorS is the smallest set-up time change -compare resolves: set-up
// takes milliseconds, and a change below this floor matters to no user
// however large it is as a share.
const setupFloorS = 0.1

// verdict judges B against A for one metric. The tolerance is the bound
// as a share of A's median, but never below floor (in the metric's unit).
// It is unresolved when either side's quartile spread is wider than the
// tolerance (the runs cannot tell a change of that size from noise),
// otherwise worse or better when B's median moved past the tolerance in
// that direction, and same within it.
func verdict(a, b summary, better string, bound, floor float64) string {
	tol := max(bound*math.Abs(a.Median), floor)
	if a.Q3-a.Q1 > tol || b.Q3-b.Q1 > tol {
		return verdictUnresolved
	}
	change := b.Median - a.Median
	if better == "higher" {
		change = -change
	}
	switch {
	case change > tol:
		return verdictWorse
	case change < -tol:
		return verdictBetter
	default:
		return verdictSame
	}
}

func loadResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var r resultsFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &r, nil
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// of two result files and reports whether any is worse. A workload or
// metric missing from either file is an error.
func compareFiles(w io.Writer, specPath, pathA, pathB string) (bool, error) {
	spec, err := loadSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	find := func(r *resultsFile, name string) *workloadResult {
		for i := range r.Workloads {
			if r.Workloads[i].Name == name {
				return &r.Workloads[i]
			}
		}
		return nil
	}
	fmt.Fprintf(w, "A: %s (commit %s)\nB: %s (commit %s)\n", pathA, a.Host.Commit, pathB, b.Host.Commit)
	fmt.Fprintf(w, "%-13s %-12s %-5s %28s %28s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "change", "bound", "verdict")
	worse := false
	for _, sw := range spec.Workloads {
		wa, wb := find(a, sw.Name), find(b, sw.Name)
		if wa == nil || wb == nil {
			return false, fmt.Errorf("workload %s missing from a result file", sw.Name)
		}
		for _, m := range spec.EndToEnd {
			ma, mb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			if ma == nil || mb == nil {
				return false, fmt.Errorf("%s: metric %s missing from a result file", sw.Name, m.Name)
			}
			floor := 0.0
			if m.Name == "setup_s" {
				floor = setupFloorS
			}
			v := verdict(ma.summary, mb.summary, m.Better, m.Bound, floor)
			worse = worse || v == verdictWorse
			fmt.Fprintf(w, "%-13s %-12s %-5s %28s %28s %+7.1f%% %5.0f%%  %s\n",
				sw.Name, m.Name, m.Unit, formatSummary(ma.summary), formatSummary(mb.summary),
				100*(mb.Median-ma.Median)/ma.Median, 100*m.Bound, v)
		}
	}
	return worse, nil
}

func formatSummary(s summary) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", s.Median, s.Q1, s.Q3)
}
