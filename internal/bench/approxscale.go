package bench

import (
	"fmt"
	"io"
	"strings"

	"vacsem/internal/core"
)

// The approx-scaling table: adder and multiplier sizes exact counting
// cannot touch at the configured time limit, verified with the approx
// backend. Band adherence is established on the smaller instances of
// the regular approx table, where exact ground truth is feasible.

// ApproxScaleSpecs builds the scaling workload: 32/64-bit adders and
// 16/32-bit array multipliers with deterministic approximate versions
// (the same generator families as AdderMultSpecs, at sizes that
// table's exact reference runs cannot reach).
func ApproxScaleSpecs(cfg Config) []Spec {
	return adderMultSpecs([]int{32, 64}, []int{16, 32}, cfg.withDefaults().Versions)
}

// RunApproxScaleTable verifies ER for every version of every spec with
// the approx backend. Runs are recorded under "<name>/scale", distinct
// from the regular approx table's records (bare spec names), so a
// committed report gates both. A spec stops at its first version that
// does not complete or ends best-effort.
func RunApproxScaleTable(specs []Spec, cfg Config) []RunRecord {
	cfg = cfg.withDefaults()
	var runs []RunRecord
	for _, spec := range specs {
		for v, approx := range spec.Approx {
			rec := verify(spec.Name+"/scale", ER, core.MethodApprox, v, spec.Exact, approx, cfg)
			runs = append(runs, rec)
			if rec.outcome() != outcomeOK || rec.BestEffort {
				break
			}
		}
	}
	return runs
}

// ApproxScaleRow is one line of the approx-scaling table: the geomean
// runtime over a benchmark's versions plus the sampling-set and density
// telemetry of its first version.
type ApproxScaleRow struct {
	Name string
	Time Cell
	// SupportBefore/SupportAfter are the sampling-set sizes around
	// independent-support minimization (largest task of the first
	// version); HashDensity its mean hash-row density.
	SupportBefore, SupportAfter int
	HashDensity                 float64
}

// ApproxScaleRows folds RunApproxScaleTable's records into rows.
func ApproxScaleRows(runs []RunRecord) []ApproxScaleRow {
	var rows []ApproxScaleRow
	for _, g := range groupRuns(runs) {
		recs := g.methods[core.MethodApprox.String()]
		row := ApproxScaleRow{Name: strings.TrimSuffix(g.bench, "/scale"), Time: fold(recs)}
		for _, sub := range recs[0].Subs {
			if sub.SupportBefore > row.SupportBefore {
				row.SupportBefore = sub.SupportBefore
				row.SupportAfter = sub.SupportAfter
				row.HashDensity = sub.HashDensity
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// WriteApproxScaleTable prints the approx-scaling table.
func WriteApproxScaleTable(w io.Writer, rows []ApproxScaleRow, cfg Config) {
	cfg = cfg.withDefaults()
	eps, delta := cfg.approxGuarantee()
	fmt.Fprintf(w, "Approx scaling at (ε=%g, δ=%g) on ER miters (time limit %v, %d approx versions)\n",
		eps, delta, cfg.TimeLimit, cfg.Versions)
	fmt.Fprintf(w, "%-11s %12s %14s %9s\n", "Benchmark", "Time/s", "Support", "Density")
	for _, r := range rows {
		support := "-"
		if r.SupportBefore > 0 {
			support = fmt.Sprintf("%d->%d", r.SupportBefore, r.SupportAfter)
		}
		fmt.Fprintf(w, "%-11s %12s %14s %9.3g\n", r.Name, r.Time.Render(cfg.TimeLimit), support, r.HashDensity)
	}
}
