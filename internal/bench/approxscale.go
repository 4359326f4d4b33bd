package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"time"

	"vacsem/internal/core"
	"vacsem/internal/gen"
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
	cfg = cfg.withDefaults()
	var specs []Spec
	for _, n := range []int{32, 64} {
		exact := gen.RippleCarryAdder(n)
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("adder%d", n),
			Exact:  exact,
			Approx: adderVersions(exact, n, cfg.Versions),
		})
	}
	for _, n := range []int{16, 32} {
		exact := gen.ArrayMultiplier(n)
		specs = append(specs, Spec{
			Name:   fmt.Sprintf("mult%d", n),
			Exact:  exact,
			Approx: multVersions(exact, n, cfg.Versions),
		})
	}
	return specs
}

// ApproxScaleRow is one line of the approx-scaling table: the geomean
// runtime over a benchmark's versions plus the sampling-set and density
// telemetry of its first version.
type ApproxScaleRow struct {
	Name string
	// Sec is the geomean runtime over the versions.
	Sec float64
	// SupportBefore/SupportAfter are the sampling-set sizes around
	// independent-support minimization (largest task of the first
	// version); HashDensity its mean hash-row density.
	SupportBefore, SupportAfter int
	HashDensity                 float64
	// TimedOut reports a limit hit: Sec is then absent.
	TimedOut bool
}

// RunApproxScaleTable verifies ER for every version of every spec with
// the approx backend. Runs land in OnRun under "<name>/scale", distinct
// from the regular approx table's records (bare spec names), so a
// committed report gates both.
func RunApproxScaleTable(specs []Spec, cfg Config) []ApproxScaleRow {
	cfg = cfg.withDefaults()
	opt := cfg.options(core.MethodApprox)
	rows := make([]ApproxScaleRow, 0, len(specs))
	for _, spec := range specs {
		row := ApproxScaleRow{Name: spec.Name}
		logSum := 0.0
		for v, approx := range spec.Approx {
			start := time.Now()
			res, err := core.Verify(context.Background(), spec.Exact, approx, ER.spec(), opt)
			if cfg.OnRun != nil {
				cfg.OnRun(newRunRecord(spec.Name+"/scale", ER.String(), core.MethodApprox, v, res, err, time.Since(start)))
			}
			// A best-effort result ran out the clock and returned a
			// degraded-confidence median: for the runtime column that is
			// a limit hit, even though the estimate itself is valid.
			if err != nil || res.BestEffort {
				row.TimedOut = true
				break
			}
			if v == 0 {
				for _, sub := range res.Subs {
					if sub.SupportBefore > row.SupportBefore {
						row.SupportBefore = sub.SupportBefore
						row.SupportAfter = sub.SupportAfter
						row.HashDensity = sub.HashDensity
					}
				}
			}
			logSum += math.Log(clampSecs(res.Runtime.Seconds()))
		}
		if !row.TimedOut && len(spec.Approx) > 0 {
			row.Sec = math.Exp(logSum / float64(len(spec.Approx)))
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
		secs := fmt.Sprintf("%.4g", r.Sec)
		if r.TimedOut {
			secs = fmt.Sprintf(">%g", cfg.TimeLimit.Seconds())
		}
		support := "-"
		if r.SupportBefore > 0 {
			support = fmt.Sprintf("%d->%d", r.SupportBefore, r.SupportAfter)
		}
		fmt.Fprintf(w, "%-11s %12s %14s %9.3g\n", r.Name, secs, support, r.HashDensity)
	}
}
