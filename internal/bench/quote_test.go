package bench

import (
	"os"
	"strings"
	"testing"
	"time"

	"vacsem/internal/core"
)

// reload writes rep as JSON and reads it back with LoadReport.
func reload(t *testing.T, rep *Report) *Report {
	t.Helper()
	back, err := LoadReport(writeReport(t, rep))
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// reportConfig is the Config a report was written under, as far as the
// table titles and limit cells need it.
func reportConfig(t *testing.T, rep *Report) Config {
	t.Helper()
	limit, err := time.ParseDuration(rep.TimeLimit)
	if err != nil {
		t.Fatal(err)
	}
	return Config{Full: rep.Suite == "full", Versions: rep.Versions, Options: core.Options{TimeLimit: limit}}
}

// TestTablesRenderFromReloadedReport pins that every text table is a
// function of its records alone: printed from a live run and from that
// run's reloaded JSON report, each table is byte-identical.
func TestTablesRenderFromReloadedReport(t *testing.T) {
	cfg := tinyConfig()
	specs := AdderMultSpecs(cfg)[:1] // adder8
	for _, tc := range []struct {
		name   string
		run    func() *Report
		render func(rep *Report) string
	}{
		{"table IV", func() *Report {
			return &Report{Runs: RunTable(specs, ER, cfg)}
		}, func(rep *Report) string {
			var sb strings.Builder
			WriteTable(&sb, TitleIV, Rows(rep.Runs), cfg)
			WriteTable6(&sb, Rows(rep.Runs), cfg)
			WriteDDScalability(&sb, Rows(rep.Runs), cfg)
			return sb.String()
		}},
		{"multi", func() *Report {
			sessions, runs := RunMulti(specs, cfg)
			return &Report{Runs: runs, Sessions: sessions}
		}, func(rep *Report) string {
			var sb strings.Builder
			WriteMultiTable(&sb, MultiRows(rep.Sessions, rep.Runs), cfg)
			return sb.String()
		}},
		{"approx", func() *Report {
			return &Report{Runs: RunApproxTable(specs, ER, cfg)}
		}, func(rep *Report) string {
			var sb strings.Builder
			WriteApproxTable(&sb, ApproxRows(rep.Runs, cfg), cfg)
			return sb.String()
		}},
		{"approx scale", func() *Report {
			return &Report{Runs: RunApproxScaleTable(specs, cfg)}
		}, func(rep *Report) string {
			var sb strings.Builder
			WriteApproxScaleTable(&sb, ApproxScaleRows(rep.Runs), cfg)
			return sb.String()
		}},
	} {
		live := tc.run()
		if got, want := tc.render(reload(t, live)), tc.render(live); got != want {
			t.Errorf("%s: reloaded report renders\n%s\nlive run rendered\n%s", tc.name, got, want)
		}
	}
}

// TestExperimentsQuotesMatchReports re-renders every measured table
// EXPERIMENTS.md quotes from the committed report it names, and
// requires the quoted code block to match byte for byte.
func TestExperimentsQuotesMatchReports(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		report string
		render func(sb *strings.Builder, runs []RunRecord, cfg Config)
	}{
		{"BENCH_20261017T094706.json", func(sb *strings.Builder, runs []RunRecord, cfg Config) {
			WriteTable(sb, TitleIV, Rows(runs), cfg)
		}},
		{"BENCH_20261017T095001.json", func(sb *strings.Builder, runs []RunRecord, cfg Config) {
			WriteTable(sb, TitleV, Rows(runs), cfg)
		}},
		{"BENCH_20261019T063106.json", func(sb *strings.Builder, runs []RunRecord, cfg Config) {
			WriteTable6(sb, Rows(runs), cfg)
		}},
		{"BENCH_20261019T050207.json", func(sb *strings.Builder, runs []RunRecord, cfg Config) {
			WriteDDScalability(sb, Rows(runs), cfg)
		}},
		{"BENCH_20261019T125007.json", func(sb *strings.Builder, runs []RunRecord, cfg Config) {
			var table, scale []RunRecord
			for _, r := range runs {
				if r.Approx {
					cfg.Epsilon, cfg.Delta = r.Epsilon, r.Delta
				}
				if strings.HasSuffix(r.Bench, "/scale") {
					scale = append(scale, r)
				} else {
					table = append(table, r)
				}
			}
			WriteApproxTable(sb, ApproxRows(table, cfg), cfg)
			sb.WriteString("\n")
			WriteApproxScaleTable(sb, ApproxScaleRows(scale), cfg)
		}},
	} {
		rep, err := LoadReport("../../" + tc.report)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		tc.render(&sb, rep.Runs, reportConfig(t, rep))
		if !strings.Contains(string(doc), "```\n"+sb.String()+"```\n") {
			t.Errorf("EXPERIMENTS.md does not quote %s as rendered:\n%s", tc.report, sb.String())
		}
	}
}
