package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/core"
	"vacsem/internal/gen"
)

func tinyConfig() Config {
	return Config{Versions: 1, Options: core.Options{TimeLimit: 20 * time.Second}}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Versions != 3 || c.TimeLimit != 30*time.Second || len(c.Methods) != 3 {
		t.Errorf("scaled defaults wrong: %+v", c)
	}
	f := Config{Full: true}.withDefaults()
	if f.Versions != 10 || f.TimeLimit != 4*time.Hour {
		t.Errorf("full defaults wrong: %+v", f)
	}
}

func TestCellRender(t *testing.T) {
	limit := 10 * time.Second
	for _, tc := range []struct {
		cell Cell
		want string
	}{
		{Cell{Geomean: 0.1234}, "0.1234"},
		{Cell{status: outcomeTimeout}, ">10"},
		{Cell{status: outcomeTooLarge}, ">10"},
		{Cell{status: outcomeBlowUp}, "blow-up"},
		{Cell{status: outcomeError}, "error"},
		{Cell{}, "-"},
	} {
		if got := tc.cell.Render(limit); got != tc.want {
			t.Errorf("%+v renders %q, want %q", tc.cell, got, tc.want)
		}
	}
}

// cells builds a row from method -> cell pairs.
func cells(c map[core.Method]Cell) Row {
	r := Row{Cells: map[string]Cell{}}
	for m, cell := range c {
		r.Cells[m.String()] = cell
	}
	return r
}

func TestRowSpeedup(t *testing.T) {
	limit := 100 * time.Second
	r := cells(map[core.Method]Cell{
		core.MethodVACSEM: {Geomean: 2},
		core.MethodDPLL:   {Geomean: 10},
		core.MethodEnum:   {status: outcomeTimeout},
	})
	if got := r.Speedup(core.MethodDPLL, limit); got != "5" {
		t.Errorf("speedup vs dpll = %q", got)
	}
	if got := r.Speedup(core.MethodEnum, limit); got != ">50" {
		t.Errorf("speedup vs enum = %q", got)
	}
	// VACSEM itself timed out, or the baseline has no runs: undefined.
	r2 := cells(map[core.Method]Cell{
		core.MethodVACSEM: {status: outcomeTimeout},
		core.MethodDPLL:   {Geomean: 1},
	})
	if got := r2.Speedup(core.MethodDPLL, limit); got != "-" {
		t.Errorf("timed-out VACSEM speedup = %q", got)
	}
	if got := r.Speedup(core.MethodBDD, limit); got != "-" {
		t.Errorf("speedup against a method without runs = %q", got)
	}
}

// TestFold pins the one fold every runtime column uses: the geomean of
// the recorded seconds when every run completed, else the outcome of
// the first run that did not.
func TestFold(t *testing.T) {
	ok := func(s float64) RunRecord { return RunRecord{Method: "vacsem", Seconds: s} }
	if got := fold([]RunRecord{ok(1), ok(4)}); got.Geomean != 2 || got.status != outcomeOK {
		t.Errorf("geomean fold = %+v, want 2", got)
	}
	timedOut := RunRecord{Method: "vacsem", TimedOut: true}
	if got := fold([]RunRecord{ok(1), timedOut}); got.Geomean != 0 || got.status != outcomeTimeout {
		t.Errorf("fold over a timeout = %+v", got)
	}
	blowUp := RunRecord{Method: "bdd", Infeasible: true}
	if got := fold([]RunRecord{blowUp}).Render(time.Second); got != "blow-up" {
		t.Errorf("infeasible bdd renders %q", got)
	}
	bestEffort := RunRecord{Method: "approx", Seconds: 1, BestEffort: true}
	if got := fold([]RunRecord{bestEffort}).Render(time.Second); got != ">1" {
		t.Errorf("best-effort run renders %q, want a limit hit", got)
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	limit := time.Second
	rows := []Row{
		cells(map[core.Method]Cell{
			core.MethodVACSEM: {Geomean: 1},
			core.MethodDPLL:   {Geomean: 4},
		}),
		cells(map[core.Method]Cell{
			core.MethodVACSEM: {Geomean: 1},
			core.MethodDPLL:   {Geomean: 16},
		}),
	}
	if got := GeomeanSpeedup(rows, core.MethodDPLL, limit); got != 8 {
		t.Errorf("geomean = %v, want 8", got)
	}
	if got := GeomeanSpeedup(nil, core.MethodDPLL, limit); got != 0 {
		t.Errorf("empty geomean = %v", got)
	}
}

func TestAdderMultSpecsScaledShape(t *testing.T) {
	specs := AdderMultSpecs(tinyConfig())
	if len(specs) != 6 {
		t.Fatalf("got %d specs", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
		if len(s.Approx) != 1 {
			t.Errorf("%s: %d versions, want 1", s.Name, len(s.Approx))
		}
		for _, a := range s.Approx {
			if a.NumInputs() != s.Exact.NumInputs() || a.NumOutputs() != s.Exact.NumOutputs() {
				t.Errorf("%s: approximate version interface mismatch", s.Name)
			}
		}
	}
	for _, want := range []string{"adder8", "adder16", "adder32", "mult6", "mult8", "mult10"} {
		if !names[want] {
			t.Errorf("missing spec %s", want)
		}
	}
}

func TestEPFLBACSSpecsScaled(t *testing.T) {
	specs := EPFLBACSSpecs(tinyConfig())
	if len(specs) != 12 {
		t.Fatalf("got %d specs", len(specs))
	}
	for _, s := range specs {
		if err := s.Exact.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if len(s.Approx) != 1 {
			t.Errorf("%s: versions", s.Name)
		}
	}
}

// TestRunTableEndToEnd exercises the harness on the two smallest specs
// with all three methods and checks internal consistency (VACSEM never
// times out, speedups renderable).
func TestRunTableEndToEnd(t *testing.T) {
	cfg := tinyConfig()
	all := AdderMultSpecs(cfg)
	specs := []Spec{all[0], all[3]} // adder8, mult6
	runs := RunTable(specs, ER, cfg)
	if len(runs) != 6 {
		t.Fatalf("got %d runs, want 2 specs x 3 methods", len(runs))
	}
	rows := Rows(runs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if v := r.cell(core.MethodVACSEM); v.status != outcomeOK || v.Geomean <= 0 {
			t.Errorf("%s: VACSEM cell bad: %+v", r.Name, v)
		}
	}
	var buf bytes.Buffer
	WriteTable(&buf, "test table", rows, cfg)
	out := buf.String()
	if !strings.Contains(out, "adder8") || !strings.Contains(out, "GEOMEAN") {
		t.Errorf("table output malformed:\n%s", out)
	}
}

// mismatchSpec fails every verification outright: its exact and
// approximate circuits have different input counts.
func mismatchSpec() Spec {
	return Spec{Name: "mismatch", Exact: gen.RippleCarryAdder(4),
		Approx: []*circuit.Circuit{gen.RippleCarryAdder(3)}}
}

// TestRunTableErrorIsNotATimeout pins the error classification in
// every table: a run that fails outright prints as "error" with no
// speedup, never as a ">limit" timeout, and its record carries the
// error instead of a timeout flag.
func TestRunTableErrorIsNotATimeout(t *testing.T) {
	cfg := tinyConfig()
	specs := []Spec{mismatchSpec()}
	ddCfg := cfg
	ddCfg.Methods = []core.Method{core.MethodBDD, core.MethodVACSEM}
	for _, tc := range []struct {
		name string
		runs []RunRecord
		// render prints the table from runs.
		render func(w io.Writer, runs []RunRecord)
	}{
		{"table IV", RunTable(specs, ER, cfg), func(w io.Writer, runs []RunRecord) {
			WriteTable(w, TitleIV, Rows(runs), cfg)
		}},
		{"table V", RunTable(specs, MED, cfg), func(w io.Writer, runs []RunRecord) {
			WriteTable(w, TitleV, Rows(runs), cfg)
		}},
		{"table VI", RunTable(specs, ER, cfg), func(w io.Writer, runs []RunRecord) {
			WriteTable6(w, Rows(runs), cfg)
		}},
		{"dd", RunTable(specs, ER, ddCfg), func(w io.Writer, runs []RunRecord) {
			WriteDDScalability(w, Rows(runs), cfg)
		}},
		{"approx", RunApproxTable(specs, ER, cfg), func(w io.Writer, runs []RunRecord) {
			WriteApproxTable(w, ApproxRows(runs, cfg), cfg)
		}},
		{"approx scale", RunApproxScaleTable(specs, cfg), func(w io.Writer, runs []RunRecord) {
			WriteApproxScaleTable(w, ApproxScaleRows(runs), cfg)
		}},
	} {
		var buf bytes.Buffer
		tc.render(&buf, tc.runs)
		out := buf.String()
		if !strings.Contains(out, " error") || strings.Contains(out, ">20") {
			t.Errorf("%s: a failed run must print error, never >limit:\n%s", tc.name, out)
		}
		for _, r := range tc.runs {
			if r.Err == "" || r.TimedOut || r.Infeasible {
				t.Errorf("%s: %s record: err=%q timed_out=%v infeasible=%v, want an error only",
					tc.name, r.Method, r.Err, r.TimedOut, r.Infeasible)
			}
		}
	}
	rows := Rows(RunTable(specs, ER, cfg))
	if got := rows[0].Speedup(core.MethodDPLL, cfg.TimeLimit); got != "-" {
		t.Errorf("speedup over a failed row = %q, want -", got)
	}

	// A failed session prints as an error row.
	sessions, runs := RunMulti(specs, cfg)
	if len(sessions) != 1 || sessions[0].Err == "" || sessions[0].TimedOut || len(runs) != 0 {
		t.Fatalf("failed session recorded as %+v with %d standalone runs", sessions, len(runs))
	}
	var buf bytes.Buffer
	WriteMultiTable(&buf, MultiRows(sessions, runs), cfg)
	if out := buf.String(); !strings.Contains(out, " error") || strings.Contains(out, ">20") {
		t.Errorf("multi: a failed session must print error:\n%s", out)
	}

	// Only a standalone run failed: the row shows the error and no
	// speedup.
	sess := SessionRecord{Bench: "adder8", Method: "vacsem", Seconds: 0.5, TasksRequested: 4, TasksUnique: 2, TasksDeduped: 2}
	alone := []RunRecord{
		{Bench: "adder8/standalone", Metric: "ER", Method: "vacsem", Seconds: 0.1},
		{Bench: "adder8/standalone", Metric: "MED", Method: "vacsem", Err: "boom"},
	}
	row := MultiRows([]SessionRecord{sess}, alone)[0]
	if got := row.Standalone.Render(cfg.TimeLimit); got != "error" {
		t.Errorf("failed standalone renders %q, want error", got)
	}
	if got := renderSpeedup(row.Session, row.Standalone, cfg.TimeLimit, "%.3gx"); got != "-" {
		t.Errorf("speedup over a failed standalone run = %q, want -", got)
	}
}

func TestRunTableMED(t *testing.T) {
	cfg := tinyConfig()
	cfg.Methods = []core.Method{core.MethodVACSEM, core.MethodEnum}
	specs := AdderMultSpecs(cfg)[:1] // adder8
	rows := Rows(RunTable(specs, MED, cfg))
	v := rows[0].cell(core.MethodVACSEM)
	e := rows[0].cell(core.MethodEnum)
	if v.Geomean <= 0 || e.Geomean <= 0 {
		t.Errorf("MED cells: vacsem %+v enum %+v", v, e)
	}
}

func TestWriteTable3(t *testing.T) {
	var buf bytes.Buffer
	WriteTable3(&buf)
	out := buf.String()
	for _, name := range []string{"adder128", "mult16", "sin", "mac"} {
		if !strings.Contains(out, name) {
			t.Errorf("table 3 missing %s:\n%s", name, out)
		}
	}
}

func TestMetricString(t *testing.T) {
	if ER.String() != "ER" || MED.String() != "MED" || MHD.String() != "MHD" {
		t.Error("metric names wrong")
	}
}

// TestRunMulti exercises the multi-metric session harness on the two
// smallest specs: dedup must fire, session values must match the
// standalone runs (Mismatch false), and the session records must carry
// the dedup and cross-metric cache accounting.
func TestRunMulti(t *testing.T) {
	cfg := tinyConfig()
	all := AdderMultSpecs(cfg)
	specs := []Spec{all[0], all[3]} // adder8, mult6
	sessions, runs := RunMulti(specs, cfg)
	if len(sessions) != 2 || len(runs) != 6 {
		t.Fatalf("got %d sessions and %d standalone runs", len(sessions), len(runs))
	}
	for _, rec := range sessions {
		if rec.TasksDeduped <= 0 || len(rec.Metrics) != 3 {
			t.Errorf("%s: record %+v", rec.Bench, rec)
		}
	}
	rows := MultiRows(sessions, runs)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Mismatch {
			t.Errorf("%s: session values differ from standalone", r.Name)
		}
		if r.TasksDeduped <= 0 {
			t.Errorf("%s: TasksDeduped = %d, want > 0", r.Name, r.TasksDeduped)
		}
		if r.TasksUnique+r.TasksDeduped != r.TasksRequested {
			t.Errorf("%s: task accounting %d+%d != %d",
				r.Name, r.TasksUnique, r.TasksDeduped, r.TasksRequested)
		}
		if r.Session.Geomean <= 0 || r.Standalone.Geomean <= 0 {
			t.Errorf("%s: runtimes %+v / %+v", r.Name, r.Session, r.Standalone)
		}
	}
	var buf bytes.Buffer
	WriteMultiTable(&buf, rows, cfg)
	out := buf.String()
	if !strings.Contains(out, "adder8") || !strings.Contains(out, "Deduped") {
		t.Errorf("multi table malformed:\n%s", out)
	}
	if strings.Contains(out, "MISMATCH") {
		t.Errorf("multi table reports mismatch:\n%s", out)
	}

	// A standalone value that differs from the session's is flagged.
	runs[0].Value = "1/3"
	if !MultiRows(sessions, runs)[0].Mismatch {
		t.Error("a differing standalone value is not flagged as a mismatch")
	}
}
