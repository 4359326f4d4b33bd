package bench

import (
	"bytes"
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
	if got := (Cell{Geomean: 0.1234}).Render(limit); got != "0.1234" {
		t.Errorf("Render = %q", got)
	}
	if got := (Cell{TimedOut: true}).Render(limit); got != ">10" {
		t.Errorf("timeout Render = %q", got)
	}
	if got := (Cell{Infeasible: true}).Render(limit); got != ">10" {
		t.Errorf("infeasible Render = %q", got)
	}
}

func TestRowSpeedup(t *testing.T) {
	limit := 100 * time.Second
	r := Row{Cells: map[core.Method]Cell{
		core.MethodVACSEM: {Geomean: 2},
		core.MethodDPLL:   {Geomean: 10},
		core.MethodEnum:   {TimedOut: true},
	}}
	if got := r.Speedup(core.MethodDPLL, limit); got != "5" {
		t.Errorf("speedup vs dpll = %q", got)
	}
	if got := r.Speedup(core.MethodEnum, limit); got != ">50" {
		t.Errorf("speedup vs enum = %q", got)
	}
	// VACSEM itself timed out: undefined.
	r2 := Row{Cells: map[core.Method]Cell{
		core.MethodVACSEM: {TimedOut: true},
		core.MethodDPLL:   {Geomean: 1},
	}}
	if got := r2.Speedup(core.MethodDPLL, limit); got != "-" {
		t.Errorf("timed-out VACSEM speedup = %q", got)
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	limit := time.Second
	rows := []Row{
		{Cells: map[core.Method]Cell{
			core.MethodVACSEM: {Geomean: 1},
			core.MethodDPLL:   {Geomean: 4},
		}},
		{Cells: map[core.Method]Cell{
			core.MethodVACSEM: {Geomean: 1},
			core.MethodDPLL:   {Geomean: 16},
		}},
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
	rows := RunTable(specs, ER, cfg)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		v := r.Cells[core.MethodVACSEM]
		if v.TimedOut || v.Infeasible || v.Geomean <= 0 {
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

// TestRunTableErrorIsNotATimeout pins the error classification: a run
// that fails outright (here, a pair whose input counts differ) prints
// as "error" with no speedup, never as a ">limit" timeout, and its
// report record carries the error instead of a timeout flag.
func TestRunTableErrorIsNotATimeout(t *testing.T) {
	cfg := tinyConfig()
	var recs []RunRecord
	cfg.OnRun = func(r RunRecord) { recs = append(recs, r) }
	spec := Spec{Name: "mismatch", Exact: gen.RippleCarryAdder(4),
		Approx: []*circuit.Circuit{gen.RippleCarryAdder(3)}}
	rows := RunTable([]Spec{spec}, ER, cfg)
	for m, c := range rows[0].Cells {
		if got := c.Render(cfg.TimeLimit); got != "error" {
			t.Errorf("%v cell renders %q, want error", m, got)
		}
	}
	if got := rows[0].Speedup(core.MethodDPLL, cfg.TimeLimit); got != "-" {
		t.Errorf("speedup over a failed row = %q, want -", got)
	}
	if len(recs) != len(rows[0].Cells) {
		t.Fatalf("%d run records for %d methods", len(recs), len(rows[0].Cells))
	}
	for _, r := range recs {
		if r.Err == "" || r.TimedOut || r.Infeasible {
			t.Errorf("%s record: err=%q timed_out=%v infeasible=%v, want an error only",
				r.Method, r.Err, r.TimedOut, r.Infeasible)
		}
	}
}

func TestRunTableMED(t *testing.T) {
	cfg := tinyConfig()
	cfg.Methods = []core.Method{core.MethodVACSEM, core.MethodEnum}
	specs := AdderMultSpecs(cfg)[:1] // adder8
	rows := RunTable(specs, MED, cfg)
	v := rows[0].Cells[core.MethodVACSEM]
	e := rows[0].Cells[core.MethodEnum]
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
	if ER.String() != "ER" || MED.String() != "MED" {
		t.Error("metric names wrong")
	}
}

// TestRunMulti exercises the multi-metric session harness on the two
// smallest specs: dedup must fire, session values must match the
// standalone runs (Mismatch false), and the session record stream must
// carry the dedup and cross-metric cache accounting.
func TestRunMulti(t *testing.T) {
	cfg := tinyConfig()
	var recs []SessionRecord
	cfg.OnSession = func(rec SessionRecord) { recs = append(recs, rec) }
	all := AdderMultSpecs(cfg)
	specs := []Spec{all[0], all[3]} // adder8, mult6
	rows := RunMulti(specs, cfg)
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.TimedOut {
			t.Errorf("%s: timed out", r.Name)
		}
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
		if r.SessionSec <= 0 || r.StandaloneSec <= 0 {
			t.Errorf("%s: runtimes %v / %v", r.Name, r.SessionSec, r.StandaloneSec)
		}
	}
	if len(recs) != 2 {
		t.Fatalf("got %d session records", len(recs))
	}
	for _, rec := range recs {
		if rec.TasksDeduped <= 0 || len(rec.Metrics) != 3 {
			t.Errorf("%s: record %+v", rec.Bench, rec)
		}
		if rec.StandaloneSeconds <= 0 {
			t.Errorf("%s: standalone seconds missing", rec.Bench)
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
}
