package engine_test

import (
	"bytes"
	"context"
	"encoding/json"
	"math/big"
	"strings"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/gen"
	"vacsem/internal/obs"
	"vacsem/internal/plan"
	"vacsem/internal/store"
)

// sessionRequest plans a {ER, MED, MHD} session of approx against exact,
// as core does.
func sessionRequest(t *testing.T, exact, approx *circuit.Circuit) *engine.Request {
	t.Helper()
	p, err := plan.Build(context.Background(), exact, approx,
		[]plan.Spec{{Kind: plan.ER}, {Kind: plan.MED}, {Kind: plan.MHD}}, false)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Request{Session: p.Session, Miter: p.Exec, Tasks: p.Tasks}
}

// disjointMiter is a custom two-output miter whose outputs read disjoint
// input sets: a middle product bit of a 4x4 multiplier over inputs 0-7
// and one of a 5x5 multiplier over inputs 8-17. Both cones are dense
// enough for the controller, so the sweep must count them as two groups
// (2^8 and 2^10 patterns), never as one 2^18 enumeration.
func disjointMiter(t *testing.T) *engine.Request {
	t.Helper()
	m := circuit.New("disjoint")
	var ins []int
	for i := 0; i < 18; i++ {
		ins = append(ins, m.AddInput(""))
	}
	lo := circuit.Append(m, gen.ArrayMultiplier(4), ins[:8])
	hi := circuit.Append(m, gen.ArrayMultiplier(5), ins[8:])
	m.AddOutput(lo[6], "lo")
	m.AddOutput(hi[8], "hi")
	p, err := plan.FromMiter(context.Background(), "disjoint", m,
		[]*big.Int{big.NewInt(1), big.NewInt(1)}, false)
	if err != nil {
		t.Fatal(err)
	}
	return &engine.Request{Session: p.Session, Miter: p.Exec, Tasks: p.Tasks}
}

// swept reports whether res came from the vacsem backend's session sweep:
// a counter run always propagates the asserted output, a swept task
// reports one simulated component and nothing else.
func swept(res engine.TaskResult) bool {
	return !res.Trivial && !res.FromStore &&
		res.Stats == counter.Stats{SimCalls: 1, SimPatterns: res.Stats.SimPatterns}
}

func execute(t *testing.T, name string, req *engine.Request) []engine.TaskResult {
	t.Helper()
	be, err := engine.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(context.Background(), be, req)
	if err != nil {
		t.Fatalf("%s on %s: %v", name, req.Session, err)
	}
	return res
}

func sameCounts(t *testing.T, what string, req *engine.Request, got, want []engine.TaskResult) {
	t.Helper()
	for j := range want {
		if got[j].Count.Cmp(want[j].Count) != 0 {
			t.Errorf("%s: %s task %d (%s) = %v, want %v", what, req.Session, j,
				req.Tasks[j].Label, got[j].Count, want[j].Count)
		}
	}
}

// TestSweepMatchesExactBackends pins the session sweep: on sessions it
// sweeps, every count equals enum's and dpll's bit for bit at any worker
// count and store temperature, and every swept task is one the counter
// itself would have simulated whole — a lone counter run on its sub-miter
// returns the same count with one simulation call and no decision.
func TestSweepMatchesExactBackends(t *testing.T) {
	sessions := []struct {
		req  *engine.Request
		dpll bool // the dpll baseline finishes in test time
	}{
		// dpll needs seconds on mult6 and minutes on mult8.
		{sessionRequest(t, gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 3)), !testing.Short()},
		{sessionRequest(t, gen.ArrayMultiplier(8), als.SuiteApproximations(gen.ArrayMultiplier(8), 1, 1)[0]), false},
		{sessionRequest(t, gen.RippleCarryAdder(8), als.LowerORAdder(8, 3)), true},
		{disjointMiter(t), true},
	}
	total := 0
	for _, s := range sessions {
		req := s.req
		want := execute(t, "enum", req)
		if s.dpll {
			sameCounts(t, "dpll", req, execute(t, "dpll", req), want)
		}
		req.Config.Workers = 1
		seq := execute(t, "vacsem", req)
		sameCounts(t, "vacsem -workers 1", req, seq, want)
		req.Config.Workers = 4
		sameCounts(t, "vacsem -workers 4", req, execute(t, "vacsem", req), want)

		req.Config.Store = store.New(store.Config{})
		sameCounts(t, "vacsem cold store", req, execute(t, "vacsem", req), want)
		warm := execute(t, "vacsem", req)
		sameCounts(t, "vacsem warm store", req, warm, want)
		for j, r := range warm {
			if !r.Trivial && !r.FromStore {
				t.Errorf("%s task %d (%s): warm store missed", req.Session, j, req.Tasks[j].Label)
			}
		}
		req.Config = engine.Config{}

		for j, r := range seq {
			if !swept(r) {
				continue
			}
			total++
			k := req.Tasks[j].KeyInputs
			if r.Stats.SimPatterns != 1<<k {
				t.Errorf("%s task %d: SimPatterns %d, want 2^%d", req.Session, j, r.Stats.SimPatterns, k)
			}
			f, err := cnf.Encode(req.Tasks[j].Sub)
			if err != nil {
				t.Fatal(err)
			}
			s := counter.New(f, counter.Config{EnableSim: true})
			n, err := s.Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			n.Lsh(n, uint(req.Miter.NumInputs()-f.NumEncodedInputs()))
			if n.Cmp(r.Count) != 0 {
				t.Errorf("%s task %d (%s): lone counter %v, swept %v", req.Session, j, req.Tasks[j].Label, n, r.Count)
			}
			if st := s.Stats(); st.SimCalls != 1 || st.Decisions != 0 {
				t.Errorf("%s task %d (%s): swept, but a lone counter makes %d sim calls and %d decisions",
					req.Session, j, req.Tasks[j].Label, st.SimCalls, st.Decisions)
			}
		}
	}
	if total == 0 {
		t.Fatal("no session swept a task")
	}
}

// TestSweepGroupsBySupport checks that tasks over disjoint input sets are
// swept as separate groups, each over its own inputs.
func TestSweepGroupsBySupport(t *testing.T) {
	req := disjointMiter(t)
	var buf bytes.Buffer
	tr := obs.NewTracer(&buf)
	obs.SetTracer(tr)
	res := execute(t, "vacsem", req)
	obs.SetTracer(nil)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	for j, r := range res {
		if !swept(r) {
			t.Errorf("task %d (%s) not swept: %+v", j, req.Tasks[j].Label, r.Stats)
		}
	}
	var ks []int
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var ev struct {
			Ev    string
			Tasks json.RawMessage
			K     int
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Ev == "sim_batch" {
			var tasks []int
			if err := json.Unmarshal(ev.Tasks, &tasks); err != nil {
				t.Fatal(err)
			}
			if len(tasks) != 1 {
				t.Errorf("sim_batch over tasks %v, want one task per group", tasks)
			}
			ks = append(ks, ev.K)
		}
	}
	if len(ks) != 2 || ks[0]+ks[1] != 18 || ks[0] == ks[1] {
		t.Errorf("sim_batch k = %v, want one sweep over 8 inputs and one over 10", ks)
	}
}

// TestSweepStatsAccounting pins the per-layer accounting of a swept
// multiplier session: every non-trivial task is one simulation call, the
// session makes no decision, and the sweep's time is booked as
// simulation time. (The ALS version is one whose every
// non-trivial deviation bit reaches all 16 inputs; low bits of truncated
// multipliers are cones too small for the controller.)
func TestSweepStatsAccounting(t *testing.T) {
	exact := gen.ArrayMultiplier(8)
	approx := als.Approximate(exact, als.Config{Seed: 39, TargetER: 0.05, RequireError: true})
	p, err := plan.Build(context.Background(), exact, approx,
		[]plan.Spec{{Kind: plan.ER}, {Kind: plan.MED}}, false)
	if err != nil {
		t.Fatal(err)
	}
	be, err := engine.Lookup("vacsem")
	if err != nil {
		t.Fatal(err)
	}
	simSeconds := obs.Default.Histogram("counter.sim_component_seconds", nil)
	calls, secs := simSeconds.Count(), simSeconds.Sum()
	out, err := p.Run(context.Background(), be, engine.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	nonTrivial := 0
	var total counter.Stats
	for _, r := range out.TaskResults {
		if !r.Trivial {
			nonTrivial++
		}
		total.Add(r.Stats)
	}
	if total.SimCalls != uint64(nonTrivial) || total.Decisions != 0 {
		t.Errorf("session stats: %d sim calls for %d non-trivial tasks, %d decisions; want equal and 0",
			total.SimCalls, nonTrivial, total.Decisions)
	}
	if n := simSeconds.Count() - calls; n != total.SimCalls || simSeconds.Sum() <= secs {
		t.Errorf("counter.sim_component_seconds got %d observations over %v s, want one per sim call over the sweep's time",
			n, simSeconds.Sum()-secs)
	}
}

// TestSweepSkipsAdders checks that no task of an adder16 session passes
// the whole-cone rule: its cones reach 32 inputs, beyond the simulator's
// cap, so every task is left to the counter's search.
func TestSweepSkipsAdders(t *testing.T) {
	p, err := plan.Build(context.Background(), gen.RippleCarryAdder(16), als.LowerORAdder(16, 4),
		[]plan.Spec{{Kind: plan.ER}, {Kind: plan.MED}}, false)
	if err != nil {
		t.Fatal(err)
	}
	req := &engine.Request{Session: p.Session, Miter: p.Exec, Tasks: p.Tasks}
	for j, r := range execute(t, "vacsem", req) {
		if swept(r) {
			t.Errorf("task %d (%s) swept on an adder16 session", j, req.Tasks[j].Label)
		}
	}
}
