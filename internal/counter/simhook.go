package counter

import (
	"context"
	"math/big"
	"sort"
	"time"

	"vacsem/internal/obs"
	"vacsem/internal/sim"
)

// trySimulate implements SimulationController(f) + SolveBySimulation(f)
// from Algorithm 1. Given a residual component, it recovers the
// corresponding sub-circuit through the clause->gate map built in Phase 1,
// classifies sub-circuit inputs into free and decided ones and gates into
// plain and checking gates, and — when the dynamic controller enables
// simulation — counts the component's models as the number of *consistent
// patterns* (Proposition 1) with 64-way bit-parallel simulation.
//
// It returns (count, true) when simulation was performed, (nil, false)
// when the controller chose the DPLL path, and (nil, true) when the
// solver was cancelled mid-simulation (s.aborted is set; callers must
// not cache or use the nil count).
func (s *Solver) trySimulate(comp *component) (*big.Int, bool) {
	if !s.cfg.EnableSim || s.f.Circ == nil {
		return nil, false
	}
	// Cheap size pre-check: a gate contributes at least two clauses or
	// one native parity row, so a component whose clauses and rows
	// cannot reach the minimum sub-circuit size skips the gate mapping
	// entirely. (This fires for nearly every small residual component,
	// so its trace events are sampled; the later rejections are not.)
	if len(comp.clauses)+2*len(comp.xors) < 2*s.cfg.MinSimGates {
		return s.rejectSim(true, "few_clauses", 0, 0, 0)
	}
	circ := s.f.Circ

	// 1. Map the component's clauses and parity rows back to gates
	// (unique node ids).
	s.stamp++
	stamp := s.stamp
	for _, v := range comp.vars {
		s.varSeen[v] = stamp
	}
	var gates []int32
	for _, ci := range comp.clauses {
		g := s.f.GateOfClause[ci]
		if g < 0 {
			// A clause with no gate (e.g. an assumption) cannot be
			// represented by circuit structure.
			return s.rejectSim(false, "unmapped_clause", len(gates), 0, 0)
		}
		if s.gateSeen[g] != stamp {
			s.gateSeen[g] = stamp
			gates = append(gates, g)
		}
		s.compClSet[ci] = stamp
	}
	for _, xi := range comp.xors {
		g := s.f.GateOfXor[xi]
		if g < 0 {
			// A parity row with no gate (parsed x-line, streamlining hash
			// row) has no circuit structure to simulate.
			return s.rejectSim(false, "unmapped_clause", len(gates), 0, 0)
		}
		if s.gateSeen[g] != stamp {
			s.gateSeen[g] = stamp
			gates = append(gates, g)
		}
		s.compXorSet[xi] = stamp
	}

	// 2. Completeness guard: every still-active clause and parity row of
	// every mapped gate must belong to this component, otherwise
	// simulating the full gate consistency would over-constrain the
	// component. (For the standard encodings this holds by construction;
	// the guard keeps the counter sound for any clause layout.)
	for _, g := range gates {
		for _, ci := range s.f.ClausesOfGate[g] {
			if s.nTrue[ci] == 0 && s.compClSet[ci] != stamp {
				return s.rejectSim(false, "foreign_clause", len(gates), 0, 0)
			}
		}
		for _, xi := range s.f.XorsOfGate[g] {
			if s.xorFree[xi] > 0 && s.compXorSet[xi] != stamp {
				return s.rejectSim(false, "foreign_clause", len(gates), 0, 0)
			}
		}
	}

	// 3. Collect sub-circuit inputs: fanins of mapped gates that are not
	// themselves mapped gates. Inputs whose variables are decided become
	// constant vectors. Free inputs that belong to the component are
	// enumerated. A free fanin *outside* the component (its variable
	// appears in no active clause of this component) cannot influence
	// consistency — the residual clauses never mention it — so it is
	// pinned to 0 rather than enumerated, which would double-count.
	var freeInputs, pinnedInputs []int32
	for _, g := range gates {
		for _, fn := range circ.Nodes[g].Fanins {
			fn32 := int32(fn)
			if s.gateSeen[fn32] == stamp || s.nodeSeen[fn32] == stamp {
				continue
			}
			s.nodeSeen[fn32] = stamp
			v := s.f.VarOfNode[fn32]
			if v == 0 {
				// A fanin without a CNF variable cannot occur for encoded
				// cones; refuse rather than guess.
				return s.rejectSim(false, "unmapped_fanin", len(gates), 0, 0)
			}
			switch {
			case s.assign[v] != unassigned:
				pinnedInputs = append(pinnedInputs, fn32)
			case s.varSeen[v] == stamp:
				freeInputs = append(freeInputs, fn32)
			default:
				pinnedInputs = append(pinnedInputs, fn32) // irrelevant free fanin
			}
		}
	}

	// 4. Dynamic controller (Section IV-B3).
	k := len(freeInputs)
	reject, density := s.cfg.SimVerdict(len(gates), k)
	if reject != "" {
		return s.rejectSim(false, reject, len(gates), k, density)
	}

	// 5. Simulate: compile the component to a fused instruction tape and
	// count consistent patterns with the shared kernel. Gates in ascending
	// node-id order are in topological order (a circuit invariant checked
	// by Validate at encode time). Pinned inputs (decided variables, plus
	// free-but-irrelevant fanins, which stay at 0) become complement edges
	// off the constant-zero slot; gates whose CNF variable is decided fold
	// into AND/AND-NOT check instructions on the program's consistency
	// accumulator (complement edges pick the polarity, so a decided
	// Buf/Not chain costs no extra instructions).
	sort.Slice(gates, func(i, j int) bool { return gates[i] < gates[j] })
	pinned := make([]sim.PinnedInput, len(pinnedInputs))
	for i, n := range pinnedInputs {
		pinned[i] = sim.PinnedInput{Node: n, Val: s.assign[s.f.VarOfNode[n]] == 1}
	}
	check := func(g int32) int8 {
		switch s.assign[s.f.VarOfNode[g]] {
		case 1: // checking gate decided TRUE
			return 1
		case 0: // checking gate decided FALSE
			return -1
		}
		return 0
	}
	start := time.Now()
	prog, err := sim.CompileComponent(circ, gates, freeInputs, pinned, check)
	if err != nil {
		// Structure the recovery above should have rejected; fall back to
		// DPLL rather than guess.
		return s.rejectSim(false, "compile_failed", len(gates), k, density)
	}
	ctx := s.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	s.stats.SimPatterns += uint64(1) << uint(k)
	counts, err := prog.CountOnes(ctx, 1)
	if err != nil {
		s.aborted = true
		s.abortErr = err
		return nil, true
	}
	count := counts[0]
	dur := time.Since(start)
	hSimSeconds.Observe(dur.Seconds())
	s.stats.SimCalls++
	if s.tr != nil {
		s.tr.Event(s.span, "sim_decision", obs.Fields{
			"accepted": true, "gates": len(gates), "k": k, "density": density,
			"count": count, "sim_us": dur.Microseconds(),
		})
	}
	return new(big.Int).SetUint64(count), true
}

// SimVerdict is the dynamic controller of Section IV-B3, the one home
// of its rule: a sub-circuit of gates gates over k free inputs is
// simulated when k is within MaxSimVars (and the kernel's 62), gates
// reaches MinSimGates and the density score Alpha*gates/k^2 exceeds 1,
// with c's zero fields at their defaults. reject is "" on acceptance,
// else "too_many_inputs", "few_gates" or "low_density"; density is 0
// when a cap decided first or k is 0.
func (c Config) SimVerdict(gates, k int) (reject string, density float64) {
	cfg := c.withDefaults()
	if k > cfg.MaxSimVars || k > 62 {
		return "too_many_inputs", 0
	}
	if gates < cfg.MinSimGates {
		return "few_gates", 0
	}
	if k > 0 {
		density = cfg.Alpha * float64(gates) / float64(k*k)
		if density <= 1 {
			return "low_density", density
		}
	}
	return "", density
}

// SimulatedWhole books a formula that the engine's session sweep
// counted whole by simulation, outside any Solver, the way trySimulate
// books an accepted component: one simulation call over 2^k patterns in
// the registry counters and d in counter.sim_component_seconds. It
// returns the Stats a Solver reports for such a count.
func SimulatedWhole(k int, d time.Duration) Stats {
	st := Stats{SimCalls: 1, SimPatterns: uint64(1) << uint(k)}
	addStatsToRegistry(st)
	hSimSeconds.Observe(d.Seconds())
	return st
}
