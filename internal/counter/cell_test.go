package counter

import (
	"bytes"
	"context"
	"math/big"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
)

// cellCfg enables simulation with a controller that accepts every cone
// of these small test circuits at every row count, so each prefix below
// takes the sim path.
var cellCfg = Config{EnableSim: true, Alpha: 1e6, MinSimGates: 1}

// inputVars returns the CNF variables of f's encoded primary inputs, the
// approx backend's sampling set.
func inputVars(f *cnf.Formula) []int32 {
	var vs []int32
	for _, id := range f.Circ.Inputs {
		if v := f.VarOfNode[id]; v != 0 {
			vs = append(vs, v)
		}
	}
	return vs
}

// dpllCell counts f ∧ rows with the DPLL Solver alone.
func dpllCell(t *testing.T, f *cnf.Formula, rows []cnf.XorClause) *big.Int {
	t.Helper()
	c, st, err := countCell(context.Background(), f, nil, cellCfg, rows)
	if err != nil {
		t.Fatal(err)
	}
	if st.Decisions+st.Propagations == 0 && c.Sign() != 0 {
		t.Fatalf("DPLL cell count %v did no search", c)
	}
	return c
}

// TestCellSimMatchesDPLL: on adder and multiplier ER and MED cones,
// the simulated count of every prefix of several seeds' hash rows equals
// the DPLL count of the same cell.
func TestCellSimMatchesDPLL(t *testing.T) {
	pairs := []struct {
		name          string
		exact, approx *circuit.Circuit
	}{
		{"adder8", gen.RippleCarryAdder(8), als.LowerORAdder(8, 3)},
		{"mult5", gen.ArrayMultiplier(5), als.TruncatedMultiplier(5, 2)},
	}
	builds := map[string]func(exact, approx *circuit.Circuit) (*circuit.Circuit, error){"ER": miter.ER, "MED": miter.MED}
	for _, p := range pairs {
		for metric, build := range builds {
			fs := miterFormulas(t, build, p.exact, p.approx)
			for j, f := range fs {
				if metric == "MED" && j%3 != 0 {
					continue // every third MED bit keeps the test short
				}
				cells := newCellSim(f, cellCfg)
				if cells == nil {
					t.Fatalf("%s %s bit %d: encoded cone refused", p.name, metric, j)
				}
				support := inputVars(f)
				for seed := uint64(1); seed <= 3; seed++ {
					rows, _ := sampleRows(mix64(seed), 0, support)
					for m := 0; m <= len(rows); m++ {
						got, st, ok, err := cells.count(context.Background(), cellCfg, rows[:m])
						if err != nil || !ok {
							t.Fatalf("%s %s bit %d seed %d m %d: ok %v err %v", p.name, metric, j, seed, m, ok, err)
						}
						if st.SimCalls != 1 {
							t.Fatalf("sim cell booked %d sim calls", st.SimCalls)
						}
						if want := dpllCell(t, f, rows[:m]); got.Cmp(want) != 0 {
							t.Fatalf("%s %s bit %d seed %d m %d: sim %v, DPLL %v", p.name, metric, j, seed, m, got, want)
						}
					}
				}
			}
		}
	}
}

// TestCellSimFallsBack: formulas that are not exactly the output-
// asserted encoding of their circuit, and rows over gate variables,
// take the DPLL path and count the same cells.
func TestCellSimFallsBack(t *testing.T) {
	m, err := miter.ER(gen.ArrayMultiplier(5), als.TruncatedMultiplier(5, 2))
	if err != nil {
		t.Fatal(err)
	}
	f, err := cnf.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	cells := newCellSim(f, cellCfg)
	if cells == nil {
		t.Fatal("encoded cone refused")
	}
	if newCellSim(f, Config{}) != nil {
		t.Error("cell simulator built with simulation off")
	}
	rows, _ := sampleRows(mix64(7), 0, inputVars(f))
	simCount := func(rows []cnf.XorClause) *big.Int {
		c, _, ok, err := cells.count(context.Background(), cellCfg, rows)
		if err != nil || !ok {
			t.Fatalf("sim path declined: ok %v err %v", ok, err)
		}
		return c
	}

	// A DIMACS round trip drops the circuit: same clauses, no cone.
	var buf bytes.Buffer
	if err := f.WriteDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := cnf.ParseDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if newCellSim(d, cellCfg) != nil {
		t.Error("DIMACS formula took the sim path")
	}

	// EncodeOpen plus the output unit clause is Encode's content and
	// simulates; one more clause (x1 true) sends it to DPLL, whose counts
	// equal the simulated cells with x1 = 1 as a unit (cube) row.
	open, err := cnf.EncodeOpen(m)
	if err != nil {
		t.Fatal(err)
	}
	out := open.VarOfNode[m.Outputs[0]]
	x1 := open.VarOfNode[m.Inputs[0]]
	withUnit := func(g *cnf.Formula, lits ...cnf.Lit) *cnf.Formula {
		h := *g
		h.Clauses = append(append([]cnf.Clause(nil), g.Clauses...), cnf.Clause(lits))
		h.GateOfClause = append(append([]int32(nil), g.GateOfClause...), -1)
		return &h
	}
	asserted := withUnit(open, out)
	if newCellSim(asserted, cellCfg) == nil {
		t.Error("EncodeOpen plus the output unit refused")
	}
	extra := withUnit(asserted, x1)
	if newCellSim(extra, cellCfg) != nil {
		t.Error("EncodeOpen plus an extra clause took the sim path")
	}

	// Rows over a gate variable leave the cone inputs.
	gateVar := f.VarOfNode[m.Outputs[0]]
	gateRow := cnf.XorClause{Vars: []int32{x1, gateVar}, Rhs: true}
	if _, _, ok, _ := cells.count(context.Background(), cellCfg, []cnf.XorClause{gateRow}); ok {
		t.Error("row over a gate variable took the sim path")
	}

	for k := 0; k <= len(rows); k += 3 {
		want := simCount(rows[:k])
		if got := dpllCell(t, d, rows[:k]); got.Cmp(want) != 0 {
			t.Errorf("DIMACS m %d: DPLL %v, sim %v", k, got, want)
		}
		cube := append(append([]cnf.XorClause(nil), rows[:k]...), cnf.XorClause{Vars: []int32{x1}, Rhs: true})
		if got, want := dpllCell(t, extra, rows[:k]), simCount(cube); got.Cmp(want) != 0 {
			t.Errorf("extra clause m %d: DPLL %v, sim with cube row %v", k, got, want)
		}
		// x1 ^ out = 1 over models with out = 1 is x1 = 0.
		withGate := append(append([]cnf.XorClause(nil), rows[:k]...), gateRow)
		cube[len(cube)-1].Rhs = false
		c, st, err := countCell(context.Background(), f, cells, cellCfg, withGate)
		if err != nil {
			t.Fatal(err)
		}
		if st.Decisions+st.Propagations == 0 {
			t.Errorf("gate-variable row m %d: no DPLL work booked", k)
		}
		if want := simCount(cube); c.Cmp(want) != 0 {
			t.Errorf("gate-variable row m %d: DPLL %v, sim with cube row %v", k, c, want)
		}
	}
}

// TestApproxCellPathSameEstimates: with the simulator on, ApproxCount
// returns the estimates, probe counts and round counts it returns with
// DPLL alone, while the cells are counted by simulation.
func TestApproxCellPathSameEstimates(t *testing.T) {
	fs := miterFormulas(t, miter.ER, gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 2))
	f := fs[0]
	for seed := int64(1); seed <= 3; seed++ {
		base := ApproxConfig{Epsilon: 0.8, Delta: 0.2, Seed: seed, Sampling: inputVars(f)}
		dpll, err := ApproxCount(context.Background(), f, base)
		if err != nil {
			t.Fatal(err)
		}
		withSim := base
		withSim.Solver = Config{EnableSim: true}
		got, err := ApproxCount(context.Background(), f, withSim)
		if err != nil {
			t.Fatal(err)
		}
		if got.Count.Cmp(dpll.Count) != 0 || got.Rounds != dpll.Rounds ||
			got.Stats.ApproxProbes != dpll.Stats.ApproxProbes || got.Exact != dpll.Exact {
			t.Errorf("seed %d: sim %v (%d rounds, %d probes), DPLL %v (%d rounds, %d probes)", seed,
				got.Count, got.Rounds, got.Stats.ApproxProbes, dpll.Count, dpll.Rounds, dpll.Stats.ApproxProbes)
		}
		if counted := got.Stats.ApproxProbes - got.Stats.ApproxProbesReused; got.Stats.SimCalls != counted || got.Stats.Decisions != 0 {
			t.Errorf("seed %d: %d sim calls, %d decisions over %d counted probes; want every cell simulated",
				seed, got.Stats.SimCalls, got.Stats.Decisions, counted)
		}
	}
}
