package counter

import (
	"context"
	"math/big"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/obs"
	"vacsem/internal/sim"
)

// cellSim counts the approx backend's hash cells, f ∧ Hx = b, by
// simulation: when every hash row ranges over the cone's primary inputs,
// the cell's models are the patterns of the affine input subspace
// {x : Hx = b} that set the output to 1, and sim.CountOnesAffine
// enumerates exactly those 2^(k−rank H) patterns. The controller rule is
// the one the counter applies to residual components, SimVerdict over
// the cone's gates and the subspace's free inputs; a cell it declines is
// counted by DPLL.
type cellSim struct {
	circ   *circuit.Circuit
	out    int32   // the output node, asserted 1
	gates  []int32 // the cone's gates, ascending (topological) ids
	inputs []int32 // the cone's primary inputs, in circuit order
	pos    []int   // CNF variable -> position in inputs, -1 for a gate variable
	prog   *sim.Program
}

// newCellSim returns the cell simulator of f, or nil when simulation is
// off or f is not exactly the output-asserted encoding of its circuit.
// The soundness guard is a re-encoding: f's clauses and rows must have
// cnf.Encode(f.Circ)'s content, so its models are the cone's input
// patterns that set the output to 1, each extended by its gate values.
// Any added, dropped or changed clause or row — an assumption, a DIMACS
// formula, a blasted or open encoding — sends every cell to DPLL.
func newCellSim(f *cnf.Formula, cfg Config) *cellSim {
	if !cfg.EnableSim || f.Circ == nil || len(f.Circ.Outputs) != 1 {
		return nil
	}
	g, err := cnf.Encode(f.Circ)
	if err != nil || g.ContentKey() != f.ContentKey() {
		return nil
	}
	circ := f.Circ
	out := int32(circ.Outputs[0])
	if !circ.Nodes[out].Kind.IsGate() {
		return nil
	}
	c := &cellSim{circ: circ, out: out, pos: make([]int, g.NumVars+1)}
	for v := range c.pos {
		c.pos[v] = -1
	}
	for _, id := range circ.Inputs {
		if v := g.VarOfNode[id]; v != 0 {
			c.pos[v] = len(c.inputs)
			c.inputs = append(c.inputs, int32(id))
		}
	}
	for id, v := range g.VarOfNode {
		if v != 0 && circ.Nodes[id].Kind.IsGate() {
			c.gates = append(c.gates, int32(id))
		}
	}
	return c
}

// count returns the model count of f ∧ rows and the Stats of the
// simulation behind it, with ok set, when the controller accepts the
// cell. ok is false when a row leaves the cone inputs or SimVerdict
// declines; the caller then counts the cell by DPLL. A cancelled ctx
// returns its error with ok set.
func (c *cellSim) count(ctx context.Context, cfg Config, rows []cnf.XorClause) (n *big.Int, st Stats, ok bool, err error) {
	parities := make([]sim.Parity, len(rows))
	for i, row := range rows {
		xs := make([]int, len(row.Vars))
		for j, v := range row.Vars {
			if xs[j] = c.pos[v]; xs[j] < 0 {
				return nil, Stats{}, false, nil
			}
		}
		parities[i] = sim.Parity{Inputs: xs, Rhs: row.Rhs}
	}
	sub := sim.NewSubspace(len(c.inputs), parities)
	k := sub.Dim()
	reject, density := cfg.SimVerdict(len(c.gates), k)
	if reject != "" {
		return nil, Stats{}, false, nil
	}
	start := time.Now()
	if c.prog == nil {
		check := func(g int32) int8 {
			if g == c.out {
				return 1
			}
			return 0
		}
		if c.prog, err = sim.CompileComponent(c.circ, c.gates, c.inputs, nil, check); err != nil {
			return nil, Stats{}, false, nil // unreachable for an encoded cone; DPLL decides
		}
	}
	counts, err := c.prog.CountOnesAffine(ctx, 1, sub)
	if err != nil {
		return nil, Stats{}, true, err
	}
	patterns := uint64(1) << uint(k)
	if sub.Empty() {
		patterns = 0
	}
	dur := time.Since(start)
	st = bookSim(patterns, dur)
	if obs.Active() != nil {
		obs.Event(ctx, "sim_decision", obs.Fields{
			"accepted": true, "cell": true, "gates": len(c.gates), "k": k, "density": density,
			"count": counts[0], "sim_us": dur.Microseconds(),
		})
	}
	return new(big.Int).SetUint64(counts[0]), st, true, nil
}
