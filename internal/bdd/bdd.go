// Package bdd implements reduced ordered binary decision diagrams — the
// data structure behind the prior-art average-error verifiers the paper
// compares against ([3] MACACO, [4] ALFANS, [5] Mrazek, [6] ADD-based).
// It exists so the repository can reproduce the paper's footnote-2
// claim: DD-based verification collapses (node-count explosion) far
// below the circuit sizes VACSEM handles.
//
// The implementation is a classic hash-consed ROBDD with an ITE-based
// apply, a computed-table cache, model counting over the diagram, a
// pair traversal that counts where two diagrams disagree, and a hard
// node budget that turns explosion into a clean ErrNodeLimit. The
// variable order is static: callers pick it once (DFSOrder) and
// variable i always sits at level i.
package bdd

import (
	"context"
	"errors"
	"fmt"
	"math/big"

	"vacsem/internal/circuit"
	"vacsem/internal/obs"
)

// Metrics of the decision-diagram flow, flushed once per Build
// call (the hot ITE loop itself only bumps plain struct fields).
var (
	mITECalls  = obs.Default.Counter("bdd.ite_calls")
	gNodesPeak = obs.Default.Gauge("bdd.nodes_peak")
)

// ErrNodeLimit is returned when a manager exceeds its node budget — the
// signature failure mode of DD-based verification on large circuits.
var ErrNodeLimit = errors.New("bdd: node limit exceeded")

// Ref is a node reference. 0 is the FALSE terminal, 1 the TRUE terminal.
type Ref = int32

// Terminal references.
const (
	False Ref = 0
	True  Ref = 1
)

type node struct {
	level     int32 // variable index (numVars for the terminals)
	low, high Ref
}

// Manager owns the node table of one BDD universe. Variable i is
// tested at level i; level 0 is at the top.
type Manager struct {
	numVars int
	nodes   []node
	unique  map[node]Ref
	iteMemo map[[3]Ref]Ref
	limit   int

	ctx   context.Context // cancellation source (nil = none)
	ticks uint32

	// observability state: plain fields (the manager is single-goroutine)
	// flushed to the registry per build. growthNext is the node count at
	// which the next bdd_growth trace event fires (doubling thresholds,
	// so even an exploding build emits only ~log2(limit) events).
	iteCalls    uint64
	iteReported uint64
	evCtx       context.Context // Build's context, for bdd_growth events
	growthNext  int
}

// New creates a manager for numVars variables with the given node
// budget (0 means the default of 1<<22 nodes).
func New(numVars, limit int) *Manager {
	if limit <= 0 {
		limit = 1 << 22
	}
	m := &Manager{
		numVars:    numVars,
		nodes:      make([]node, 2, 1024),
		unique:     make(map[node]Ref),
		iteMemo:    make(map[[3]Ref]Ref),
		limit:      limit,
		growthNext: 1024,
	}
	// Terminals: level = numVars (below all variables).
	m.nodes[False] = node{level: int32(numVars)}
	m.nodes[True] = node{level: int32(numVars)}
	return m
}

// NumNodes returns the live node count (including the two terminals).
func (m *Manager) NumNodes() int { return len(m.nodes) }

// poll checks the installed context once every 4096 calls. It sits at
// the top of the ITE recursion — the apply hot loop — so cancelling the
// context stops even an exploding diagram build within one interval.
func (m *Manager) poll() error {
	if m.ctx == nil {
		return nil
	}
	m.ticks++
	if m.ticks&4095 == 0 {
		if err := m.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Var returns the BDD of variable i.
func (m *Manager) Var(i int) (Ref, error) {
	if i < 0 || i >= m.numVars {
		return 0, fmt.Errorf("bdd: variable %d out of range", i)
	}
	return m.mk(int32(i), False, True)
}

// mk hash-conses a node, applying the reduction rules.
func (m *Manager) mk(level int32, low, high Ref) (Ref, error) {
	if low == high {
		return low, nil
	}
	key := node{level: level, low: low, high: high}
	if r, ok := m.unique[key]; ok {
		return r, nil
	}
	if len(m.nodes) >= m.limit {
		return 0, ErrNodeLimit
	}
	r := Ref(len(m.nodes))
	m.nodes = append(m.nodes, key)
	m.unique[key] = r
	if len(m.nodes) >= m.growthNext {
		m.growthNext *= 2
		if obs.Active() != nil {
			obs.Event(m.evCtx, "bdd_growth", obs.Fields{
				"nodes": len(m.nodes), "ite_calls": m.iteCalls, "limit": m.limit,
			})
		}
	}
	return r, nil
}

// Not returns the complement.
func (m *Manager) Not(f Ref) (Ref, error) { return m.ITE(f, False, True) }

// And returns f AND g.
func (m *Manager) And(f, g Ref) (Ref, error) { return m.ITE(f, g, False) }

// Or returns f OR g.
func (m *Manager) Or(f, g Ref) (Ref, error) { return m.ITE(f, True, g) }

// Xor returns f XOR g.
func (m *Manager) Xor(f, g Ref) (Ref, error) {
	ng, err := m.Not(g)
	if err != nil {
		return 0, err
	}
	return m.ITE(f, ng, g)
}

// ITE computes if-then-else(f, g, h), the universal BDD operation.
func (m *Manager) ITE(f, g, h Ref) (Ref, error) {
	m.iteCalls++
	if err := m.poll(); err != nil {
		return 0, err
	}
	// Terminal cases.
	switch {
	case f == True:
		return g, nil
	case f == False:
		return h, nil
	case g == h:
		return g, nil
	case g == True && h == False:
		return f, nil
	}
	key := [3]Ref{f, g, h}
	if r, ok := m.iteMemo[key]; ok {
		return r, nil
	}
	// Split on the topmost variable.
	top := m.nodes[f].level
	if l := m.nodes[g].level; l < top {
		top = l
	}
	if l := m.nodes[h].level; l < top {
		top = l
	}
	f0, f1 := m.cofactors(f, top)
	g0, g1 := m.cofactors(g, top)
	h0, h1 := m.cofactors(h, top)
	low, err := m.ITE(f0, g0, h0)
	if err != nil {
		return 0, err
	}
	high, err := m.ITE(f1, g1, h1)
	if err != nil {
		return 0, err
	}
	r, err := m.mk(top, low, high)
	if err != nil {
		return 0, err
	}
	m.iteMemo[key] = r
	return r, nil
}

func (m *Manager) cofactors(f Ref, level int32) (Ref, Ref) {
	n := m.nodes[f]
	if n.level != level {
		return f, f
	}
	return n.low, n.high
}

// CountOnes returns the number of variable assignments (over all
// numVars variables) on which f evaluates to 1.
func (m *Manager) CountOnes(f Ref) *big.Int {
	memo := make(map[Ref]*big.Int)
	var rec func(r Ref) *big.Int
	rec = func(r Ref) *big.Int {
		if r == False {
			return big.NewInt(0)
		}
		if r == True {
			return new(big.Int).Lsh(big.NewInt(1), uint(m.numVars))
		}
		if v, ok := memo[r]; ok {
			return v
		}
		n := m.nodes[r]
		lo := rec(n.low)
		hi := rec(n.high)
		// Each child count is over the full space; halve per decision.
		sum := new(big.Int).Add(lo, hi)
		sum.Rsh(sum, 1)
		memo[r] = sum
		return sum
	}
	return rec(f)
}

// CountDifferent returns the number of assignments (over all numVars
// variables) on which f and g evaluate differently — the error-rate
// count #SAT(f XOR g) — by a memoized synchronized descent over the
// node pair instead of materializing the XOR diagram. The pair
// traversal touches O(|f|*|g|) pairs worst case but allocates no new
// nodes, so it cannot trip the node budget the way building the miter
// XOR can.
func (m *Manager) CountDifferent(f, g Ref) *big.Int {
	type pair struct{ a, b Ref }
	memo := make(map[pair]*big.Int)
	full := new(big.Int).Lsh(big.NewInt(1), uint(m.numVars))
	var rec func(a, b Ref) *big.Int
	rec = func(a, b Ref) *big.Int {
		if a == b {
			return big.NewInt(0)
		}
		if a > b {
			a, b = b, a // difference is symmetric: canonicalize the key
		}
		if b <= True {
			return full // a == False, b == True: differ everywhere
		}
		key := pair{a, b}
		if v, ok := memo[key]; ok {
			return v
		}
		top := m.nodes[a].level
		if l := m.nodes[b].level; l < top {
			top = l
		}
		a0, a1 := m.cofactors(a, top)
		b0, b1 := m.cofactors(b, top)
		sum := new(big.Int).Add(rec(a0, b0), rec(a1, b1))
		sum.Rsh(sum, 1)
		memo[key] = sum
		return sum
	}
	return rec(f, g)
}

// Eval evaluates f under the assignment (in[i] = value of variable i).
func (m *Manager) Eval(f Ref, in []bool) bool {
	for f != False && f != True {
		n := m.nodes[f]
		if in[n.level] {
			f = n.high
		} else {
			f = n.low
		}
	}
	return f == True
}

// Size returns the number of nodes reachable from f (excluding
// terminals).
func (m *Manager) Size(f Ref) int {
	seen := map[Ref]bool{}
	var rec func(Ref)
	rec = func(r Ref) {
		if r <= True || seen[r] {
			return
		}
		seen[r] = true
		rec(m.nodes[r].low)
		rec(m.nodes[r].high)
	}
	rec(f)
	return len(seen)
}

// DFSOrder computes the classic static variable order: inputs in
// first-touch order of a depth-first traversal from the outputs. For
// word-parallel structures (adders, comparators) this interleaves the
// operand bits, which keeps the diagrams polynomial where the plain
// declaration order explodes.
func DFSOrder(c *circuit.Circuit) []int {
	pos := make([]int, c.NumInputs())
	for i := range pos {
		pos[i] = -1
	}
	inputIdx := make(map[int]int, c.NumInputs())
	for i, id := range c.Inputs {
		inputIdx[id] = i
	}
	next := 0
	seen := make([]bool, len(c.Nodes))
	var stack []int
	for j := len(c.Outputs) - 1; j >= 0; j-- {
		stack = append(stack, c.Outputs[j])
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[id] {
			continue
		}
		seen[id] = true
		if idx, ok := inputIdx[id]; ok {
			pos[idx] = next
			next++
			continue
		}
		fi := c.Nodes[id].Fanins
		for j := len(fi) - 1; j >= 0; j-- {
			stack = append(stack, fi[j])
		}
	}
	for i := range pos {
		if pos[i] < 0 { // input outside every cone
			pos[i] = next
			next++
		}
	}
	return pos
}

// Build builds the BDDs of the given circuit nodes (any nodes, not just
// primary outputs — pass c.Outputs for those), with circuit input i
// mapped to BDD variable pos[i] (nil means declaration order). Gates
// outside the target cones are skipped. The returned refs parallel ids.
// It returns ErrNodeLimit when the diagram explodes past the manager's
// budget.
//
// For the duration of the call every ITE apply polls ctx (every few
// thousand recursion steps) and aborts with the context's error, and
// bdd_growth trace events parent to ctx's span.
func (m *Manager) Build(ctx context.Context, c *circuit.Circuit, pos []int, ids []int) ([]Ref, error) {
	m.evCtx = ctx
	if ctx.Done() != nil { // an uncancellable context skips the polling cost
		m.ctx = ctx
	}
	defer func() { m.ctx, m.evCtx = nil, nil }()
	defer m.flushObs()
	if c.NumInputs() != m.numVars {
		return nil, fmt.Errorf("bdd: circuit has %d inputs, manager %d vars",
			c.NumInputs(), m.numVars)
	}
	if pos != nil && len(pos) != c.NumInputs() {
		return nil, fmt.Errorf("bdd: order has %d entries for %d inputs", len(pos), c.NumInputs())
	}
	refs := make([]Ref, len(c.Nodes))
	mark := c.ConeMark(ids...)
	for i, id := range c.Inputs {
		v := i
		if pos != nil {
			v = pos[i]
		}
		r, err := m.Var(v)
		if err != nil {
			return nil, err
		}
		refs[id] = r
	}
	refs[0] = False
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		if nd.Kind == circuit.Input || !mark[id] {
			continue
		}
		var r Ref
		var err error
		fi := nd.Fanins
		switch nd.Kind {
		case circuit.Buf:
			r = refs[fi[0]]
		case circuit.Not:
			r, err = m.Not(refs[fi[0]])
		case circuit.And:
			r, err = m.And(refs[fi[0]], refs[fi[1]])
		case circuit.Nand:
			r, err = m.And(refs[fi[0]], refs[fi[1]])
			if err == nil {
				r, err = m.Not(r)
			}
		case circuit.Or:
			r, err = m.Or(refs[fi[0]], refs[fi[1]])
		case circuit.Nor:
			r, err = m.Or(refs[fi[0]], refs[fi[1]])
			if err == nil {
				r, err = m.Not(r)
			}
		case circuit.Xor:
			r, err = m.Xor(refs[fi[0]], refs[fi[1]])
		case circuit.Xnor:
			r, err = m.Xor(refs[fi[0]], refs[fi[1]])
			if err == nil {
				r, err = m.Not(r)
			}
		case circuit.Mux:
			r, err = m.ITE(refs[fi[0]], refs[fi[2]], refs[fi[1]])
		case circuit.Maj:
			ab, e1 := m.And(refs[fi[0]], refs[fi[1]])
			if e1 != nil {
				return nil, e1
			}
			ac, e2 := m.And(refs[fi[0]], refs[fi[2]])
			if e2 != nil {
				return nil, e2
			}
			bc, e3 := m.And(refs[fi[1]], refs[fi[2]])
			if e3 != nil {
				return nil, e3
			}
			r, err = m.Or(ab, ac)
			if err == nil {
				r, err = m.Or(r, bc)
			}
		default:
			return nil, fmt.Errorf("bdd: unsupported kind %v", nd.Kind)
		}
		if err != nil {
			return nil, err
		}
		refs[id] = r
	}
	outs := make([]Ref, len(ids))
	for j, o := range ids {
		outs[j] = refs[o]
	}
	return outs, nil
}

// flushObs pushes the ITE-call delta since the previous flush and the
// node high-water mark into the default metrics registry.
func (m *Manager) flushObs() {
	mITECalls.Add(m.iteCalls - m.iteReported)
	m.iteReported = m.iteCalls
	gNodesPeak.SetMax(int64(len(m.nodes)))
}
