// Dynamic variable reordering (Rudell-style window sifting) and the
// metric-specific pair traversal the BDD backend uses for error-rate
// counting. Both follow "Optimization of BDD-based Approximation Error
// Metrics Calculations" (PAPERS.md): reordering attacks the node
// explosion that kills fixed-order diagrams, and the pair traversal
// counts disagreeing assignments of two diagrams without materializing
// their XOR.
package bdd

import (
	"math/big"
	"sort"

	"vacsem/internal/obs"
)

var (
	mReorders     = obs.Default.Counter("bdd.reorders")
	mReorderSwaps = obs.Default.Counter("bdd.reorder_swaps")
)

// Sifting bounds: sift at most maxSiftVars variables (the most
// populated levels), each within +-siftWindow positions of its current
// level, and abandon a direction once the live size exceeds
// siftGrowthCap times the starting size. Small by design — the sifter
// runs mid-build, so each pass must stay a fraction of the build cost.
const (
	maxSiftVars   = 6
	siftWindow    = 12
	siftGrowthCap = 2
)

// EnableAutoReorder arms dynamic variable reordering: Build then runs
// a sifting pass whenever the node table
// doubles past the trigger threshold. Off by default — reordering
// trades build time for node count and changes no results.
func (m *Manager) EnableAutoReorder() {
	m.autoReorder = true
	if m.reorderNext == 0 {
		m.reorderNext = 4096
	}
}

// VarOrder returns the current level->variable permutation (a copy).
func (m *Manager) VarOrder() []int32 {
	out := make([]int32, len(m.varAt))
	copy(out, m.varAt)
	return out
}

// reinsert puts a rewritten node's key back into the unique table.
// Redundant nodes (low == high, tolerated forwarding leftovers of a
// swap) and keys already claimed by another node (duplicates degrade
// canonicity but never correctness: swaps rewrite nodes in place, so
// every outstanding Ref keeps its function) are skipped.
func (m *Manager) reinsert(r Ref) {
	n := m.nodes[r]
	if n.low == n.high {
		return
	}
	if _, ok := m.unique[n]; !ok {
		m.unique[n] = r
	}
}

// mkSwap is mk for the sifter: same hash-consing and node budget, but
// no growth events (swaps churn nodes without representing progress).
func (m *Manager) mkSwap(level int32, low, high Ref) (Ref, error) {
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
	return r, nil
}

// swapLevels exchanges the variables at levels l and l+1 by rewriting
// every level-l node in place (the textbook adjacent-swap: a node
// testing x over y-children becomes a node testing y over fresh
// x-children with the cofactors re-paired), so every outstanding Ref
// keeps its function and the iteMemo stays semantically valid. Old
// level-(l+1) nodes are relabelled to level l. On ErrNodeLimit the
// table is mid-swap and only fit for error propagation — callers must
// abort the build, which hitting the node budget forces anyway.
func (m *Manager) swapLevels(l int32) error {
	var xs, ys []Ref
	for r := Ref(2); int(r) < len(m.nodes); r++ {
		switch m.nodes[r].level {
		case l:
			xs = append(xs, r)
		case l + 1:
			ys = append(ys, r)
		}
	}
	wasY := make(map[Ref]bool, len(ys))
	for _, r := range ys {
		wasY[r] = true
	}
	// Both sets leave the unique table before any rewrite: a rewritten
	// x-node's key would otherwise collide with a live y-key.
	for _, r := range xs {
		delete(m.unique, m.nodes[r])
	}
	for _, r := range ys {
		delete(m.unique, m.nodes[r])
	}
	for _, r := range xs {
		n := m.nodes[r]
		if !wasY[n.low] && !wasY[n.high] {
			// Independent of y: the node keeps testing x, which now lives
			// one level down.
			m.nodes[r].level = l + 1
			continue
		}
		f00, f01 := n.low, n.low
		if wasY[n.low] {
			f00, f01 = m.nodes[n.low].low, m.nodes[n.low].high
		}
		f10, f11 := n.high, n.high
		if wasY[n.high] {
			f10, f11 = m.nodes[n.high].low, m.nodes[n.high].high
		}
		newLow, err := m.mkSwap(l+1, f00, f10)
		if err != nil {
			return err
		}
		newHigh, err := m.mkSwap(l+1, f01, f11)
		if err != nil {
			return err
		}
		m.nodes[r] = node{level: l, low: newLow, high: newHigh}
	}
	for _, r := range ys {
		m.nodes[r].level = l
	}
	for _, r := range xs {
		m.reinsert(r)
	}
	for _, r := range ys {
		m.reinsert(r)
	}
	vx, vy := m.varAt[l], m.varAt[l+1]
	m.varAt[l], m.varAt[l+1] = vy, vx
	m.levelOf[vx], m.levelOf[vy] = int32(l+1), int32(l)
	mReorderSwaps.Inc()
	return nil
}

// liveStats sweeps the nodes reachable from roots, returning the
// canonical live count and the per-level population. Canonical means
// structural: forwarding leftovers (low == high) and key-duplicates —
// both churn artifacts of in-place swaps — are not counted, so the
// metric measures the represented functions' true ROBDD size and stays
// stable under swap churn (a raw reachable-ref count would grow with
// every swap and mislead the sifter's best-position tracking). Dead
// nodes are excluded too, which is why len(m.nodes) cannot serve as
// the cost metric either.
func (m *Manager) liveStats(roots []Ref) (int, []int) {
	seen := make([]bool, len(m.nodes))
	keys := make(map[node]bool)
	perLevel := make([]int, m.numVars)
	count := 0
	stack := append(make([]Ref, 0, len(roots)+64), roots...)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r <= True || seen[r] {
			continue
		}
		seen[r] = true
		n := m.nodes[r]
		stack = append(stack, n.low, n.high)
		if n.low == n.high || keys[n] {
			continue
		}
		keys[n] = true
		count++
		if int(n.level) < m.numVars {
			perLevel[n.level]++
		}
	}
	return count, perLevel
}

// Reorder runs one windowed sifting pass over the diagrams rooted at
// roots: the variables of the most populated levels are each moved
// through a window of adjacent positions and parked where the live
// node count is smallest. Functions of outstanding Refs are preserved
// exactly (swaps rewrite nodes in place); only the variable order, and
// with it the node count, changes. Sifting needs table headroom to
// churn nodes — with less than a third of the node budget free the
// pass is skipped rather than risk tripping ErrNodeLimit inside an
// optimization.
func (m *Manager) Reorder(roots []Ref) error {
	if m.numVars < 2 || len(roots) == 0 {
		return nil
	}
	if len(m.nodes)+len(m.nodes)/2 >= m.limit {
		return nil
	}
	mReorders.Inc()
	startSize, perLevel := m.liveStats(roots)
	// Sift the variables currently sitting at the heaviest levels.
	levels := make([]int32, m.numVars)
	for i := range levels {
		levels[i] = int32(i)
	}
	sort.Slice(levels, func(a, b int) bool { return perLevel[levels[a]] > perLevel[levels[b]] })
	vars := make([]int32, 0, maxSiftVars)
	for _, l := range levels {
		if len(vars) == maxSiftVars || perLevel[l] == 0 {
			break
		}
		vars = append(vars, m.varAt[l])
	}
	for _, v := range vars {
		if err := m.siftVar(v, roots, startSize); err != nil {
			return err
		}
	}
	return nil
}

// siftVar moves variable v through its sifting window and parks it at
// the position with the smallest live size seen.
func (m *Manager) siftVar(v int32, roots []Ref, startSize int) error {
	cur := m.levelOf[v]
	lo := cur - siftWindow
	if lo < 0 {
		lo = 0
	}
	hi := cur + siftWindow
	if hi > int32(m.numVars-1) {
		hi = int32(m.numVars - 1)
	}
	bestPos := cur
	bestSize, _ := m.liveStats(roots)
	// Down first, then back up through the whole window, tracking the
	// best position seen; each direction aborts once growth exceeds cap.
	for m.levelOf[v] < hi {
		if err := m.swapLevels(m.levelOf[v]); err != nil {
			return err
		}
		size, _ := m.liveStats(roots)
		if size < bestSize {
			bestSize, bestPos = size, m.levelOf[v]
		}
		if size > siftGrowthCap*startSize {
			break
		}
	}
	for m.levelOf[v] > lo {
		if err := m.swapLevels(m.levelOf[v] - 1); err != nil {
			return err
		}
		size, _ := m.liveStats(roots)
		if size < bestSize {
			bestSize, bestPos = size, m.levelOf[v]
		}
		if size > siftGrowthCap*startSize {
			break
		}
	}
	// Return to the best position.
	for m.levelOf[v] < bestPos {
		if err := m.swapLevels(m.levelOf[v]); err != nil {
			return err
		}
	}
	for m.levelOf[v] > bestPos {
		if err := m.swapLevels(m.levelOf[v] - 1); err != nil {
			return err
		}
	}
	return nil
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
