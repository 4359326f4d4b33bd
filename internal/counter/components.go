package counter

import (
	"encoding/binary"
	"math/big"
	"slices"
)

// component is a maximal set of free variables connected through active
// (not-yet-satisfied) clauses and active parity rows, together with
// those constraints. Components share no variables, so their counts
// multiply (Algorithm 1, line 11).
type component struct {
	vars    []int32 // free variables, sorted
	clauses []int32 // active clause indices, sorted
	xors    []int32 // active xor row indices, sorted
}

// findComponents partitions the given candidate variables into connected
// components of the residual formula. Variables that are unassigned but
// appear in no active clause are unconstrained; their number is returned
// as freeCount (each contributes a factor of 2).
func (s *Solver) findComponents(vars []int32) (comps []*component, freeCount int) {
	s.stamp++
	stamp := s.stamp
	var queue []int32
	for _, v0 := range vars {
		if s.assign[v0] != unassigned || s.varSeen[v0] == stamp {
			continue
		}
		// Does v0 touch any active clause?
		if !s.hasActiveClause(v0) {
			s.varSeen[v0] = stamp
			freeCount++
			continue
		}
		comp := &component{}
		s.varSeen[v0] = stamp
		queue = append(queue[:0], v0)
		comp.vars = append(comp.vars, v0)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for pass := 0; pass < 2; pass++ {
				var li int32
				if pass == 0 {
					li = 2 * v
				} else {
					li = 2*v + 1
				}
				for _, ci := range s.occ[li] {
					// Learned clauses are implied by the original formula:
					// they never constrain counts, so they stay invisible
					// to component analysis.
					if ci >= s.nOrig || s.nTrue[ci] != 0 || s.clSeen[ci] == stamp {
						continue
					}
					s.clSeen[ci] = stamp
					comp.clauses = append(comp.clauses, ci)
					for _, l := range s.clauses[ci] {
						w := litVar(l)
						if s.assign[w] != unassigned || s.varSeen[w] == stamp {
							continue
						}
						s.varSeen[w] = stamp
						comp.vars = append(comp.vars, w)
						queue = append(queue, w)
					}
				}
			}
			for _, xi := range s.xorOcc[v] {
				// A fully assigned row constrains nothing further; rows
				// with free variables connect them like clauses do.
				if s.xorFree[xi] == 0 || s.xorSeen[xi] == stamp {
					continue
				}
				s.xorSeen[xi] = stamp
				comp.xors = append(comp.xors, xi)
				for _, w := range s.xors[xi].Vars {
					if s.assign[w] != unassigned || s.varSeen[w] == stamp {
						continue
					}
					s.varSeen[w] = stamp
					comp.vars = append(comp.vars, w)
					queue = append(queue, w)
				}
			}
		}
		slices.Sort(comp.vars)
		slices.Sort(comp.clauses)
		slices.Sort(comp.xors)
		comps = append(comps, comp)
	}
	return comps, freeCount
}

func (s *Solver) hasActiveClause(v int32) bool {
	for _, ci := range s.occ[2*v] {
		if ci < s.nOrig && s.nTrue[ci] == 0 {
			return true
		}
	}
	for _, ci := range s.occ[2*v+1] {
		if ci < s.nOrig && s.nTrue[ci] == 0 {
			return true
		}
	}
	return s.hasActiveXor(v)
}

// Packed clause tuples (see cacheKey): a residual clause of at most 3
// free-literal codes packs into one uint64 as
// (c0+1)<<42 | (c1+1)<<21 | (c2+1), with 0 for a missing position. A
// component of fewer than packMaxVars variables keeps every code below
// packMask, so the fields never overlap.
const (
	packBits    = 21
	packMask    = 1<<packBits - 1
	packMaxVars = 1 << (packBits - 1)
)

// cacheKey canonicalizes the residual component into a solver-independent
// content key: the component's variables are remapped to dense local
// indices in their sorted order, every active clause is reduced to its
// free literals (falsified literals drop; a satisfied clause is not
// active) encoded over the local indices and sorted, and the clause
// tuples are sorted lexicographically before being serialized as uvarint
// streams. Two equal keys denote residual subformulas identical up to
// variable renaming, and model counts are invariant under renaming — so
// caching on this key is sound, including across different solvers'
// formulas (the shared cross-sub-miter cache). Clause ids never enter
// the key, so the historic wide-clause position-mask aliasing cannot
// recur by construction.
//
// Tseitin residuals are almost all clauses of at most 3 literals, so the
// tuples are sorted as packed integers: unsigned order on the packed
// form is lexicographic order on the tuples, with a shorter prefix first
// (a missing position packs as 0). A component with a longer clause, or
// with packMaxVars or more variables, sorts the tuples themselves
// instead. Both orders are the same, so the key bytes do not depend on
// which one ran.
//
// Active parity rows are serialized into a second section after the
// clause tuples: per row a header uvarint(len<<1 | rhs) — rhs being the
// row's *effective* right-hand side under the current assignment — then
// the sorted local ranks of its free variables, rows sorted
// lexicographically. The xor section is always appended, prefixed with
// the row count, so a CNF-only residual and a CNF+XOR residual over the
// same clause tuples can never alias.
func (s *Solver) cacheKey(comp *component) string {
	for i, v := range comp.vars {
		s.varRank[v] = int32(i)
	}
	lits := s.keyLits[:0]
	cls := s.keyCls[:0]
	packed := s.keyPacked[:0]
	pack := len(comp.vars) < packMaxVars
	for _, ci := range comp.clauses {
		start := len(lits)
		for _, l := range s.clauses[ci] {
			v := litVar(l)
			if s.assign[v] != unassigned {
				continue
			}
			code := s.varRank[v] << 1
			if l < 0 {
				code |= 1
			}
			lits = append(lits, code)
		}
		seg := lits[start:len(lits):len(lits)]
		slices.Sort(seg)
		cls = append(cls, seg)
		if pack && len(seg) > 3 {
			pack = false
		}
		if pack {
			var p uint64
			for i, code := range seg {
				p |= uint64(code+1) << (packBits * (2 - i))
			}
			packed = append(packed, p)
		}
	}
	buf := s.keyBuf[:0]
	if pack {
		slices.Sort(packed)
		for _, p := range packed {
			f := [3]uint64{p >> (2 * packBits), p >> packBits & packMask, p & packMask}
			n := 0
			for n < 3 && f[n] != 0 {
				n++
			}
			buf = binary.AppendUvarint(buf, uint64(n))
			for _, x := range f[:n] {
				buf = binary.AppendUvarint(buf, x-1)
			}
		}
	} else {
		slices.SortFunc(cls, slices.Compare)
		for _, seg := range cls {
			buf = binary.AppendUvarint(buf, uint64(len(seg)))
			for _, code := range seg {
				buf = binary.AppendUvarint(buf, uint64(code))
			}
		}
	}
	// XOR section: canonical rows (header, then free-variable ranks),
	// sorted, always present so clause-only keys cannot alias mixed ones.
	xrs := s.keyXrs[:0]
	for _, xi := range comp.xors {
		start := len(lits)
		lits = append(lits, 0) // header, set below
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] != unassigned {
				continue
			}
			lits = append(lits, s.varRank[v]) // row Vars sorted => ranks sorted
		}
		seg := lits[start:len(lits):len(lits)]
		seg[0] = int32(len(seg)-1) << 1
		if s.xors[xi].Rhs != (s.xorPar[xi] == 1) {
			seg[0] |= 1
		}
		xrs = append(xrs, seg)
	}
	slices.SortFunc(xrs, slices.Compare)
	buf = binary.AppendUvarint(buf, uint64(len(xrs)))
	for _, seg := range xrs {
		for _, code := range seg {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	s.keyLits, s.keyCls, s.keyPacked, s.keyXrs, s.keyBuf = lits[:0], cls[:0], packed[:0], xrs[:0], buf
	return string(buf)
}

// solveComponent counts the models of one residual component: the
// cache, Gaussian elimination and the simulation controller first
// (Algorithm 1 lines 1-2), then DPLL branching (lines 3-14). It returns
// nil when the search was cancelled.
func (s *Solver) solveComponent(comp *component) *big.Int {
	if s.checkAbort() {
		return nil
	}
	s.stats.Components++
	if s.tr != nil {
		s.traceComponent(comp)
	}
	cnt, key, done := s.settle(comp)
	if done {
		return cnt
	}
	if cnt = s.branchCount(comp); cnt != nil {
		s.cacheStore(key, cnt)
	}
	return cnt
}

// settle is the part of a component's solve that does not branch,
// shared by counting and satisfiability: a cache lookup, then Gaussian
// elimination over its parity rows, then the simulation controller. done
// reports that one of them answered with cnt, stored in the cache unless
// it came from there; cnt is nil when the search was cancelled. key is
// the component's cache key, for the caller to store a branched count.
func (s *Solver) settle(comp *component) (cnt *big.Int, key string, done bool) {
	if s.cache != nil {
		key = s.cacheKey(comp)
		if v, cross, ok := s.cache.Lookup(key, s.cfg.CacheOwner); ok {
			s.stats.CacheHits++
			if cross {
				s.stats.CacheCrossHits++
			}
			if s.tr != nil {
				s.traceCache("hit")
			}
			return v, key, true
		}
	}
	if cnt, done = s.tryGauss(comp); !done {
		cnt, done = s.trySimulate(comp)
	}
	if cnt != nil {
		s.cacheStore(key, cnt)
	}
	return cnt, key, done
}

// cacheStore memoizes a component count. A full cache shard evicts per
// entry (2-random) rather than clearing wholesale; the eviction count is
// tracked separately from stores, so the stats distinguish cache churn
// from growth. cnt must not be mutated after the call.
func (s *Solver) cacheStore(key string, cnt *big.Int) {
	if s.cache == nil {
		return
	}
	evicted := s.cache.Store(key, cnt, s.cfg.CacheOwner)
	s.stats.CacheStores++
	s.stats.CacheEvictions += uint64(evicted)
	if s.tr != nil {
		s.traceCache("store")
	}
}

// branchCount implements the DPLL part: pick a decision variable and sum
// the search steps of its two phases.
func (s *Solver) branchCount(comp *component) *big.Int {
	v := s.pickVar(comp)
	s.stats.Decisions++
	total := s.split(comp.vars, reasonDecision, v)
	if total == nil {
		return nil
	}
	neg := s.split(comp.vars, reasonDecision, -v)
	if neg == nil {
		return nil
	}
	return total.Add(total, neg)
}

// split is one search step (Algorithm 1, lines 5-11): it assumes lits
// (see assume), decomposes the free variables of vars into components
// and multiplies their counts, stopping at the first zero. It retracts
// the assumption before returning a fresh count: 0 when the literals
// conflict, nil when the search was cancelled.
func (s *Solver) split(vars []int32, why int32, lits ...int32) *big.Int {
	a, ok := s.assume(vars, why, lits...)
	defer s.retract(a)
	total := new(big.Int)
	if !ok {
		return total
	}
	if s.aborted {
		return nil
	}
	comps, freeCount := s.findComponents(vars)
	total.Lsh(total.SetInt64(1), uint(freeCount))
	for _, comp := range comps {
		r := s.solveComponent(comp)
		if r == nil {
			return nil
		}
		if total.Mul(total, r).Sign() == 0 {
			break
		}
	}
	return total
}

// assumption is what retract restores: the trail length and decision
// level before an assume.
type assumption struct {
	trail int
	level int32
}

// assume opens a decision level, asserts lits with antecedent why and
// runs BCP and implicit BCP over vars, reporting false when the
// assignment conflicts. With no literals it opens no level: the root
// step's implied literals are level-0 facts. On cancellation implicit
// BCP stops early, with a consistent assignment.
func (s *Solver) assume(vars []int32, why int32, lits ...int32) (assumption, bool) {
	a := assumption{len(s.trail), s.curLevel}
	if len(lits) > 0 {
		s.curLevel++
	}
	for _, lit := range lits {
		s.propQ = append(s.propQ, propItem{lit, why})
	}
	return a, s.propagate() && (s.cfg.DisableIBCP || s.failedLiteralFixpoint(vars))
}

// retract undoes an assume.
func (s *Solver) retract(a assumption) {
	s.undoTo(a.trail)
	s.curLevel = a.level
}

// pickVar returns the component variable appearing in the most active
// clauses, weighting short clauses higher (a VSADS-flavoured static score
// recomputed per component, which adapts dynamically as the residual
// formula shrinks).
//
// Scores accumulate in the solver's dense varScore array. Every free
// variable of the component's clauses and rows is in comp.vars, so
// zeroing those entries during the final scan leaves the array all zero
// for the next call.
func (s *Solver) pickVar(comp *component) int32 {
	score := s.varScore
	// Score per variable: sum over active clauses of 1, weighted 4 for
	// binary residual clauses (they propagate immediately when decided).
	for _, ci := range comp.clauses {
		w := 1
		if int32(len(s.clauses[ci]))-s.nFalse[ci] == 2 {
			w = 4
		}
		for _, l := range s.clauses[ci] {
			x := litVar(l)
			if s.assign[x] == unassigned {
				score[x] += w
			}
		}
	}
	// Parity rows score like clauses: a row down to two free variables
	// propagates immediately when one of them is decided.
	for _, xi := range comp.xors {
		w := 2
		if s.xorFree[xi] == 2 {
			w = 4
		}
		for _, l := range s.xors[xi].Vars {
			if s.assign[l] == unassigned {
				score[l] += w
			}
		}
	}
	best := comp.vars[0]
	bestScore := -1
	for _, v := range comp.vars {
		if sc := score[v]; sc > bestScore {
			bestScore = sc
			best = v
		}
		score[v] = 0
	}
	return best
}
