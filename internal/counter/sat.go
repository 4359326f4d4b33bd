package counter

import (
	"context"
	"math/big"
)

// Satisfiability mode: the same DPLL engine with early termination,
// used for worst-case-error queries (binary search over threshold
// miters needs SAT, not counting). The simulation hook doubles as a SAT
// oracle: a dense component is satisfiable iff its consistent-pattern
// count is positive.

var bigZero = big.NewInt(0)

// Satisfiable reports whether the formula has any satisfying
// assignment. It resets solver state, so it can be interleaved with
// Count calls on the same solver, and honours ctx as Count does.
func (s *Solver) Satisfiable(ctx context.Context) (bool, error) {
	s.reset()
	if ctx.Done() != nil {
		s.ctx = ctx
	}
	if !s.level0() {
		return false, nil
	}
	allVars := make([]int32, 0, s.nVars)
	for v := int32(1); v <= int32(s.nVars); v++ {
		if s.assign[v] == unassigned {
			allVars = append(allVars, v)
		}
	}
	comps, _ := s.findComponents(allVars)
	for _, comp := range comps {
		sat, ok := s.satComponent(comp)
		if !ok {
			return false, s.abortErr
		}
		if !sat {
			return false, nil
		}
	}
	return true, nil
}

// satComponent reports (satisfiable, completed). Every component must be
// satisfiable for the formula to be.
func (s *Solver) satComponent(comp *component) (bool, bool) {
	if s.checkAbort() {
		return false, false
	}
	var key string
	if s.cache != nil {
		key = s.cacheKey(comp)
		if v, cross, ok := s.cache.Lookup(key, s.cfg.CacheOwner); ok {
			s.stats.CacheHits++
			if cross {
				s.stats.CacheCrossHits++
			}
			return v.Sign() != 0, true
		}
	}
	if cnt, ok := s.tryGauss(comp); ok {
		if cnt == nil { // cancelled during the recursive solve
			return false, false
		}
		s.cacheStore(key, cnt)
		return cnt.Sign() != 0, true
	}
	if cnt, ok := s.trySimulate(comp); ok {
		if cnt == nil { // cancelled mid-simulation
			return false, false
		}
		s.cacheStore(key, cnt)
		return cnt.Sign() != 0, true
	}
	v := s.pickVar(comp)
	s.stats.Decisions++
	for _, lit := range [2]int32{v, -v} {
		mark := len(s.trail)
		s.curLevel++
		s.propQ = append(s.propQ, propItem{lit, reasonDecision})
		if s.propagate() && (s.cfg.DisableIBCP || s.failedLiteralFixpoint(comp.vars)) {
			comps, _ := s.findComponents(comp.vars)
			all := true
			for _, sc := range comps {
				sat, ok := s.satComponent(sc)
				if !ok {
					s.undoTo(mark)
					s.curLevel--
					return false, false
				}
				if !sat {
					all = false
					break
				}
			}
			if all {
				s.undoTo(mark)
				s.curLevel--
				return true, true
			}
		}
		s.undoTo(mark)
		s.curLevel--
	}
	// Unsatisfiable components are safe to cache as count 0.
	s.cacheStore(key, bigZero)
	return false, true
}
