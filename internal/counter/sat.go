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
	s.begin(ctx)
	defer s.finishObs()
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
// satisfiable for the formula to be, so the branch loop stops at the
// first phase whose components all are.
func (s *Solver) satComponent(comp *component) (sat, ok bool) {
	if s.checkAbort() {
		return false, false
	}
	cnt, key, done := s.settle(comp)
	if done {
		return cnt != nil && cnt.Sign() != 0, cnt != nil
	}
	v := s.pickVar(comp)
	s.stats.Decisions++
	for _, lit := range [2]int32{v, -v} {
		a, consistent := s.assume(comp.vars, reasonDecision, lit)
		sat, ok = consistent, true
		if consistent {
			comps, _ := s.findComponents(comp.vars)
			for _, sc := range comps {
				if sat, ok = s.satComponent(sc); !sat {
					break
				}
			}
		}
		s.retract(a)
		if sat || !ok {
			return sat, ok
		}
	}
	// Unsatisfiable components are safe to cache as count 0.
	s.cacheStore(key, bigZero)
	return false, true
}
