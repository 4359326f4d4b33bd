package counter

// Implicit BCP (failed-literal probing), the sharpSAT/GANAK technique:
// before branching on a component, tentatively assign candidate literals
// and propagate; a literal whose propagation conflicts is forced to its
// complement. This prunes the unsatisfiable cores that arise in
// high-order deviation bits of MED miters (where |y - y'| provably never
// reaches bit j) without full clause learning.

// probeCandidates collects the free variables of the component that
// occur in an active binary-residual clause — the classic candidate set:
// probing them is what makes chains of short clauses collapse.
func (s *Solver) probeCandidates(vars []int32, out []int32) []int32 {
	out = out[:0]
	for _, v := range vars {
		if s.assign[v] != unassigned {
			continue
		}
		if s.inActiveBinary(v) {
			out = append(out, v)
		}
	}
	return out
}

func (s *Solver) inActiveBinary(v int32) bool {
	for _, li := range [2]int32{2 * v, 2*v + 1} {
		for _, ci := range s.occ[li] {
			if s.nTrue[ci] == 0 && int32(len(s.clauses[ci]))-s.nFalse[ci] == 2 {
				return true
			}
		}
	}
	// An xor row down to two free variables propagates on either probe
	// phase, exactly like a binary clause.
	for _, xi := range s.xorOcc[v] {
		if s.xorFree[xi] == 2 {
			return true
		}
	}
	return false
}

// failedLiteralFixpoint probes candidate variables of the component to a
// fixpoint. Literals whose propagation conflicts are asserted negated
// (they are logical consequences, so the model count is unchanged).
// It reports false when the current assignment itself is contradictory
// (both phases of some variable fail), meaning the component has zero
// models.
//
// A probe that succeeds marks every literal it assigned with the current
// probe epoch, and a marked literal is not probed again: if x is implied
// by u, then UP(A ∪ {x}) ⊆ UP(A ∪ {u}), which has no conflict, so probing
// x would succeed, learn nothing and assert nothing. The epoch moves on
// at every pass and after every failed literal, the only points where
// the assignment or the learned-clause database changes inside a pass.
func (s *Solver) failedLiteralFixpoint(vars []int32) bool {
	var cands []int32
	for {
		cands = s.probeCandidates(vars, cands)
		s.nextProbeEpoch()
		changed := false
		for _, v := range cands {
			if s.assign[v] != unassigned {
				continue
			}
			if s.checkAbort() {
				return true // let the caller notice the abort flag
			}
			var forced int32
			switch {
			case !s.probe(v):
				forced = -v
			case !s.probe(-v):
				forced = v
			default:
				continue
			}
			if !s.assertFailed(forced) {
				return false
			}
			changed = true
		}
		if !changed {
			return true
		}
	}
}

// probe tentatively assigns lit one level up and propagates, then undoes
// it. It reports whether the propagation ended without a conflict. A
// literal marked by a successful probe of the current epoch is known to
// succeed and is not propagated again.
func (s *Solver) probe(lit int32) bool {
	if s.probed[litIndex(lit)] == s.probeEpoch {
		return true
	}
	mark := len(s.trail)
	s.curLevel++
	s.propQ = append(s.propQ, propItem{lit, reasonDecision})
	ok := s.propagate()
	if ok {
		for _, l := range s.trail[mark:] {
			s.probed[litIndex(l)] = s.probeEpoch
		}
	}
	s.undoTo(mark)
	s.curLevel--
	return ok
}

// assertFailed asserts lit, the complement of a failed probe, and
// propagates it. The assignment (and, through the failed probe's
// conflict analysis, the learned clauses) changed, so the probe marks
// are stale and the epoch moves on.
func (s *Solver) assertFailed(lit int32) bool {
	s.stats.FailedLiterals++
	s.propQ = append(s.propQ, propItem{lit, reasonAsserted})
	ok := s.propagate()
	s.nextProbeEpoch()
	return ok
}

// nextProbeEpoch invalidates every probe mark. Epoch 0 is never current,
// so on wraparound the marks are cleared and counting restarts at 1.
func (s *Solver) nextProbeEpoch() {
	s.probeEpoch++
	if s.probeEpoch == 0 {
		clear(s.probed)
		s.probeEpoch = 1
	}
}
