package counter

import (
	"math/big"

	"vacsem/internal/cnf"
)

// Native XOR support: parity rows are propagated alongside clause BCP
// with a free-count/parity watch per row, and residual components carry
// their active rows into a Gaussian-elimination pass over GF(2) that
// detects parity contradictions, counts pure parity subsystems in closed
// form (2^(n-rank)), and asserts derived unit rows before branching.
//
// XOR conflicts and propagations feed clause learning: they carry a
// row-encoded pseudo-reason (xorReason), and learnFromConflict
// materializes the row's CNF implicate under the current assignment
// (xorImplicate) to resolve through it, so CDCL prunes XOR-chain cones
// exactly as it would their Tseitin-blasted equivalents. Only derived
// units from Gaussian elimination stay opaque (reasonAsserted): they
// come from row combinations, not a single row.

// updateXorsOnAssign maintains the xor watches after variable v was
// assigned value val. Rows reduced to one free variable queue the forced
// literal; rows reduced to zero free variables with the wrong parity are
// conflicts. Reports false on conflict.
func (s *Solver) updateXorsOnAssign(v int32, val bool) bool {
	ok := true
	for _, xi := range s.xorOcc[v] {
		s.xorFree[xi]--
		if val {
			s.xorPar[xi] ^= 1
		}
		switch s.xorFree[xi] {
		case 0:
			if (s.xorPar[xi] == 1) != s.xors[xi].Rhs {
				if ok {
					s.conflictCl = xorReason(int(xi))
				}
				ok = false
			}
		case 1:
			// The single free variable is determined: its value must make
			// the row's parity equal Rhs.
			for _, w := range s.xors[xi].Vars {
				if s.assign[w] != unassigned {
					continue
				}
				lit := w
				if (s.xorPar[xi] == 1) == s.xors[xi].Rhs {
					lit = -w // parity already right: free var must be 0
				}
				s.propQ = append(s.propQ, propItem{lit, xorReason(int(xi))})
				s.stats.XorPropagations++
				break
			}
		}
	}
	return ok
}

// queueXorUnits performs the level-0 xor pass of Count/Satisfiable:
// empty rows (the canonical 0 = 1 contradiction) make the formula
// unsatisfiable, and single-variable rows queue their forced literal.
func (s *Solver) queueXorUnits() bool {
	for xi, x := range s.xors {
		switch len(x.Vars) {
		case 0:
			if x.Rhs {
				return false // 0 = 1
			}
			// 0 = 0: tautology (canonical formulas never store it, but
			// directly constructed hash rows may).
		case 1:
			if s.xorFree[xi] != 1 {
				continue // already assigned by an earlier unit
			}
			lit := x.Vars[0]
			if !x.Rhs {
				lit = -lit
			}
			s.propQ = append(s.propQ, propItem{lit, xorReason(xi)})
			s.stats.XorPropagations++
		}
	}
	return true
}

// xorImplicate materializes the CNF implicate of row xi under the
// current assignment: every row variable's current value, negated. At a
// conflict the row is fully assigned with the wrong parity, so the
// clause is fully falsified — a genuine implicate of the parity
// constraint. As the reason of a propagated variable v the clause
// nominally flips v's (true) implied literal, but conflict analysis
// never reads it: v is already marked seen when its reason is expanded.
// All row variables are assigned whenever a row serves as conflict or
// reason, so the materialization is total.
func (s *Solver) xorImplicate(xi int) cnf.Clause {
	cl := s.xorReasonCl[:0]
	for _, w := range s.xors[xi].Vars {
		if s.assign[w] == 1 {
			cl = append(cl, -w)
		} else {
			cl = append(cl, w)
		}
	}
	s.xorReasonCl = cl
	return cl
}

// hasActiveXor reports whether v occurs in an xor row that still has
// free variables (a fully assigned row constrains nothing further).
func (s *Solver) hasActiveXor(v int32) bool {
	for _, xi := range s.xorOcc[v] {
		if s.xorFree[xi] > 0 {
			return true
		}
	}
	return false
}

// tryGauss runs Gaussian elimination over the component's active parity
// rows. It returns (count, true) when the component was fully counted —
// a parity contradiction (count 0) or a pure parity subsystem
// (2^(n-rank)) — or when derived unit rows let the component be solved
// by one search step asserting them. It returns (nil, false) when
// elimination found nothing to exploit, and (nil, true) when the solver
// was cancelled during that step.
func (s *Solver) tryGauss(comp *component) (*big.Int, bool) {
	if len(comp.xors) == 0 {
		return nil, false
	}
	units, rank, consistent := s.gaussEliminate(comp)
	if !consistent {
		s.stats.GaussReductions++
		return big.NewInt(0), true
	}
	if len(comp.clauses) == 0 {
		// Pure parity component: each of the rank independent rows halves
		// the assignment space.
		s.stats.GaussReductions++
		cnt := new(big.Int).Lsh(big.NewInt(1), uint(len(comp.vars)-rank))
		return cnt, true
	}
	if len(units) == 0 {
		return nil, false
	}
	// Mixed component with derived units: the units are consequences of
	// the component's parity rows, so asserting them preserves the model
	// count. reasonAsserted, not a row reason: derived units come from row
	// combinations, so no single row is a valid antecedent for them.
	s.stats.GaussReductions++
	s.stats.XorPropagations += uint64(len(units))
	return s.split(comp.vars, reasonAsserted, units...), true
}

// gaussEliminate reduces the component's active parity rows over its
// free variables. It returns the forced literals of derived
// single-variable rows, the rank of the system, and whether it is
// consistent (no 0 = 1 row).
func (s *Solver) gaussEliminate(comp *component) (units []int32, rank int, consistent bool) {
	for i, v := range comp.vars {
		s.varRank[v] = int32(i)
	}
	m := &s.gauss
	m.Reset(len(comp.vars))
	for _, xi := range comp.xors {
		i := m.AddRow(s.xors[xi].Rhs != (s.xorPar[xi] == 1))
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] == unassigned {
				m.Flip(i, int(s.varRank[v]))
			}
		}
	}
	rank, consistent = m.Eliminate()
	if !consistent {
		return nil, rank, false
	}
	// Single-column rows are derived units.
	for i := 0; i < rank; i++ {
		if m.Weight(i) == 1 {
			v := comp.vars[m.Pivot(i)]
			if !m.Rhs(i) {
				v = -v
			}
			units = append(units, v)
		}
	}
	return units, rank, true
}
