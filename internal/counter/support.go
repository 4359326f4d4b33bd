package counter

import (
	"math/bits"

	"vacsem/internal/cnf"
)

// Independent-support minimization for the approx backend.
//
// The sampling set handed to ApproxCount — usually the encoded primary
// inputs of a miter cone — is an independent support by construction,
// but it is rarely a minimal one: level-0 implication fixes some inputs
// outright (constant-propagated cones, asserted outputs), and the parity
// structure the encoder preserves as native XOR rows frequently defines
// one input as a GF(2) combination of others (deviation chains,
// xor-dominated approximate adders). Every variable removed from the
// sampling set makes every hash row of every probe shorter, so the pass
// runs once per task, before the first probe.
//
// Soundness: S is an independent support when any two models agreeing on
// S are equal. Dropping v from S is sound exactly when v's value is a
// function of the remaining set S\{v} on the model space — then models
// agreeing on S\{v} still agree on all of S, and induction over the
// dropped set carries the argument to dropping several at once as long
// as each dropped variable is defined from variables that are kept.

// MinimizeSupport returns the subset of sampling that is still an
// independent support of f, assuming sampling itself is one (a nil or
// empty sampling is returned unchanged). Two reductions apply:
//
//  1. Implication: variables assigned at level 0 (unit clauses, XOR
//     units, and everything BCP derives from them) are constant on the
//     model space and can never distinguish two models.
//  2. Definability: the residual XOR rows are brought to reduced
//     row-echelon form over GF(2) with non-sampling (gate) variables
//     ordered first, so pivots land on gate variables whenever
//     possible. A row whose pivot is a sampling variable and whose
//     remaining columns are all sampling variables spells out that
//     pivot as an affine combination of other sampling variables; in
//     RREF the remaining columns are pivot-free, hence never dropped
//     themselves, so all such pivots can be dropped simultaneously.
//
// If the formula is unsatisfiable at level 0, the empty set is returned
// (zero models make every set an independent support), which sends
// ApproxCount down its exact path immediately.
//
// The result preserves the order of sampling. The cost is one BCP
// fixpoint plus a Gauss–Jordan pass over the formula's own parity rows
// — negligible next to a single probe.
func MinimizeSupport(f *cnf.Formula, sampling []int32) []int32 {
	if len(sampling) == 0 {
		return sampling
	}
	s := New(f, Config{DisableCache: true, DisableIBCP: true, DisableLearning: true})
	s.reset()
	if !s.level0() {
		return sampling[:0]
	}

	isSampling := make([]bool, s.nVars+1)
	for _, v := range sampling {
		if int(v) <= s.nVars {
			isSampling[v] = true
		}
	}
	dropped := definedSamplingVars(s, isSampling)

	kept := make([]int32, 0, len(sampling))
	for _, v := range sampling {
		if int(v) <= s.nVars && s.assign[v] != unassigned {
			continue // implication: level-0 constant
		}
		if dropped[v] {
			continue // definability: affine function of kept sampling vars
		}
		kept = append(kept, v)
	}
	return kept
}

// definedSamplingVars runs the definability pass on the solver's
// residual XOR rows and returns the set of sampling variables provably
// defined by the rest of the sampling set. The solver must be at a
// consistent level-0 fixpoint.
func definedSamplingVars(s *Solver, isSampling []bool) map[int32]bool {
	// Columns: unassigned variables occurring in still-active rows, gate
	// (non-sampling) variables first so RREF pivots prefer them.
	var gateCols, sampCols []int32
	seen := make([]bool, s.nVars+1)
	for xi := range s.xors {
		if s.xorFree[xi] == 0 {
			continue
		}
		for _, v := range s.xors[xi].Vars {
			if seen[v] {
				continue
			}
			seen[v] = true
			if s.assign[v] != unassigned {
				continue // assigned: not a column at all
			}
			if isSampling[v] {
				sampCols = append(sampCols, v)
			} else {
				gateCols = append(gateCols, v)
			}
		}
	}
	if len(sampCols) == 0 {
		return nil
	}
	cols := append(gateCols, sampCols...)
	ncols := len(cols)
	words := (ncols + 63) / 64
	rank := make(map[int32]int, ncols)
	for i, v := range cols {
		rank[v] = i
	}

	var rows [][]uint64
	for xi := range s.xors {
		if s.xorFree[xi] == 0 {
			continue
		}
		row := make([]uint64, words)
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] != unassigned {
				continue
			}
			r := uint(rank[v])
			row[r/64] ^= 1 << (r % 64)
		}
		rows = append(rows, row)
	}

	// Gauss–Jordan to RREF over the ordered columns. The right-hand
	// sides are irrelevant: definability only needs the support pattern
	// (consistency was already established by propagation).
	n := len(rows)
	r := 0
	for col := 0; col < ncols && r < n; col++ {
		w, bit := col/64, uint(col%64)
		pivot := -1
		for i := r; i < n; i++ {
			if rows[i][w]>>bit&1 == 1 {
				pivot = i
				break
			}
		}
		if pivot < 0 {
			continue
		}
		rows[r], rows[pivot] = rows[pivot], rows[r]
		for i := 0; i < n; i++ {
			if i == r || rows[i][w]>>bit&1 == 0 {
				continue
			}
			for k := range rows[i] {
				rows[i][k] ^= rows[r][k]
			}
		}
		r++
	}

	// A row whose pivot is a sampling column and whose other columns are
	// all sampling columns defines its pivot from the rest of the
	// sampling set. In RREF non-pivot columns are never pivots of any
	// row, so every such pivot is defined from *kept* variables and all
	// of them drop together.
	gateBoundary := len(gateCols)
	dropped := make(map[int32]bool)
	for i := 0; i < r; i++ {
		pcol, ok := firstSetBit(rows[i])
		if !ok || pcol < gateBoundary {
			continue // gate pivot: defines a gate var, not a sampling var
		}
		defined := true
		for k, wv := range rows[i] {
			for wv != 0 {
				c := k*64 + bits.TrailingZeros64(wv)
				wv &= wv - 1
				if c != pcol && c < gateBoundary {
					defined = false
					break
				}
			}
			if !defined {
				break
			}
		}
		if defined {
			dropped[cols[pcol]] = true
		}
	}
	if len(dropped) == 0 {
		return nil
	}
	return dropped
}

// firstSetBit returns the index of the lowest set bit of a bitset row.
func firstSetBit(row []uint64) (int, bool) {
	for k, wv := range row {
		if wv != 0 {
			return k*64 + bits.TrailingZeros64(wv), true
		}
	}
	return 0, false
}
