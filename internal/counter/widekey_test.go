package counter

// Regression tests for the wide-clause cache-key soundness bug: the old
// cacheKey packed the free-literal positions of each active clause into
// a single byte, so clauses with more than 8 literals (which arrive via
// DIMACS input — cnf.Encode's gate clauses stay short) aliased: residual
// states differing only at positions >= 8 produced identical keys, and
// a cache hit could return the count of a different residual formula.

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/cnf"
)

// wideORFormula returns the single clause (a1 ∨ a2 ∨ ... ∨ an).
func wideORFormula(n int) *cnf.Formula {
	cl := make(cnf.Clause, n)
	for i := range cl {
		cl[i] = int32(i + 1)
	}
	return &cnf.Formula{NumVars: n, Clauses: []cnf.Clause{cl}}
}

func varsUpTo(n int) []int32 {
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(i + 1)
	}
	return vs
}

// restrictedBrute counts the models of f over all variables, holding
// the given variables false (the brute-force reference for a residual
// state of the solver).
func restrictedBrute(f *cnf.Formula, falseVars ...int32) *big.Int {
	unit := make([]cnf.Clause, 0, len(falseVars))
	for _, v := range falseVars {
		unit = append(unit, cnf.Clause{-v})
	}
	g := &cnf.Formula{NumVars: f.NumVars, Clauses: append(unit, f.Clauses...)}
	return new(big.Int).SetUint64(bruteCNF(g))
}

// TestCacheKeyWideClauseNoAlias drives the solver through two residual
// states of a 10-literal clause that differ only in the assignment of
// literals at positions >= 8. Under the old single-byte mask both
// states keyed as (clause 0, mask 0xFF), so the second solve hit the
// first state's cache entry and returned 511 instead of 255.
func TestCacheKeyWideClauseNoAlias(t *testing.T) {
	f := wideORFormula(10)
	s := New(f, Config{DisableIBCP: true, DisableLearning: true})
	s.reset()
	s.curLevel = 1

	solveUnder := func(falseVars ...int32) *big.Int {
		t.Helper()
		for _, v := range falseVars {
			if !s.assertLit(-v, reasonDecision) {
				t.Fatalf("asserting -%d conflicted", v)
			}
		}
		if !s.propagate() {
			t.Fatal("setup propagation conflicted")
		}
		comps, free := s.findComponents(varsUpTo(10))
		if len(comps) != 1 || free != 0 {
			t.Fatalf("got %d components, %d free vars; want 1, 0", len(comps), free)
		}
		cnt := s.solveComponent(comps[0])
		if cnt == nil {
			t.Fatal("solveComponent aborted")
		}
		s.undoTo(0)
		return cnt
	}

	// State A: a9 false. Residual clause has 9 free literals (positions
	// 0-7 and 9); 2^9-1 = 511 models over the component's 9 variables.
	cntA := solveUnder(9)
	if want := restrictedBrute(f, 9); cntA.Cmp(want) != 0 {
		t.Fatalf("state A count = %v, want %v", cntA, want)
	}

	// State B: a9 and a10 false. Residual clause has 8 free literals
	// (positions 0-7); 2^8-1 = 255 models. A key that drops positions
	// >= 8 cannot tell this state from state A.
	cntB := solveUnder(9, 10)
	if want := restrictedBrute(f, 9, 10); cntB.Cmp(want) != 0 {
		t.Fatalf("state B count = %v, want %v (wide-clause cache key aliased state A?)",
			cntB, want)
	}
}

// TestCountWideClausesVsBrute cross-checks full counts on formulas
// whose clauses exceed 8 literals (the DIMACS shape that triggers the
// masking bug), against truth-table enumeration.
func TestCountWideClausesVsBrute(t *testing.T) {
	for _, tc := range []struct {
		name    string
		clauses []cnf.Clause
		nVars   int
	}{
		{"or10", []cnf.Clause{varsUpTo(10)}, 10},
		{"and10", func() []cnf.Clause {
			// y <-> AND(a1..a10), y unconstrained: the 11-literal
			// consistency clause any 10-input AND would produce.
			cls := []cnf.Clause{make(cnf.Clause, 0, 11)}
			wide := &cls[0]
			for v := int32(1); v <= 10; v++ {
				*wide = append(*wide, -v)
				cls = append(cls, cnf.Clause{v, -11})
			}
			*wide = append(*wide, 11)
			return cls
		}(), 11},
		{"two-wide", []cnf.Clause{
			varsUpTo(12),
			{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11, -12},
		}, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := &cnf.Formula{NumVars: tc.nVars, Clauses: tc.clauses}
			want := new(big.Int).SetUint64(bruteCNF(f))
			for _, cfg := range []Config{{}, {DisableIBCP: true, DisableLearning: true}} {
				got, err := New(f, cfg).Count(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if got.Cmp(want) != 0 {
					t.Errorf("cfg %+v: count = %v, want %v", cfg, got, want)
				}
			}
		})
	}
}
