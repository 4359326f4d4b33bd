package counter

import (
	"context"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
)

// refFailedLiteralFixpoint is failedLiteralFixpoint without the probe
// marks: both phases of every free candidate are propagated on every
// pass. The marked version must end in the same assignment with the same
// failed literals and learned clauses, having propagated less.
func refFailedLiteralFixpoint(s *Solver, vars []int32) bool {
	var cands []int32
	for {
		cands = s.probeCandidates(vars, cands)
		changed := false
		for _, v := range cands {
			if s.assign[v] != unassigned {
				continue
			}
			if s.checkAbort() {
				return true
			}
			mark := len(s.trail)
			s.curLevel++
			s.propQ = append(s.propQ, propItem{v, reasonDecision})
			okPos := s.propagate()
			s.undoTo(mark)
			s.curLevel--
			if !okPos {
				s.stats.FailedLiterals++
				s.propQ = append(s.propQ, propItem{-v, reasonAsserted})
				if !s.propagate() {
					return false
				}
				changed = true
				continue
			}
			s.curLevel++
			s.propQ = append(s.propQ, propItem{-v, reasonDecision})
			okNeg := s.propagate()
			s.undoTo(mark)
			s.curLevel--
			if !okNeg {
				s.stats.FailedLiterals++
				s.propQ = append(s.propQ, propItem{v, reasonAsserted})
				if !s.propagate() {
					return false
				}
				changed = true
			}
		}
		if !changed {
			return true
		}
	}
}

// probeSetup builds a solver for f at decision level 1 under the given
// decisions, propagating each one and dropping those that conflict (the
// conflict's learned clause stays, as in search). Replaying the same
// decisions on a second solver reaches the same state.
func probeSetup(f *cnf.Formula, decisions []int32) *Solver {
	s := New(f, Config{})
	s.reset()
	for ci, cl := range s.clauses {
		if len(cl) == 1 && s.nTrue[ci] == 0 {
			s.propQ = append(s.propQ, propItem{cl[0], int32(ci)})
		}
	}
	if !s.queueXorUnits() || !s.propagate() {
		return nil
	}
	s.curLevel = 1
	for _, lit := range decisions {
		if s.assign[litVar(lit)] != unassigned {
			continue
		}
		mark := len(s.trail)
		s.propQ = append(s.propQ, propItem{lit, reasonDecision})
		if !s.propagate() {
			s.undoTo(mark)
		}
	}
	return s
}

// TestFailedLiteralFixpointMatchesReference runs both fixpoints from the
// same random partial assignments of random CNF+XOR formulas and
// compares the outcome, assignment, failed-literal count and learned
// clauses. Across the trials probes must fail, and marks must save
// propagations.
func TestFailedLiteralFixpointMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	failed, unsat := uint64(0), 0
	var props, refProps uint64
	for trial := range 400 {
		nVars := 6 + rng.Intn(30)
		nXor := 0
		if trial%2 == 1 {
			nXor = 1 + rng.Intn(4)
		}
		f := randKeyFormula(rng, nVars, nVars+rng.Intn(3*nVars), nXor, []int{2, 2, 3, 3, 4})
		var decisions []int32
		for _, v := range randVars(rng, nVars, rng.Intn(nVars/3+1)) {
			if rng.Intn(2) == 0 {
				v = -v
			}
			decisions = append(decisions, v)
		}
		s, ref := probeSetup(f, decisions), probeSetup(f, decisions)
		if s == nil {
			continue // unsatisfiable at level 0
		}
		base, refBase := s.stats, ref.stats
		vars := varsUpTo(nVars)
		ok, refOK := s.failedLiteralFixpoint(vars), refFailedLiteralFixpoint(ref, vars)
		if ok != refOK {
			t.Fatalf("trial %d: fixpoint = %v, reference %v", trial, ok, refOK)
		}
		if !slices.Equal(s.assign, ref.assign) {
			t.Fatalf("trial %d: assignment %v, reference %v", trial, s.assign, ref.assign)
		}
		if s.stats.FailedLiterals != ref.stats.FailedLiterals || s.stats.Learned != ref.stats.Learned {
			t.Fatalf("trial %d: %d failed literals, %d learned; reference %d, %d", trial,
				s.stats.FailedLiterals, s.stats.Learned, ref.stats.FailedLiterals, ref.stats.Learned)
		}
		if !slices.EqualFunc(s.clauses[s.nOrig:], ref.clauses[ref.nOrig:], slices.Equal) {
			t.Fatalf("trial %d: learned %v, reference %v", trial, s.clauses[s.nOrig:], ref.clauses[ref.nOrig:])
		}
		failed += s.stats.FailedLiterals - base.FailedLiterals
		props += s.stats.Propagations - base.Propagations
		refProps += ref.stats.Propagations - refBase.Propagations
		if !ok {
			unsat++
		}
	}
	if failed < 100 || unsat == 0 || props >= refProps {
		t.Errorf("%d failed literals, %d contradictory fixpoints, %d vs %d propagations: want >= 100, > 0, fewer",
			failed, unsat, props, refProps)
	}
}

// TestProbeEpochWraparound starts the probe epoch at its maximum, so the
// first pass wraps it, with stale marks equal to the epochs the fixpoint
// is about to use. Clearing on wraparound must keep the stale marks from
// skipping probes: the outcome equals the reference's.
func TestProbeEpochWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	failed := uint64(0)
	for trial := range 100 {
		nVars := 6 + rng.Intn(20)
		f := randKeyFormula(rng, nVars, 2*nVars, trial%3, []int{2, 2, 3})
		s, ref := probeSetup(f, nil), probeSetup(f, nil)
		if s == nil {
			continue
		}
		s.probeEpoch = math.MaxUint32
		for i := range s.probed {
			s.probed[i] = uint32(1 + rng.Intn(3))
		}
		ok, refOK := s.failedLiteralFixpoint(varsUpTo(nVars)), refFailedLiteralFixpoint(ref, varsUpTo(nVars))
		if ok != refOK || !slices.Equal(s.assign, ref.assign) || s.stats.FailedLiterals != ref.stats.FailedLiterals {
			t.Fatalf("trial %d: fixpoint %v, %d failed; reference %v, %d failed", trial,
				ok, s.stats.FailedLiterals, refOK, ref.stats.FailedLiterals)
		}
		if s.probeEpoch == 0 || s.probeEpoch > 1000 {
			t.Fatalf("trial %d: epoch %d after wraparound", trial, s.probeEpoch)
		}
		failed += ref.stats.FailedLiterals
	}
	if failed < 20 {
		t.Errorf("%d failed literals across the trials, want at least 20", failed)
	}
}

// TestSearchPinned pins the result and every Stats field of a few
// searches, so that a change meant to keep the search (a refactor, a
// faster data structure) is checked to keep it exactly:
//   - a 16-bit adder ER count (RCA against LOA(16,4)); its 66,187
//     propagations were 112,109 when failed-literal probing probed
//     every candidate (refFailedLiteralFixpoint's form);
//   - an XOR-heavy MED bit of the same pair, where Gaussian elimination
//     concludes components and asserts derived units;
//   - Satisfiable on threshold miters of RCA8 against LOA(8,4), one
//     satisfiable (early exit) and one not (a full search);
//   - an ApproxCount by DPLL whose support minimization drops an input
//     fixed by a unit clause and one defined by a parity row.
func TestSearchPinned(t *testing.T) {
	ctx := context.Background()
	count := func(fs ...*cnf.Formula) (string, Stats) {
		var st Stats
		total := new(big.Int)
		for _, f := range fs {
			s := New(f, Config{})
			n, err := s.Count(ctx)
			if err != nil {
				t.Fatal(err)
			}
			total.Add(total, n)
			st.Add(s.Stats())
		}
		return total.String(), st
	}
	satisfiable := func(th int64) (string, Stats) {
		fs := miterFormulas(t, func(exact, approx *circuit.Circuit) (*circuit.Circuit, error) {
			return miter.Threshold(exact, approx, big.NewInt(th))
		}, gen.RippleCarryAdder(8), als.LowerORAdder(8, 4))
		s := New(fs[0], Config{})
		sat, err := s.Satisfiable(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sat), s.Stats()
	}
	cases := []struct {
		name  string
		run   func() (string, Stats)
		value string
		want  Stats
	}{
		{"adder16-ER", func() (string, Stats) {
			return count(miterFormulas(t, miter.ER, gen.RippleCarryAdder(16), als.LowerORAdder(16, 4))...)
		}, "2936012800", Stats{
			Decisions: 221, Propagations: 66187, Components: 750, CacheHits: 420, CacheStores: 330,
			FailedLiterals: 174, Learned: 176, XorPropagations: 19776, GaussReductions: 109,
		}},
		{"adder16-MED-bit8", func() (string, Stats) {
			return count(miterFormulas(t, miter.MED, gen.RippleCarryAdder(16), als.LowerORAdder(16, 4))[8])
		}, "0", Stats{
			Decisions: 131, Propagations: 61193, Components: 328, CacheHits: 152, CacheStores: 176,
			FailedLiterals: 341, Learned: 336, XorPropagations: 20317, GaussReductions: 45,
		}},
		{"threshold7-sat", func() (string, Stats) { return satisfiable(7) }, "true", Stats{
			Decisions: 86, Propagations: 35141, Components: 17, CacheHits: 11, CacheStores: 65,
			FailedLiterals: 210, Learned: 173, XorPropagations: 13813, GaussReductions: 8,
		}},
		{"threshold14-unsat", func() (string, Stats) { return satisfiable(14) }, "false", Stats{
			Decisions: 102, Propagations: 47133, Components: 9, CacheStores: 81,
			FailedLiterals: 270, Learned: 231, XorPropagations: 18762, GaussReductions: 6,
		}},
		{"approx-dropped-support", func() (string, Stats) {
			f := miterFormulas(t, miter.ER, gen.RippleCarryAdder(8), als.LowerORAdder(8, 3))[0]
			in := inputVars(f)
			f.Xors = append(f.Xors, cnf.XorClause{Vars: []int32{in[0], in[3], in[9]}, Rhs: true})
			f.Clauses = append(f.Clauses, cnf.Clause{-in[5]})
			r, err := ApproxCount(ctx, f, ApproxConfig{Epsilon: 0.8, Delta: 0.2, Seed: 3, Sampling: in})
			if err != nil {
				t.Fatal(err)
			}
			return r.Count.String(), r.Stats
		}, "9472", Stats{
			Decisions: 1195, Propagations: 514890, Components: 2337, CacheHits: 181, CacheStores: 2156, FailedLiterals: 1889,
			Learned: 488, XorPropagations: 264299, GaussReductions: 961, ApproxProbes: 26, SupportBefore: 16, SupportAfter: 14,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			value, got := c.run()
			if value != c.value || got != c.want {
				t.Errorf("value %s, stats %+v;\nwant value %s, stats %+v", value, got, c.value, c.want)
			}
		})
	}
}
