package counter

import (
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"slices"
	"testing"

	"vacsem/internal/cnf"
)

// refCacheKey is the straightforward form of cacheKey: every residual
// clause tuple is built, the tuples are sorted with a comparison sort,
// and the xor rows likewise. cacheKey must produce the same bytes; the
// store persists cache entries under these keys.
func refCacheKey(s *Solver, comp *component) string {
	for i, v := range comp.vars {
		s.varRank[v] = int32(i)
	}
	var cls [][]int32
	for _, ci := range comp.clauses {
		var seg []int32
		for _, l := range s.clauses[ci] {
			v := litVar(l)
			if s.assign[v] != unassigned {
				continue
			}
			code := s.varRank[v] << 1
			if l < 0 {
				code |= 1
			}
			seg = append(seg, code)
		}
		slices.Sort(seg)
		cls = append(cls, seg)
	}
	slices.SortFunc(cls, slices.Compare)
	var buf []byte
	for _, seg := range cls {
		buf = binary.AppendUvarint(buf, uint64(len(seg)))
		for _, code := range seg {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	var xrs [][]int32
	for _, xi := range comp.xors {
		var seg []int32
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] != unassigned {
				continue
			}
			seg = append(seg, s.varRank[v])
		}
		hdr := int32(len(seg)) << 1
		if s.xors[xi].Rhs != (s.xorPar[xi] == 1) {
			hdr |= 1
		}
		xrs = append(xrs, append([]int32{hdr}, seg...))
	}
	slices.SortFunc(xrs, slices.Compare)
	buf = binary.AppendUvarint(buf, uint64(len(xrs)))
	for _, seg := range xrs {
		for _, code := range seg {
			buf = binary.AppendUvarint(buf, uint64(code))
		}
	}
	return string(buf)
}

// refPickVar is pickVar with a per-call score map.
func refPickVar(s *Solver, comp *component) int32 {
	score := make(map[int32]int, len(comp.vars))
	for _, ci := range comp.clauses {
		w := 1
		if int32(len(s.clauses[ci]))-s.nFalse[ci] == 2 {
			w = 4
		}
		for _, l := range s.clauses[ci] {
			if x := litVar(l); s.assign[x] == unassigned {
				score[x] += w
			}
		}
	}
	for _, xi := range comp.xors {
		w := 2
		if s.xorFree[xi] == 2 {
			w = 4
		}
		for _, v := range s.xors[xi].Vars {
			if s.assign[v] == unassigned {
				score[v] += w
			}
		}
	}
	best, bestScore := comp.vars[0], -1
	for _, v := range comp.vars {
		if sc := score[v]; sc > bestScore {
			best, bestScore = v, sc
		}
	}
	return best
}

// randVars returns k distinct variables of 1..n, sorted.
func randVars(rng *rand.Rand, n, k int) []int32 {
	vs := make([]int32, 0, k)
	for _, i := range rng.Perm(n)[:k] {
		vs = append(vs, int32(i+1))
	}
	slices.Sort(vs)
	return vs
}

// randKeyFormula draws a formula whose clause lengths are picked from
// lens, plus nXor parity rows of 2 to 5 variables.
func randKeyFormula(rng *rand.Rand, nVars, nCls, nXor int, lens []int) *cnf.Formula {
	f := &cnf.Formula{NumVars: nVars}
	for range nCls {
		k := min(lens[rng.Intn(len(lens))], nVars)
		cl := randVars(rng, nVars, k)
		for i := range cl {
			if rng.Intn(2) == 0 {
				cl[i] = -cl[i]
			}
		}
		rng.Shuffle(len(cl), func(i, j int) { cl[i], cl[j] = cl[j], cl[i] })
		f.Clauses = append(f.Clauses, cnf.Clause(cl))
	}
	for range nXor {
		f.Xors = append(f.Xors, cnf.XorClause{
			Vars: randVars(rng, nVars, 2+rng.Intn(min(4, nVars-1))),
			Rhs:  rng.Intn(2) == 0,
		})
	}
	return f
}

// TestCacheKeyMatchesReference compares cacheKey's bytes with
// refCacheKey on every component of random residual formulas: short
// clauses only (the packed path), long clauses only and mixes (the
// tuple-sort fallback), with and without xor rows, under random partial
// assignments. pickVar is checked against refPickVar on the same
// components, and its score array must be all zero afterwards.
func TestCacheKeyMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := []struct {
		name string
		lens []int
		nXor int
	}{
		{"short", []int{1, 2, 3}, 0},
		{"short+xor", []int{1, 2, 3}, 4},
		{"long", []int{4, 5, 7}, 0},
		{"mixed", []int{2, 3, 3, 3, 5}, 0},
		{"mixed+xor", []int{1, 2, 3, 6}, 3},
	}
	packed, fallback := 0, 0
	for _, sh := range shapes {
		for trial := range 150 {
			nVars := 4 + rng.Intn(30)
			f := randKeyFormula(rng, nVars, 2+rng.Intn(2*nVars), sh.nXor, sh.lens)
			s := New(f, Config{})
			s.reset()
			s.curLevel = 1
			// Random partial assignment. Conflicts are fine: a clause
			// with no free literal belongs to no component.
			for _, v := range randVars(rng, nVars, rng.Intn(nVars/2+1)) {
				lit := v
				if rng.Intn(2) == 0 {
					lit = -v
				}
				s.assertLit(lit, reasonDecision)
			}
			comps, _ := s.findComponents(varsUpTo(nVars))
			for _, comp := range comps {
				want := refCacheKey(s, comp)
				if got := s.cacheKey(comp); got != want {
					t.Fatalf("%s trial %d: cacheKey = %x, reference %x", sh.name, trial, got, want)
				}
				long := false
				for _, ci := range comp.clauses {
					long = long || int32(len(s.clauses[ci]))-s.nFalse[ci] > 3
				}
				if long {
					fallback++
				} else {
					packed++
				}
				if got, want := s.pickVar(comp), refPickVar(s, comp); got != want {
					t.Fatalf("%s trial %d: pickVar = %d, reference %d", sh.name, trial, got, want)
				}
				for v, sc := range s.varScore {
					if sc != 0 {
						t.Fatalf("%s trial %d: varScore[%d] = %d after pickVar", sh.name, trial, v, sc)
					}
				}
			}
		}
	}
	if packed < 100 || fallback < 100 {
		t.Errorf("compared %d packed and %d fallback components, want at least 100 of each", packed, fallback)
	}
}

// TestCacheKeyGolden pins the key bytes of one fixed residual. Keys are
// persisted: store snapshots hold cache entries under them, so changing
// the key format requires bumping store.snapshotVersion
// (internal/store/persist.go), and then this constant.
func TestCacheKeyGolden(t *testing.T) {
	f := &cnf.Formula{
		NumVars: 7,
		Clauses: []cnf.Clause{
			{1, -2, 3}, {-1, 4}, {2, -4, 5, 6}, {-3, -5}, {6, 7}, {-6, 1, -7},
		},
		Xors: []cnf.XorClause{{Vars: []int32{2, 5, 7}, Rhs: true}, {Vars: []int32{1, 3}}},
	}
	s := New(f, Config{})
	s.reset()
	s.curLevel = 1
	s.assertLit(-6, reasonDecision)
	comps, free := s.findComponents(varsUpTo(7))
	if len(comps) != 1 || free != 0 {
		t.Fatalf("got %d components, %d free vars; want 1, 0", len(comps), free)
	}
	const golden = "0300030402010603020708020509010a0204000207010405"
	if got := hex.EncodeToString([]byte(s.cacheKey(comps[0]))); got != golden {
		t.Errorf("key = %s, want %s", got, golden)
	}
}
