package counter

// Tests of the pure-CNF counting path (formulas with no circuit
// metadata, e.g. parsed from DIMACS): random k-CNF formulas are counted
// and cross-checked against truth-table enumeration, and structural
// edge cases (empty formula, empty clause, duplicate literals,
// tautological clauses) are pinned down.

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"vacsem/internal/cnf"
)

// bruteCNF counts models by enumeration.
func bruteCNF(f *cnf.Formula) uint64 {
	var count uint64
patterns:
	for x := uint64(0); x < 1<<uint(f.NumVars); x++ {
		for _, cl := range f.Clauses {
			sat := false
			for _, l := range cl {
				v := l
				if v < 0 {
					v = -v
				}
				if (l > 0) == (x>>(uint(v)-1)&1 == 1) {
					sat = true
					break
				}
			}
			if !sat {
				continue patterns
			}
		}
		for _, xr := range f.Xors {
			par := false
			for _, v := range xr.Vars {
				if x>>(uint(v)-1)&1 == 1 {
					par = !par
				}
			}
			if par != xr.Rhs {
				continue patterns
			}
		}
		count++
	}
	return count
}

// randomCNF builds a random formula in DIMACS text then parses it, so
// the DIMACS path is exercised too.
func randomCNF(nVars, nClauses, maxLen int, seed int64) (*cnf.Formula, error) {
	rng := rand.New(rand.NewSource(seed))
	var b strings.Builder
	fmt.Fprintf(&b, "p cnf %d %d\n", nVars, nClauses)
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(maxLen)
		for j := 0; j < k; j++ {
			v := 1 + rng.Intn(nVars)
			if rng.Intn(2) == 0 {
				v = -v
			}
			fmt.Fprintf(&b, "%d ", v)
		}
		b.WriteString("0\n")
	}
	return cnf.ParseDIMACS(strings.NewReader(b.String()))
}

func TestDIMACSCountMatchesBrute(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		nVars := 3 + int(seed%10)
		nClauses := 2 + int(seed*3%25)
		f, err := randomCNF(nVars, nClauses, 4, seed)
		if err != nil {
			t.Fatal(err)
		}
		want := bruteCNF(f)
		for name, cfg := range map[string]Config{
			"default": {},
			"noibcp":  {DisableIBCP: true},
			"nocache": {DisableCache: true},
			"sim":     {EnableSim: true}, // must gracefully refuse (no circuit)
		} {
			s := New(f, cfg)
			got, err := s.Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(new(big.Int).SetUint64(want)) != 0 {
				t.Fatalf("seed %d cfg %s: %v != %d", seed, name, got, want)
			}
		}
	}
}

func TestDIMACSSatisfiableMatchesCount(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		f, err := randomCNF(4+int(seed%8), 5+int(seed*7%40), 3, seed+1000)
		if err != nil {
			t.Fatal(err)
		}
		s := New(f, Config{})
		n, err := s.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		sat, err := s.Satisfiable(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if sat != (n.Sign() > 0) {
			t.Fatalf("seed %d: Satisfiable=%v but count=%v", seed, sat, n)
		}
	}
}

func TestEmptyFormula(t *testing.T) {
	f := &cnf.Formula{NumVars: 3}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(8)) != 0 {
		t.Errorf("empty formula count = %v, want 8", n)
	}
	sat, err := s.Satisfiable(context.Background())
	if err != nil || !sat {
		t.Errorf("empty formula must be satisfiable")
	}
}

func TestEmptyClause(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 2 1\n0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Sign() != 0 {
		t.Errorf("empty clause count = %v, want 0", n)
	}
	if sat, _ := s.Satisfiable(context.Background()); sat {
		t.Error("empty clause must be unsatisfiable")
	}
}

func TestContradictoryUnits(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 1 2\n1 0\n-1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Sign() != 0 {
		t.Errorf("x & ~x count = %v", n)
	}
}

func TestDuplicateLiteralsInClause(t *testing.T) {
	// (x | x | y) behaves like (x | y).
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 2 1\n1 1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(3)) != 0 {
		t.Errorf("count = %v, want 3", n)
	}
}

func TestXorChainCNF(t *testing.T) {
	// Hand-written XOR constraint x1^x2^x3 = 1 has 4 models.
	src := `p cnf 3 4
1 2 3 0
1 -2 -3 0
-1 2 -3 0
-1 -2 3 0
`
	f, err := cnf.ParseDIMACS(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	n, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n.Cmp(big.NewInt(4)) != 0 {
		t.Errorf("xor chain count = %v, want 4", n)
	}
}

// TestQuickRandom3CNF is a property-based harness over 3-CNF instances:
// the count never exceeds 2^n and equals brute force.
func TestQuickRandom3CNF(t *testing.T) {
	check := func(seedRaw int64) bool {
		seed := seedRaw % 100000
		f, err := randomCNF(6, 12, 3, seed)
		if err != nil {
			return false
		}
		s := New(f, Config{})
		got, err := s.Count(context.Background())
		if err != nil {
			return false
		}
		return got.Cmp(new(big.Int).SetUint64(bruteCNF(f))) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
