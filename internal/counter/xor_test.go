package counter

import (
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/testutil"
)

// TestNativeMatchesBlasted is the Gauss-aware-counter equivalence run
// of the refactor: counting the native CNF-XOR encoding must agree with
// counting the pre-refactor CNF-blasted encoding on random circuits,
// across every feature combination. It runs under -short, so the
// -race -short CI pass covers it.
func TestNativeMatchesBlasted(t *testing.T) {
	configs := []Config{
		{},
		{DisableIBCP: true},
		{DisableLearning: true},
		{DisableCache: true},
		{DisableIBCP: true, DisableLearning: true, DisableCache: true},
		{EnableSim: true, MinSimGates: 1, Alpha: 20},
	}
	for seed := int64(0); seed < 30; seed++ {
		c := testutil.RandomCircuit(4+int(seed%5), 10+int(seed*3%25), 1, seed+777)
		fn, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		fb, err := cnf.EncodeBlasted(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(fb, Config{}).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for ci, cfg := range configs {
			got, err := New(fn, cfg).Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d cfg %d: native count %v, blasted %v", seed, ci, got, want)
			}
		}
	}
}

// TestPureParityClosedForm: a component that is only parity rows is
// counted 2^(n-rank) by Gaussian elimination, without any decisions.
func TestPureParityClosedForm(t *testing.T) {
	// 8 inputs, parity tree, output free (EncodeOpen): every assignment
	// of the inputs extends uniquely, so the count is 2^8... with the
	// gate variables determined. Formula vars = 8 inputs + 7 gates;
	// models = 2^8.
	c := circuit.New("partree")
	var layer []int
	for i := 0; i < 8; i++ {
		layer = append(layer, c.AddInput(fmt.Sprintf("i%d", i)))
	}
	for len(layer) > 1 {
		var next []int
		for i := 0; i+1 < len(layer); i += 2 {
			next = append(next, c.AddGate(circuit.Xor, layer[i], layer[i+1]))
		}
		layer = next
	}
	c.AddOutput(layer[0], "y")
	f, err := cnf.EncodeOpen(c)
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	got, err := s.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := new(big.Int).Lsh(big.NewInt(1), 8); got.Cmp(want) != 0 {
		t.Fatalf("count = %v, want %v", got, want)
	}
	if s.Stats().Decisions != 0 {
		t.Errorf("pure parity system took %d decisions, want 0", s.Stats().Decisions)
	}
	if s.Stats().GaussReductions == 0 {
		t.Error("Gauss pass never fired")
	}
}

// TestXorBCPForcing: unit and near-unit rows force literals through the
// propagation queue, and contradictory rows zero the count.
func TestXorBCPForcing(t *testing.T) {
	cases := []struct {
		dimacs string
		want   uint64
	}{
		// x1 = 1 forced, x2 free.
		{"p cnf 2 1\nx 1 0\n", 2},
		// x1 = 0 forced (negated unit row).
		{"p cnf 1 1\nx -1 0\n", 1},
		// x1^x2 = 1 with clause (~x1): x1=0 forced, then x2=1.
		{"p cnf 2 2\n-1 0\nx 1 2 0\n", 1},
		// Contradictory parity pair.
		{"p cnf 2 2\nx 1 2 0\nx -1 2 0\n", 0},
		// Chain: x1^x2=1, x2^x3=1, x1 = 1 => x2=0 => x3=1.
		{"p cnf 3 3\n1 0\nx 1 2 0\nx 2 3 0\n", 1},
	}
	for i, tc := range cases {
		f, err := cnf.ParseDIMACS(strings.NewReader(tc.dimacs))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if b := bruteCNF(f); b != tc.want {
			t.Fatalf("case %d: test vector wrong, brute = %d want %d", i, b, tc.want)
		}
		s := New(f, Config{})
		got, err := s.Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(new(big.Int).SetUint64(tc.want)) != 0 {
			t.Errorf("case %d: count = %v, want %d", i, got, tc.want)
		}
	}
}

// TestRandomCNFXorAgainstBrute cross-checks the solver against truth-
// table enumeration on random mixed CNF-XOR formulas parsed from
// DIMACS, across feature combos.
func TestRandomCNFXorAgainstBrute(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 31337))
		nVars := 4 + rng.Intn(9)
		nCl := rng.Intn(2 * nVars)
		nXor := 1 + rng.Intn(nVars)
		var b strings.Builder
		fmt.Fprintf(&b, "p cnf %d %d\n", nVars, nCl+nXor)
		for i := 0; i < nCl; i++ {
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				fmt.Fprintf(&b, "%d ", v)
			}
			b.WriteString("0\n")
		}
		for i := 0; i < nXor; i++ {
			k := 1 + rng.Intn(4)
			b.WriteString("x ")
			for j := 0; j < k; j++ {
				v := 1 + rng.Intn(nVars)
				if rng.Intn(2) == 0 {
					v = -v
				}
				fmt.Fprintf(&b, "%d ", v)
			}
			b.WriteString("0\n")
		}
		f, err := cnf.ParseDIMACS(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		want := new(big.Int).SetUint64(bruteCNF(f))
		for ci, cfg := range []Config{
			{},
			{DisableIBCP: true, DisableLearning: true},
			{DisableCache: true},
		} {
			s := New(f, cfg)
			got, err := s.Count(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(want) != 0 {
				t.Fatalf("seed %d cfg %d: count = %v, brute = %v\n%s", seed, ci, got, want, b.String())
			}
			sat, err := s.Satisfiable(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			if sat != (want.Sign() != 0) {
				t.Fatalf("seed %d cfg %d: sat = %v, brute = %v", seed, ci, sat, want)
			}
		}
	}
}

// TestCacheKeySeparatesXorRows guards the cache-key extension: two
// formulas whose clause structure matches but whose parity rows differ
// must not alias in a shared cache.
func TestCacheKeySeparatesXorRows(t *testing.T) {
	cache := NewCache(1024, 0)
	// Same clause skeleton; one formula adds a parity row.
	plain, err := cnf.ParseDIMACS(strings.NewReader("p cnf 3 1\n1 2 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := cnf.ParseDIMACS(strings.NewReader("p cnf 3 2\n1 2 3 0\nx 1 2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(plain, Config{Cache: cache, CacheOwner: 1})
	got1, err := s1.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(mixed, Config{Cache: cache, CacheOwner: 2})
	got2, err := s2.Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if want := big.NewInt(7); got1.Cmp(want) != 0 {
		t.Errorf("plain count = %v, want 7", got1)
	}
	// x1^x2=1 (2 options) * x3 free (2) minus nothing — clause 1|2|3 is
	// implied whenever x1^x2=1 => one of them true. So 4 models.
	if want := big.NewInt(4); got2.Cmp(want) != 0 {
		t.Errorf("mixed count = %v, want 4", got2)
	}
	// Mirror order: a fresh shared cache, mixed first.
	cache2 := NewCache(1024, 0)
	got3, err := New(mixed, Config{Cache: cache2, CacheOwner: 1}).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got4, err := New(plain, Config{Cache: cache2, CacheOwner: 2}).Count(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got3.Cmp(got2) != 0 || got4.Cmp(got1) != 0 {
		t.Errorf("shared-cache order changed counts: %v/%v vs %v/%v", got3, got4, got2, got1)
	}
}

// TestXorStatsPopulated: counting a parity-heavy formula must report
// XorPropagations and GaussReductions.
func TestXorStatsPopulated(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader(
		"p cnf 4 4\n1 0\nx 1 2 0\nx 2 3 0\nx 3 4 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := New(f, Config{})
	if _, err := s.Count(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s.Stats().XorPropagations == 0 {
		t.Errorf("XorPropagations = 0 on a forced parity chain: %+v", s.Stats())
	}
}
