package sim

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/testutil"
)

// filteredCounts is the affine count's reference: it simulates all 2^k
// input patterns and counts, per output, the ones under which the output
// is 1 and every parity row holds.
func filteredCounts(c *circuit.Circuit, rows []Parity) []uint64 {
	k := len(c.Inputs)
	words := (1<<k + 63) / 64
	vectors := make([][]uint64, k)
	for i := range vectors {
		vectors[i] = make([]uint64, words)
		for w := range vectors[i] {
			vectors[i][w] = inputWord(i, uint64(w))
		}
	}
	outs := RunMany(c, vectors, words)
	counts := make([]uint64, len(c.Outputs))
	for x := uint64(0); x < 1<<k; x++ {
		ok := true
		for _, row := range rows {
			par := row.Rhs
			for _, i := range row.Inputs {
				par = par != (x>>i&1 == 1)
			}
			if par {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, o := range outs {
			counts[j] += o[x/64] >> (x % 64) & 1
		}
	}
	return counts
}

// randomRows draws n parity rows over k inputs, each input in a row with
// probability 1/2 (duplicates allowed, so rows may be dependent).
func randomRows(rng *rand.Rand, k, n int) []Parity {
	rows := make([]Parity, n)
	for i := range rows {
		for x := 0; x < k; x++ {
			if rng.Intn(2) == 1 {
				rows[i].Inputs = append(rows[i].Inputs, x)
			}
		}
		rows[i].Rhs = rng.Intn(2) == 1
	}
	return rows
}

// rank returns the GF(2) rank of the rows' coefficient matrix.
func rank(k int, rows []Parity) int {
	homogeneous := make([]Parity, len(rows))
	for i, r := range rows {
		homogeneous[i] = Parity{Inputs: r.Inputs}
	}
	return k - NewSubspace(k, homogeneous).Dim()
}

func checkAffine(t *testing.T, name string, c *circuit.Circuit, p *Program, rows []Parity) *Subspace {
	t.Helper()
	s := NewSubspace(len(c.Inputs), rows)
	got, err := p.CountOnesAffine(context.Background(), 1, s)
	if err != nil {
		t.Fatal(err)
	}
	want := filteredCounts(c, rows)
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("%s: output %d: affine %d, filtered enumeration %d", name, j, got[j], want[j])
		}
	}
	return s
}

// TestCountOnesAffineMatchesFilter: on random circuits, random parity
// systems of every rank 0..k count what filtering the full enumeration
// counts, on fused and on full programs.
func TestCountOnesAffineMatchesFilter(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		k := 5 + int(seed)*2 // 5..15 inputs: single-block and multi-batch enumerations
		c := testutil.RandomCircuit(k, 40+int(seed)*15, 3, seed+300)
		rng := rand.New(rand.NewSource(seed))
		progs := map[string]*Program{"outputs": CompileOutputs(c), "full": Compile(c)}
		seen := make(map[int]bool) // ranks reached
		for trial := 0; trial < 4*(k+1); trial++ {
			rows := randomRows(rng, k, trial%(k+3))
			r := rank(k, rows)
			for name, p := range progs {
				s := checkAffine(t, name, c, p, rows)
				if !s.Empty() && s.Dim() != k-r {
					t.Fatalf("dim %d, want %d", s.Dim(), k-r)
				}
			}
			seen[r] = true
		}
		// Every rank 0..k: prefixes of a triangular basis (row x leads
		// with input x, then a random subset of the later inputs).
		var basis []Parity
		for x := 0; x < k; x++ {
			row := Parity{Inputs: []int{x}, Rhs: rng.Intn(2) == 1}
			for y := x + 1; y < k; y++ {
				if rng.Intn(2) == 1 {
					row.Inputs = append(row.Inputs, y)
				}
			}
			basis = append(basis, row)
		}
		for r := 0; r <= k; r++ {
			if s := checkAffine(t, "prefix", c, progs["outputs"], basis[:r]); s.Dim() != k-r {
				t.Fatalf("basis prefix %d: dim %d", r, s.Dim())
			}
			seen[r] = true
		}
		for r := 0; r <= k; r++ {
			if !seen[r] {
				t.Errorf("seed %d: rank %d never exercised", seed, r)
			}
		}
	}
}

// TestCountOnesAffineCases pins the edge cases: no rows equals
// CountOnes, an inconsistent system counts 0, unit rows count the cube
// they fix, and a full-rank system holds exactly one pattern.
func TestCountOnesAffineCases(t *testing.T) {
	const k = 9
	c := testutil.RandomCircuit(k, 70, 2, 77)
	p := CompileOutputs(c)
	all, err := p.CountOnes(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := p.CountOnesAffine(context.Background(), 1, NewSubspace(k, nil))
	if err != nil {
		t.Fatal(err)
	}
	for j := range all {
		if empty[j] != all[j] {
			t.Errorf("no rows: output %d: %d, CountOnes %d", j, empty[j], all[j])
		}
	}

	inconsistent := []Parity{{Inputs: []int{1, 4}}, {Inputs: []int{2}}, {Inputs: []int{4, 1, 2}, Rhs: true}}
	if s := checkAffine(t, "inconsistent", c, p, inconsistent); !s.Empty() || s.Dim() != 0 {
		t.Errorf("inconsistent system: empty %v dim %d, want empty with nothing to enumerate", s.Empty(), s.Dim())
	}
	if s := checkAffine(t, "cancelled", c, p, []Parity{{Inputs: []int{3, 3}, Rhs: true}}); !s.Empty() {
		t.Error("x3 ^ x3 = 1 not reported empty")
	}

	cube := []Parity{{Inputs: []int{0}, Rhs: true}, {Inputs: []int{5}}, {Inputs: []int{8}, Rhs: true}}
	if s := checkAffine(t, "cube", c, p, cube); s.Dim() != k-3 {
		t.Errorf("cube dim %d, want %d", s.Dim(), k-3)
	}

	var full []Parity
	for x := 0; x < k; x++ {
		full = append(full, Parity{Inputs: []int{x, (x + 1) % k}, Rhs: x%3 == 0})
	}
	full = append(full[:k-1], Parity{Inputs: []int{0}, Rhs: true}) // rank k
	s := checkAffine(t, "one pattern", c, p, full)
	if s.Empty() || s.Dim() != 0 {
		t.Errorf("full-rank system: empty %v dim %d, want one pattern", s.Empty(), s.Dim())
	}
}

// TestCountOnesAffineSharedSlot: inputs outside every output cone share
// one slot in a fused program; a parity row that ties a cone input to
// such an input must still read the right value.
func TestCountOnesAffineSharedSlot(t *testing.T) {
	c := circuit.New("shared")
	a, b := c.AddInput("a"), c.AddInput("b")
	c.AddInput("u")
	c.AddInput("v")
	c.SetOutputs(c.AddGate(circuit.And, a, b))
	p := CompileOutputs(c)
	for _, rows := range [][]Parity{
		{{Inputs: []int{0, 2}}},                     // a = u
		{{Inputs: []int{2, 3, 1}, Rhs: true}},       // b = ^(u ^ v)
		{{Inputs: []int{2}}, {Inputs: []int{0, 3}}}, // u = 0, a = v
	} {
		checkAffine(t, "shared", c, p, rows)
	}
}

// TestCountOnesAffineCancel: a cancelled context returns its error.
func TestCountOnesAffineCancel(t *testing.T) {
	c := testutil.RandomCircuit(20, 200, 1, 8)
	p := CompileOutputs(c)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, rows := range [][]Parity{nil, {{Inputs: []int{0, 1}}}, {{Inputs: []int{0}}, {Inputs: []int{0}, Rhs: true}}} {
		_, err := p.CountOnesAffine(ctx, 2, NewSubspace(20, rows))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("rows %v: err = %v, want context.Canceled", rows, err)
		}
	}
}
