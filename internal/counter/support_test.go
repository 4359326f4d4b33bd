package counter

import (
	"context"
	"strings"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/testutil"
)

// TestMinimizeSupportDropsAssignedAndDefined: a level-0 unit drops its
// sampling variable, and an all-sampling parity row drops its pivot.
func TestMinimizeSupportDropsAssignedAndDefined(t *testing.T) {
	// 1 is forced true; 1 ⊕ 2 ⊕ 3 = 1 then defines 2 from 3.
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 3 2\n1 0\nx 1 2 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	kept := MinimizeSupport(f, []int32{1, 2, 3})
	if len(kept) != 1 || kept[0] != 3 {
		t.Fatalf("kept = %v, want [3]", kept)
	}
}

// TestMinimizeSupportKeepsGatePivotRows: a parity row whose pivot lands
// on a non-sampling (gate) variable defines the gate, not a sampling
// variable — nothing may be dropped.
func TestMinimizeSupportKeepsGatePivotRows(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 3 1\nx 1 2 3 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	kept := MinimizeSupport(f, []int32{2, 3})
	if len(kept) != 2 || kept[0] != 2 || kept[1] != 3 {
		t.Fatalf("kept = %v, want [2 3]", kept)
	}
}

// TestMinimizeSupportUnsat: a level-0 contradiction makes every set an
// independent support; the empty set routes ApproxCount to its exact
// (zero-count) path.
func TestMinimizeSupportUnsat(t *testing.T) {
	f, err := cnf.ParseDIMACS(strings.NewReader("p cnf 2 2\n1 0\n-1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if kept := MinimizeSupport(f, []int32{1, 2}); len(kept) != 0 {
		t.Fatalf("kept = %v, want empty", kept)
	}
}

// TestMinimizeSupportPreservesEstimates: the minimized support never
// grows, and the estimate over it stays inside the ε band of the exact
// count — minimization changes the hash width, never the counted space.
func TestMinimizeSupportPreservesEstimates(t *testing.T) {
	const eps = 0.8
	for seed := int64(0); seed < 20; seed++ {
		c := testutil.RandomCircuit(8+int(seed%8), 16+int(seed*3%30), 1, seed+3131)
		par := c.Inputs[0]
		for _, in := range c.Inputs[1:] {
			par = c.AddGate(circuit.Xor, par, in)
		}
		c.SetOutputs(c.AddGate(circuit.Or, c.Outputs[0], par))
		f, err := cnf.Encode(c)
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(f, Config{}).Count(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		r, err := ApproxCount(context.Background(), f, ApproxConfig{
			Epsilon: eps, Delta: 0.2, Seed: seed, Rounds: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.SupportAfter > r.SupportBefore {
			t.Fatalf("seed %d: support grew %d -> %d", seed, r.SupportBefore, r.SupportAfter)
		}
		if r.Exact {
			if r.Count.Cmp(want) != 0 {
				t.Fatalf("seed %d: exact-path %v != %v", seed, r.Count, want)
			}
			continue
		}
		if !withinEpsilon(r.Count, want, eps) {
			t.Errorf("seed %d: %v outside (1+%g) band of %v", seed, r.Count, eps, want)
		}
	}
}
