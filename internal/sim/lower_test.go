package sim_test

import (
	"slices"
	"testing"

	"vacsem/internal/als"
	"vacsem/internal/gen"
	"vacsem/internal/miter"
	"vacsem/internal/sim"
	"vacsem/internal/testutil"
)

// TestTapeLengthsPinned pins the tape length of fused programs on fixed
// circuits, so a change to the gate-lowering loop that emits a
// different tape (an extra complement, a gate no longer folded or
// dropped) shows up here and not only as a speed change: every output
// cone of a mult6 MED miter and its whole multi-output program, a
// component program over one of those cones, and a random circuit with
// Buf/Not chains, Mux/Maj gates, dead gates and unreached inputs.
func TestTapeLengthsPinned(t *testing.T) {
	m, err := miter.MED(gen.ArrayMultiplier(6), als.TruncatedMultiplier(6, 3))
	if err != nil {
		t.Fatal(err)
	}
	var cones []int
	for j := range m.Outputs {
		cone, _ := m.ExtractCone(j)
		cones = append(cones, sim.CompileOutputs(cone).Len())
	}
	wantCones := []int{305, 309, 313, 317, 321, 325, 329, 333, 337, 341, 345, 349}
	if !slices.Equal(cones, wantCones) {
		t.Errorf("mult6 MED cone tape lengths %v, want %v", cones, wantCones)
	}
	if got, want := sim.CompileOutputs(m).Len(), 360; got != want {
		t.Errorf("mult6 MED miter tape length %d, want %d", got, want)
	}

	// The component of the top MED bit: every gate of its cone, the
	// first input pinned to 1, the rest free, the bit required to be 1.
	top := m.Outputs[len(m.Outputs)-1]
	mark := m.ConeMark(top)
	var gates, free []int32
	for id := range m.Nodes {
		if mark[id] && m.Nodes[id].Kind.IsGate() {
			gates = append(gates, int32(id))
		}
	}
	for _, id := range m.Inputs[1:] {
		free = append(free, int32(id))
	}
	pinned := []sim.PinnedInput{{Node: int32(m.Inputs[0]), Val: true}}
	check := func(g int32) int8 {
		if g == int32(top) {
			return 1
		}
		return 0
	}
	p, err := sim.CompileComponent(m, gates, free, pinned, check)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Len(), 351; got != want {
		t.Errorf("mult6 MED top-bit component tape length %d, want %d", got, want)
	}

	c := testutil.RandomCircuit(12, 150, 3, 31)
	for range 3 {
		c.AddInput("unreached")
	}
	if got, want := sim.CompileOutputs(c).Len(), 50; got != want {
		t.Errorf("random circuit tape length %d, want %d", got, want)
	}
	var all []int32
	for id := range c.Nodes {
		if c.Nodes[id].Kind.IsGate() {
			all = append(all, int32(id))
		}
	}
	ins := make([]int32, len(c.Inputs))
	for i, id := range c.Inputs {
		ins[i] = int32(id)
	}
	checkOut := func(g int32) int8 {
		for j, o := range c.Outputs {
			if int32(o) == g {
				return int8(1 - 2*(j%2))
			}
		}
		return 0
	}
	p, err = sim.CompileComponent(c, all, ins, nil, checkOut)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Len(), 130; got != want {
		t.Errorf("random circuit component tape length %d, want %d", got, want)
	}
}
