package engine_test

import (
	"context"
	"math/big"
	"testing"

	"vacsem/internal/circuit"
	"vacsem/internal/engine"
)

// trivialRequest wraps a single hand-built sub-miter cone in a request
// whose session miter has totalInputs inputs, the situation the plan
// layer produces when a cone only touches a subset of the session's
// inputs.
func trivialRequest(t *testing.T, sub *circuit.Circuit, totalInputs int) *engine.Request {
	t.Helper()
	m := circuit.New("session")
	ins := make([]int, totalInputs)
	for i := range ins {
		ins[i] = m.AddInput("")
	}
	roots := circuit.Append(m, sub, ins[:sub.NumInputs()])
	m.AddOutput(roots[0], "f")
	return &engine.Request{
		Session: "trivial",
		Miter:   m,
		Tasks:   []engine.CountTask{{Sub: sub, Label: "trivial/f"}},
	}
}

// TestTrivialFastPaths pins the runner's constant-time recognitions on
// every backend: a cone whose output is const0, const1 (via NOT of
// const0), a bare input, or the negation of an input never reaches the
// backend, and the count scales by the session inputs the cone does not
// touch.
func TestTrivialFastPaths(t *testing.T) {
	const totalInputs = 6
	pow := func(k int) *big.Int { return new(big.Int).Lsh(big.NewInt(1), uint(k)) }

	cases := []struct {
		name  string
		build func() *circuit.Circuit
		want  *big.Int
	}{
		{
			// Output wired to the constant-false node (id 0): count 0.
			name: "const0",
			build: func() *circuit.Circuit {
				c := circuit.New("c0")
				c.AddInput("x")
				c.AddOutput(0, "f")
				return c
			},
			want: big.NewInt(0),
		},
		{
			// NOT(const0) is constant true over every assignment.
			name: "const1",
			build: func() *circuit.Circuit {
				c := circuit.New("c1")
				c.AddInput("x")
				c.AddOutput(c.Const1(), "f")
				return c
			},
			want: pow(totalInputs),
		},
		{
			// A bare input is true on half of all assignments.
			name: "input",
			build: func() *circuit.Circuit {
				c := circuit.New("in")
				x := c.AddInput("x")
				c.AddOutput(x, "f")
				return c
			},
			want: pow(totalInputs - 1),
		},
		{
			// NOT(input) is the complement: also half of all assignments.
			name: "not_input",
			build: func() *circuit.Circuit {
				c := circuit.New("notin")
				x := c.AddInput("x")
				c.AddOutput(c.AddGate(circuit.Not, x), "f")
				return c
			},
			want: pow(totalInputs - 1),
		},
	}
	for _, backend := range engine.Names() {
		b, err := engine.Lookup(backend)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range cases {
			t.Run(backend+"/"+tc.name, func(t *testing.T) {
				req := trivialRequest(t, tc.build(), totalInputs)
				results, err := engine.Execute(context.Background(), b, req)
				if err != nil {
					t.Fatal(err)
				}
				res := results[0]
				if !res.Trivial {
					t.Errorf("cone not recognized as trivial")
				}
				if res.Count.Cmp(tc.want) != 0 {
					t.Errorf("count = %v, want %v", res.Count, tc.want)
				}
			})
		}
	}
}
