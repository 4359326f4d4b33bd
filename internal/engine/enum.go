package engine

import (
	"context"
	"math/big"

	"vacsem/internal/circuit"
	"vacsem/internal/sim"
)

// enumBackend verifies by exhaustive word-parallel logic simulation of
// the session miter over all 2^I input patterns — the paper's
// enumeration baseline. The miter, restricted to the outputs of the
// tasks left to the backend, is compiled once to an instruction tape
// and the pattern-block range split across Config.SimWorkers goroutines
// (<= 0: GOMAXPROCS); one pass produces every task's one-count, so a
// multi-metric session costs a single sweep of the shared structure
// instead of one sweep per metric. Cancellation happens inside the
// kernel's block loop, polled per work chunk sized by tape length.
type enumBackend struct{}

func (enumBackend) Name() string { return "enum" }

// Validate rejects sessions over more than 62 inputs, whatever the
// store could serve.
func (enumBackend) Validate(req *Request) error {
	if req.Miter.NumInputs() > 62 {
		return ErrTooLarge
	}
	return nil
}

func (enumBackend) Count(ctx context.Context, req *Request, todo []int, emit *Emitter) error {
	counts, err := sim.CountOnesPerOutputWorkers(ctx, outputsOf(req.Miter, todo), req.Config.SimWorkers)
	if err != nil {
		return err
	}
	for i, j := range todo {
		emit.Emit(j, TaskResult{Count: new(big.Int).SetUint64(counts[i])})
	}
	return nil
}

// outputsOf returns m restricted to the outputs listed in todo, in that
// order: m itself when todo lists every output, otherwise a clone.
func outputsOf(m *circuit.Circuit, todo []int) *circuit.Circuit {
	if len(todo) == m.NumOutputs() {
		return m
	}
	c := m.Clone()
	c.ClearOutputs()
	for _, j := range todo {
		c.AddOutput(m.Outputs[j], m.OutputName(j))
	}
	return c
}
