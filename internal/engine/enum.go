package engine

import (
	"context"
	"math/big"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/obs"
	"vacsem/internal/sim"
)

// enumBackend verifies by exhaustive word-parallel logic simulation of
// the session miter — the paper's enumeration baseline. The miter,
// restricted to the cones of the tasks left to the backend, is compiled
// once to an instruction tape and its 2^k patterns (k: the inputs those
// cones reach) split across Config.SimWorkers goroutines (<= 0:
// GOMAXPROCS); one pass produces every task's one-count, so a
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
	counts, err := sweep(ctx, req, todo, req.Config.SimWorkers)
	if err != nil {
		return err
	}
	for i, j := range todo {
		emit.Emit(j, TaskResult{Count: counts[i]})
	}
	return nil
}

// restrict returns the cone of the session miter m feeding the outputs
// js, in that order, without the inputs none of them reaches, and the
// number of inputs it dropped: a count over the cone scales to m's input
// space by that power of two.
func restrict(m *circuit.Circuit, js []int) (*circuit.Circuit, uint) {
	cone, _ := m.ExtractCone(js...)
	return cone, uint(m.NumInputs() - cone.NumInputs())
}

// sweep counts the tasks js in one multi-output simulation pass over
// their restricted cone of the session miter on up to workers
// goroutines, and returns the counts in js order, rescaled to the
// session's input space. Its "sim_batch" trace event names the tasks and
// k, the number of inputs enumerated.
func sweep(ctx context.Context, req *Request, js []int, workers int) ([]*big.Int, error) {
	cone, shift := restrict(req.Miter, js)
	start := time.Now()
	ones, err := sim.CompileOutputs(cone).CountOnes(ctx, workers)
	if err != nil {
		return nil, err
	}
	if obs.Active() != nil {
		obs.Event(ctx, "sim_batch", obs.Fields{
			"tasks": js, "k": cone.NumInputs(), "patterns": uint64(1) << uint(cone.NumInputs()),
			"gates": cone.NumGates(), "workers": workers,
			"sim_us": time.Since(start).Microseconds(),
		})
	}
	counts := make([]*big.Int, len(js))
	for i, n := range ones {
		counts[i] = new(big.Int).Lsh(new(big.Int).SetUint64(n), shift)
	}
	return counts, nil
}
