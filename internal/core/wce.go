package core

import (
	"context"
	"fmt"
	"math/big"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/miter"
	"vacsem/internal/synth"
)

// WCEResult reports a worst-case-error verification.
type WCEResult struct {
	// WCE is the maximum of |int(y) - int(y')| over all input patterns.
	WCE *big.Int
	// SATCalls is the number of threshold queries the binary search made.
	SATCalls int
	Runtime  time.Duration
}

// VerifyWCE computes the worst-case error max_x |int(y(x)) - int(y'(x))|
// exactly, by binary search over threshold miters: each probe asks the
// SAT question "can the deviation exceed t?" and the engine (including
// the simulation hook) answers with early termination. The number of
// probes is at most the output bit-width. The context reaches every SAT
// probe's decision loop.
func VerifyWCE(ctx context.Context, exact, approx *circuit.Circuit, opt Options) (*WCEResult, error) {
	start := time.Now()
	if exact.NumOutputs() != approx.NumOutputs() {
		return nil, fmt.Errorf("core: output count mismatch")
	}
	ctx, cancel := withTimeLimit(ctx, opt)
	defer cancel()
	res := &WCEResult{WCE: new(big.Int)}
	lo := new(big.Int)                                              // known achievable deviation
	hi := new(big.Int).Lsh(big.NewInt(1), uint(exact.NumOutputs())) // exclusive upper bound
	hi.Sub(hi, big.NewInt(1))                                       // max representable deviation

	// Exponential search from below first: real designs have WCE far
	// below the representable maximum, and SAT probes (achievable
	// deviations) terminate early while deep UNSAT probes are the
	// expensive ones — so find a tight bracket with doubling probes
	// before binary-searching it.
	probe := big.NewInt(1)
	for probe.Cmp(hi) < 0 {
		thr := new(big.Int).Sub(probe, big.NewInt(1))
		sat, err := thresholdSat(ctx, exact, approx, thr, opt)
		if err != nil {
			return nil, mapErr(ctx, err)
		}
		res.SATCalls++
		if !sat {
			hi.Sub(probe, big.NewInt(1))
			break
		}
		lo.Set(probe)
		probe.Lsh(probe, 1)
	}

	// Invariant: deviation > hi is unsatisfiable; deviation >= lo is
	// satisfiable (lo=0 trivially). Search the largest achievable value.
	for lo.Cmp(hi) < 0 {
		// mid = ceil((lo+hi+1)/2) = lo + (hi-lo+1)/2
		mid := new(big.Int).Sub(hi, lo)
		mid.Add(mid, big.NewInt(1))
		mid.Rsh(mid, 1)
		mid.Add(mid, lo)
		// Probe: deviation >= mid  <=>  deviation > mid-1.
		thr := new(big.Int).Sub(mid, big.NewInt(1))
		sat, err := thresholdSat(ctx, exact, approx, thr, opt)
		if err != nil {
			return nil, mapErr(ctx, err)
		}
		res.SATCalls++
		if sat {
			lo.Set(mid)
		} else {
			hi.Sub(mid, big.NewInt(1))
		}
	}
	res.WCE.Set(lo)
	res.Runtime = time.Since(start)
	return res, nil
}

// thresholdSat asks whether |int(y)-int(y')| > t is achievable.
func thresholdSat(ctx context.Context, exact, approx *circuit.Circuit, t *big.Int, opt Options) (bool, error) {
	m, err := miter.Threshold(exact, approx, t)
	if err != nil {
		return false, err
	}
	if !opt.NoSynth {
		m = synth.Compress(m)
	}
	out := m.Outputs[0]
	switch {
	case out == 0:
		return false, nil
	case m.Nodes[out].Kind == circuit.Not && m.Nodes[out].Fanins[0] == 0:
		return true, nil
	}
	sub, _ := m.ExtractCone(0)
	f, err := cnf.Encode(sub)
	if err != nil {
		return false, err
	}
	s := counter.New(f, counter.Config{
		EnableSim: opt.Method == MethodVACSEM,
		Alpha:     opt.Alpha,
	})
	return s.Satisfiable(ctx)
}
