package counter

import (
	"context"
	"errors"
	"math/big"
	"testing"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/cnf"
	"vacsem/internal/testutil"
)

// parityFormula encodes a parity cone over n inputs: the count is
// 2^(n-1) (odd-parity patterns), the support is all n inputs, and every
// residual component is a pure XOR system the Gauss path counts in
// closed form — so wide supports stay cheap to probe.
func parityFormula(t *testing.T, n int) *cnf.Formula {
	t.Helper()
	c := circuit.New("parity")
	for i := 0; i < n; i++ {
		c.AddInput("")
	}
	par := c.Inputs[0]
	for _, in := range c.Inputs[1:] {
		par = c.AddGate(circuit.Xor, par, in)
	}
	c.SetOutputs(par)
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestApproxSparseCrossValidation: the sparse hash schedule must
// estimate within the ε band of the exact count on 30 seeded circuits.
func TestApproxSparseCrossValidation(t *testing.T) {
	const trials = 30
	const eps = 0.8
	hashed := 0
	for seed := int64(0); seed < trials; seed++ {
		c := testutil.RandomCircuit(6+int(seed%11), 12+int(seed*5%40), 1, seed+1717)
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
		if r.Exact {
			if r.Count.Cmp(want) != 0 {
				t.Fatalf("seed %d: exact-path %v != %v", seed, r.Count, want)
			}
			continue
		}
		hashed++
		if !withinEpsilon(r.Count, want, eps) {
			t.Errorf("seed %d: %v outside (1+%g) band of %v", seed, r.Count, eps, want)
		}
		if r.HashDensity <= 0 || r.HashDensity > 0.5 {
			t.Errorf("seed %d: reported mean density %g out of range", seed, r.HashDensity)
		}
	}
	if hashed < trials/2 {
		t.Errorf("only %d hashed trials across %d circuits", hashed, trials)
	}
}

// TestApproxSparseWideSupport: on a 64-input support the auto schedule
// must actually go sparse (well below 0.5 mean density) and still land
// in the band.
func TestApproxSparseWideSupport(t *testing.T) {
	f := parityFormula(t, 64)
	want := new(big.Int).Lsh(big.NewInt(1), 63)
	r, err := ApproxCount(context.Background(), f, ApproxConfig{
		Epsilon: 0.8, Delta: 0.2, Seed: 5, Rounds: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Exact {
		t.Fatalf("64-input parity took the exact path (count %v)", r.Count)
	}
	if r.HashDensity >= 0.35 {
		t.Errorf("auto schedule stayed dense on 64-var support: mean density %g", r.HashDensity)
	}
	if !withinEpsilon(r.Count, want, 0.8) {
		t.Errorf("sparse estimate %v outside band of %v", r.Count, want)
	}
}

// TestApproxProbeCacheReuse: a second run over a content-identical
// formula with the same seed answers every probe from the shared cache
// and returns the identical estimate; running without the cache also
// returns the identical estimate (sharing never changes results).
func TestApproxProbeCacheReuse(t *testing.T) {
	c := testutil.RandomCircuit(12, 30, 1, 9090)
	par := c.Inputs[0]
	for _, in := range c.Inputs[1:] {
		par = c.AddGate(circuit.Xor, par, in)
	}
	c.SetOutputs(c.AddGate(circuit.Or, c.Outputs[0], par))
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	pc := NewProbeCache(0)
	cfg := ApproxConfig{Epsilon: 0.8, Delta: 0.2, Seed: 11, Rounds: 5, Probes: pc}
	a, err := ApproxCount(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Exact {
		t.Skip("circuit hit the exact shortcut; cache path not exercised")
	}
	if a.Stats.ApproxProbesReused != 0 {
		t.Errorf("first run reported %d reused probes", a.Stats.ApproxProbesReused)
	}
	b, err := ApproxCount(context.Background(), f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if b.Count.Cmp(a.Count) != 0 {
		t.Errorf("cached rerun changed the estimate: %v vs %v", b.Count, a.Count)
	}
	if b.Stats.ApproxProbesReused != b.Stats.ApproxProbes || b.Stats.ApproxProbes == 0 {
		t.Errorf("rerun reused %d of %d probes, want all", b.Stats.ApproxProbesReused, b.Stats.ApproxProbes)
	}
	if pc.Hits() == 0 || pc.Len() == 0 {
		t.Errorf("probe cache saw no traffic: len=%d hits=%d", pc.Len(), pc.Hits())
	}
	nocache := cfg
	nocache.Probes = nil
	d, err := ApproxCount(context.Background(), f, nocache)
	if err != nil {
		t.Fatal(err)
	}
	if d.Count.Cmp(a.Count) != 0 {
		t.Errorf("cache changed the estimate: without %v, with %v", d.Count, a.Count)
	}
}

// TestApproxEarlyExitPinnedMedian: when one estimate value reaches a
// majority of the scheduled rounds, the remaining rounds cannot move
// the median and the loop stops. A parity cone yields the same estimate
// every round, so a 9-round schedule must stop after 5.
func TestApproxEarlyExitPinnedMedian(t *testing.T) {
	f := parityFormula(t, 12)
	want := new(big.Int).Lsh(big.NewInt(1), 11)
	full, err := ApproxCount(context.Background(), f, ApproxConfig{
		Epsilon: 0.8, Delta: 0.2, Seed: 21, Rounds: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Exact {
		t.Fatalf("parity-12 took the exact path")
	}
	if full.Rounds >= 9 {
		t.Errorf("no early exit: ran all %d rounds", full.Rounds)
	}
	if !withinEpsilon(full.Count, want, 0.8) {
		t.Errorf("estimate %v outside band of %v", full.Count, want)
	}
}

// pollCtx is a deterministic deadline: Err() reports expiry after a
// fixed number of polls, so the best-effort descent can be driven
// without wall-clock flakiness. (The solver polls Err() every 1024
// abort checks.)
type pollCtx struct {
	done  chan struct{}
	calls int
	limit int
}

func (p *pollCtx) Deadline() (time.Time, bool) { return time.Time{}, false }
func (p *pollCtx) Done() <-chan struct{}       { return p.done }
func (p *pollCtx) Value(key any) any           { return nil }
func (p *pollCtx) Err() error {
	p.calls++
	if p.calls > p.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestApproxBestEffortDeadline: a deadline that expires mid-run returns
// the median over the completed rounds with a widened δ instead of an
// error — and with zero completed rounds the error propagates.
func TestApproxBestEffortDeadline(t *testing.T) {
	c := testutil.RandomCircuit(16, 48, 1, 6161)
	par := c.Inputs[0]
	for _, in := range c.Inputs[1:] {
		par = c.AddGate(circuit.Xor, par, in)
	}
	c.SetOutputs(c.AddGate(circuit.Or, c.Outputs[0], par))
	f, err := cnf.Encode(c)
	if err != nil {
		t.Fatal(err)
	}
	const scheduled = 33 // delta 0.05
	sawBestEffort := false
	for _, limit := range []int{0, 1, 2, 4, 8, 16, 32, 64, 128, 256} {
		ctx := &pollCtx{done: make(chan struct{}), limit: limit}
		r, err := ApproxCount(ctx, f, ApproxConfig{Epsilon: 0.8, Delta: 0.05, Seed: 2})
		if err != nil {
			// Deadline before the first round completed: a hard error,
			// and it must be the deadline, not something else.
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("limit %d: unexpected error %v", limit, err)
			}
			continue
		}
		if !r.BestEffort {
			if r.Rounds == scheduled || r.Exact || r.Rounds > 0 {
				continue // deadline never fired (or median pinned early)
			}
			t.Fatalf("limit %d: non-best-effort result with %d rounds", limit, r.Rounds)
		}
		sawBestEffort = true
		if r.Rounds < 1 || r.Rounds >= scheduled {
			t.Errorf("limit %d: best-effort over %d rounds", limit, r.Rounds)
		}
		if r.Delta < 0.05 {
			t.Errorf("limit %d: best-effort delta %g not widened", limit, r.Delta)
		}
		if r.Count == nil || r.Count.Sign() <= 0 {
			t.Errorf("limit %d: best-effort count %v", limit, r.Count)
		}
	}
	if !sawBestEffort {
		t.Error("no poll limit produced a best-effort result; adjust the limits")
	}
}

// TestApproxRoundsLogSpaceSchedule pins the δ-derived schedule at tiny
// δ: the log-space binomial tail keeps the exact schedule where a
// linear-space sum would saturate or underflow.
func TestApproxRoundsLogSpaceSchedule(t *testing.T) {
	for _, tc := range []struct {
		delta float64
		want  int
	}{
		{0.2, 9}, {0.05, 33}, {1e-3, 117}, {1e-6, 277}, {1e-9, 441},
	} {
		if got := ApproxRounds(tc.delta); got != tc.want {
			t.Errorf("rounds(%g) = %d, want %d", tc.delta, got, tc.want)
		}
	}
	// Spot values of the tail itself (reference: exact rational
	// evaluation of P[Bin(n, 0.36) >= k]).
	for _, tc := range []struct {
		n, k int
		want float64
	}{
		{9, 5, 0.18903595748032517},
		{33, 17, 0.049065608296631133},
		{117, 59, 0.00097631919492149498},
		{1, 1, 0.36},
	} {
		got := binomialTail(tc.n, 0.36, tc.k)
		if diff := got/tc.want - 1; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("tail(%d, 0.36, %d) = %.17g, want %.17g", tc.n, tc.k, got, tc.want)
		}
	}
	// Degenerate bounds.
	if got := binomialTail(5, 0.36, 0); got != 1 {
		t.Errorf("tail k<=0 = %g, want 1", got)
	}
	if got := binomialTail(5, 0.36, 6); got != 0 {
		t.Errorf("tail k>n = %g, want 0", got)
	}
}
