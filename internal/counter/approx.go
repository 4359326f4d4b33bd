package counter

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"

	"vacsem/internal/cnf"
	"vacsem/internal/obs"
)

// (ε, δ) approximate model counting by XOR streamlining + cell counting
// (the ApproxMC algorithm family): random parity constraints over a
// sampling set partition the solution space into hash cells, a cell
// small enough to count exactly is counted exactly — by simulating its
// affine input subspace (cell.go) when the controller accepts it, else
// with the Gauss-aware DPLL engine — and the cell count scaled by the
// number of cells estimates the total. The median over independent
// rounds gives
//
//	Pr[ count/(1+ε) <= estimate <= (1+ε)*count ] >= 1-δ.
//
// The hash rows of one round satisfy the prefix property — row i is
// sampled once and the round uses its first m rows — so the cell count
// is monotone nonincreasing in m and the right cell granularity is
// found by walking one row at a time from the previous round's boundary.
//
// Three scaling mechanisms sit on top of the base scheme:
//
//  1. Sparse hash rows. Instead of including every sampling variable
//     with probability 1/2, row i draws each variable with a density
//     d_i scheduled by the row's position: early rows (few cells, the
//     whole space) stay dense, later rows — the ones a large count
//     actually activates — decay toward a (log2 n + 4)/n floor. Sparse
//     rows keep Gauss–Jordan and watched-XOR propagation cheap and,
//     crucially, stop the hash from fusing the residual formula into
//     one giant component, so component decomposition and caching keep
//     working as m grows (the sparse-hash refinements of the ApproxMC
//     line are the template).
//  2. Independent-support minimization (support.go): the sampling set
//     is shrunk below the primary inputs before any probe runs, so the
//     hash width — and with it every probe — gets cheaper.
//  3. Budgeted probe schedules: the boundary walk starts from the
//     previous round's boundary and memoizes its probes within a round;
//     the zero-row cell (the unhashed formula, the only cell that can
//     recur across rounds, since every round draws fresh rows) is counted
//     once per call; rounds stop as soon as the median is pinned; and a
//     deadline mid-descent returns a best-effort estimate over the
//     completed rounds with an honestly widened δ instead of a timeout.
var (
	mApproxRounds  = obs.Default.Counter("counter.approx_rounds")
	mApproxProbes  = obs.Default.Counter("counter.approx_probes")
	mProbesReused  = obs.Default.Counter("approx.probes_reused")
	hRowDensity    = obs.Default.Histogram("approx.hash_row_density", []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5})
	hSupportBefore = obs.Default.Histogram("approx.support_before", nil)
	hSupportAfter  = obs.Default.Histogram("approx.support_after", nil)
)

// The ApproxMC default guarantee ApproxCount resolves a zero Epsilon
// or Delta to. Layers that compare guarantees (the cone store) resolve
// with the same constants.
const (
	DefaultEpsilon = 0.8
	DefaultDelta   = 0.2
)

// ApproxConfig tunes ApproxCount. The zero value uses the ApproxMC
// defaults ε=0.8, δ=0.2 over all formula variables.
type ApproxConfig struct {
	// Epsilon is the multiplicative tolerance (0 means DefaultEpsilon).
	Epsilon float64
	// Delta is the failure probability (0 means DefaultDelta).
	Delta float64
	// Seed makes the XOR sampling deterministic; runs with the same
	// seed, formula, and parameters return the same estimate. Rows are a
	// pure function of (Seed, round, row index, support rank), so no
	// generator state leaks between rounds, calls or worker schedules.
	Seed int64
	// Rounds overrides the δ-derived round count when positive (tests
	// use 1-5 rounds to stay fast; the guarantee then no longer follows
	// from Delta).
	Rounds int
	// Sampling is the hash support: the variables the random parity
	// rows range over. It must be an independent support of the formula
	// (every model is uniquely determined by its projection onto the
	// set), e.g. the encoded primary inputs of a Tseitin formula. Nil
	// means all variables, which is always sound. ApproxCount shrinks
	// the set with MinimizeSupport before the first probe.
	Sampling []int32
	// Solver configures the exact engine used for cell counting. With
	// Solver.EnableSim, a cell of an encoded circuit cone that
	// Solver.SimVerdict accepts is simulated instead (cell.go). A nil
	// Solver.Cache is replaced by one private cache shared across all
	// probes of the call (content keys make that sound).
	Solver Config
}

// ApproxResult is the outcome of one ApproxCount call.
type ApproxResult struct {
	// Count estimates the number of models.
	Count *big.Int
	// Epsilon and Delta echo the effective tolerance parameters. When
	// BestEffort is set, Delta is the widened failure probability over
	// the rounds that completed before the deadline.
	Epsilon, Delta float64
	// Exact reports that the formula (or some hash cell at zero rows)
	// was counted exactly: the estimate carries no hashing error.
	Exact bool
	// BestEffort reports that the context deadline expired mid-run and
	// Count is the median over the completed rounds only: the (1+ε)
	// band is unchanged but holds with the widened Delta.
	BestEffort bool
	// Rounds is the number of estimation rounds performed.
	Rounds int
	// Pivot is the cell-size threshold ⌈9.84(1+ε/(1+ε))(1+1/ε)²⌉.
	Pivot int64
	// SupportBefore and SupportAfter are the sampling-set sizes around
	// independent-support minimization (equal when it found nothing to
	// drop).
	SupportBefore, SupportAfter int
	// HashDensity is the mean row density of the last round's hash rows.
	HashDensity float64
	// Stats aggregates the exact-engine work across all probes.
	Stats Stats
}

// ApproxPivot returns the ApproxMC cell-size threshold for ε.
func ApproxPivot(epsilon float64) int64 {
	return int64(math.Ceil(9.84 * (1 + epsilon/(1+epsilon)) * (1 + 1/epsilon) * (1 + 1/epsilon)))
}

// ApproxRounds returns the δ-derived number of estimation rounds: the
// smallest odd t such that the median over t rounds — each of which
// lands outside the (1+ε) band with probability at most 0.36, the
// ApproxMC per-round bound at this pivot — fails with probability at
// most δ. The failure probability is the exact binomial tail
// P[Bin(t, 0.36) >= (t+1)/2], which is far tighter than the classical
// ⌈17·log2(3/δ)⌉ schedule (9 rounds instead of 67 at δ=0.2, 33 instead
// of 101 at δ=0.05).
func ApproxRounds(delta float64) int {
	for t := 1; ; t += 2 {
		if binomialTail(t, 0.36, (t+1)/2) <= delta || t >= 1001 {
			return t
		}
	}
}

// binomialTail returns P[Bin(n, p) >= k]. The sum is anchored at its
// largest term in log space — every later term accumulates as a ratio
// to it — so tiny tails come out exact instead of saturating on
// per-term exp underflow (δ ≤ 1e-6 schedules need tails down to the
// underflow boundary as t grows).
func binomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n {
		return 0
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	logC := 0.0 // log C(n, k)
	for i := 0; i < k; i++ {
		logC += math.Log(float64(n-i)) - math.Log(float64(i+1))
	}
	logAnchor := logC + float64(k)*lp + float64(n-k)*lq
	// Accumulate terms relative to the anchor; for the median schedules
	// (k above the mode) the anchor is the maximum and every ratio < 1,
	// so the relative sum neither over- nor underflows.
	sum, rel := 0.0, 1.0
	for i := k; i <= n; i++ {
		sum += rel
		rel *= float64(n-i) / float64(i+1) * (p / (1 - p))
	}
	return math.Exp(logAnchor + math.Log(sum))
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// rowHash draws a uniform 64-bit value for one (seed, round, row, slot)
// coordinate. It is a pure function of its arguments — no sequential
// generator state — so hash rows are identical wherever the same
// coordinates recur: across rounds, worker schedules, and content-
// identical tasks of one session.
func rowHash(seed uint64, round, row, slot int) uint64 {
	z := mix64(seed ^ 0xa0761d6478bd642f)
	z = mix64(z ^ (uint64(round)+1)*0x9e3779b97f4a7c15)
	z = mix64(z ^ (uint64(row)+1)*0xd1342543de82ef95)
	return mix64(z ^ (uint64(slot)+1)*0x2545f4914f6cdd1d)
}

// rowDensity returns the variable-inclusion probability of hash row i
// over an n-variable support. The schedule starts dense — the first
// rows cut the whole space and need full mixing — and decays
// geometrically to a floor that keeps the expected row width at
// log2(n)+4 variables, the sparse-hash regime in which per-cell
// concentration still holds with the pivot's slack.
func rowDensity(i, n int) float64 {
	if n <= 1 {
		return 0.5
	}
	floor := (math.Log2(float64(n)) + 4) / float64(n)
	if floor >= 0.5 {
		return 0.5
	}
	d := 0.5 * math.Pow(0.9, float64(i))
	if d < floor {
		d = floor
	}
	return d
}

// sampleRows draws the n hash rows of one round over the support,
// returning the rows and their mean density. Row i includes the support
// variable of rank r iff rowHash(seed, round, i, r) clears the density
// threshold; a row that comes out empty (possible at floor density)
// deterministically keeps one variable so it still halves the space
// instead of poisoning every later prefix with a 0=1 contradiction.
func sampleRows(seed uint64, round int, support []int32) ([]cnf.XorClause, float64) {
	n := len(support)
	rows := make([]cnf.XorClause, n)
	densitySum := 0.0
	for i := range rows {
		d := rowDensity(i, n)
		densitySum += d
		hRowDensity.Observe(d)
		threshold := uint64(d * math.MaxUint64)
		var vars []int32
		for r, v := range support {
			if rowHash(seed, round, i, r) <= threshold {
				vars = append(vars, v)
			}
		}
		if len(vars) == 0 {
			vars = append(vars, support[rowHash(seed, round, i, n)%uint64(n)])
		}
		rows[i] = cnf.XorClause{Vars: vars, Rhs: rowHash(seed, round, i, n+1)&1 == 1}
	}
	return rows, densitySum / float64(n)
}

// ApproxCount estimates the model count of f within multiplicative
// tolerance (1+ε) with confidence 1-δ. Formulas whose count does not
// exceed the pivot are counted exactly (Exact is set and the guarantee
// is vacuous). The context cancels the underlying exact counts; if its
// deadline expires after at least one full round, the median over the
// completed rounds is returned as a BestEffort result with a widened δ
// instead of an error.
func ApproxCount(ctx context.Context, f *cnf.Formula, cfg ApproxConfig) (*ApproxResult, error) {
	eps := cfg.Epsilon
	if eps == 0 {
		eps = DefaultEpsilon
	}
	delta := cfg.Delta
	if delta == 0 {
		delta = DefaultDelta
	}
	if eps <= 0 || delta <= 0 || delta >= 1 {
		return nil, fmt.Errorf("counter: approx needs epsilon > 0 and 0 < delta < 1, got %g/%g", eps, delta)
	}
	rounds := cfg.Rounds
	if rounds <= 0 {
		rounds = ApproxRounds(delta)
	}
	pivot := ApproxPivot(eps)
	res := &ApproxResult{Epsilon: eps, Delta: delta, Pivot: pivot}

	sampling := cfg.Sampling
	if sampling == nil {
		sampling = make([]int32, f.NumVars)
		for i := range sampling {
			sampling[i] = int32(i + 1)
		}
	} else {
		// Hash rows list their variables in sampling order; keep the
		// canonical (sorted) row invariant regardless of caller order.
		sampling = append([]int32(nil), sampling...)
		slices.Sort(sampling)
	}
	res.SupportBefore = len(sampling)
	sampling = MinimizeSupport(f, sampling)
	res.SupportAfter = len(sampling)
	res.Stats.SupportBefore = uint64(res.SupportBefore)
	res.Stats.SupportAfter = uint64(res.SupportAfter)
	hSupportBefore.Observe(float64(res.SupportBefore))
	hSupportAfter.Observe(float64(res.SupportAfter))

	solverCfg := cfg.Solver
	if solverCfg.Cache == nil && !solverCfg.DisableCache {
		// One content-keyed cache shared by every probe: residual
		// components that do not touch a hash row recur across cells.
		solverCfg.Cache = NewCache(0, 0)
	}
	bigPivot := big.NewInt(pivot)
	cells := newCellSim(f, solverCfg)

	// count returns the exact model count of f streamlined with the
	// given hash rows, accumulating engine stats into the result. Every
	// round draws fresh rows, so the zero-row cell is the only one that
	// recurs across rounds: it is counted once and answered from then on.
	var zero *big.Int
	count := func(rows []cnf.XorClause) (*big.Int, error) {
		mApproxProbes.Inc()
		res.Stats.ApproxProbes++
		if len(rows) == 0 && zero != nil {
			mProbesReused.Inc()
			res.Stats.ApproxProbesReused++
			return zero, nil
		}
		c, st, err := countCell(ctx, f, cells, solverCfg, rows)
		res.Stats.Add(st)
		if err == nil && len(rows) == 0 {
			zero = c
		}
		return c, err
	}

	n := len(sampling)
	if n == 0 {
		c, err := count(nil)
		if err != nil {
			return nil, err
		}
		res.Count, res.Exact, res.Rounds = c, true, 0
		return res, nil
	}

	var estimates []*big.Int
	// bestEffort shapes the deadline-expiry descent: with at least one
	// completed round the median over them is still a valid estimate —
	// the (1+ε) band is per round — only the confidence drops to the
	// exact binomial tail over the rounds that ran.
	bestEffort := func(err error) (*ApproxResult, error) {
		if !errors.Is(err, context.DeadlineExceeded) || len(estimates) == 0 {
			return nil, err
		}
		t := len(estimates)
		widened := binomialTail(t, 0.36, (t+1)/2)
		if widened > res.Delta {
			res.Delta = widened
		}
		slices.SortFunc(estimates, (*big.Int).Cmp)
		res.Count = estimates[t/2]
		res.Rounds = t
		res.BestEffort = true
		return res, nil
	}
	seed := mix64(uint64(cfg.Seed))
	tally := make(map[string]int) // estimate value -> multiplicity, for the median pin
	prevM := -1                   // boundary of the previous round, -1 = none yet
	for r := 0; r < rounds; r++ {
		mApproxRounds.Inc()
		// Sample the round's n hash rows once (prefix property).
		rows, meanDensity := sampleRows(seed, r, sampling)
		res.HashDensity = meanDensity
		// Smallest m with cellCount(m) <= pivot; counts are monotone
		// nonincreasing in m, so the boundary is well defined and any
		// search path lands on the same m — what the path chooses is
		// which cells it has to count on the way. This walk only ever
		// probes cells adjacent to the boundary (at most a couple of
		// pivots big, so each exact count is cheap): it starts from the
		// previous round's boundary — which rarely moves — or from
		// m = n on the first round, where the formula is maximally
		// constrained, and steps one row at a time. A bisection over
		// [0, n] would instead probe low-m cells holding a large
		// fraction of all models; on wide supports a single such probe
		// costs close to a full exact count, which is exactly the work
		// this backend exists to avoid.
		probes := make(map[int]*big.Int)
		cellAt := func(m int) (*big.Int, error) {
			if c, ok := probes[m]; ok {
				return c, nil
			}
			c, err := count(rows[:m])
			if err != nil {
				return nil, err
			}
			probes[m] = c
			return c, nil
		}
		m := prevM
		if m < 0 || m > n {
			m = n
		}
		c, err := cellAt(m)
		if err != nil {
			return bestEffort(err)
		}
		for c.Cmp(bigPivot) > 0 && m < n {
			m++
			if c, err = cellAt(m); err != nil {
				return bestEffort(err)
			}
		}
		for m > 0 {
			below, err := cellAt(m - 1)
			if err != nil {
				return bestEffort(err)
			}
			if below.Cmp(bigPivot) > 0 {
				break
			}
			m, c = m-1, below
		}
		prevM = m
		if m == 0 {
			// The whole formula fits under the pivot: exact, no median
			// needed.
			res.Count, res.Exact, res.Rounds = c, true, r+1
			return res, nil
		}
		est := new(big.Int).Lsh(c, uint(m))
		estimates = append(estimates, est)
		// Median pin: once one value holds a majority of ALL scheduled
		// rounds, the median over the full schedule is that value no
		// matter how the remaining rounds would land — stop probing.
		// The early exit is value-identical to running every round, so
		// Delta is untouched.
		key := est.String()
		tally[key]++
		if tally[key] >= (rounds+1)/2 && r+1 < rounds {
			res.Count = est
			res.Rounds = r + 1
			return res, nil
		}
	}
	slices.SortFunc(estimates, (*big.Int).Cmp)
	res.Count = estimates[len(estimates)/2]
	res.Rounds = rounds
	return res, nil
}

// countCell counts the models of f ∧ rows: by simulating the cell's
// affine input subspace when cells (nil when f has no circuit cone to
// simulate) accepts it, else with a fresh DPLL Solver over f plus the
// rows.
func countCell(ctx context.Context, f *cnf.Formula, cells *cellSim, solverCfg Config, rows []cnf.XorClause) (*big.Int, Stats, error) {
	if cells != nil {
		if c, st, ok, err := cells.count(ctx, solverCfg, rows); ok {
			return c, st, err
		}
	}
	g := *f
	g.Xors = make([]cnf.XorClause, 0, len(f.Xors)+len(rows))
	g.Xors = append(g.Xors, f.Xors...)
	g.Xors = append(g.Xors, rows...)
	g.GateOfXor = make([]int32, len(f.GateOfXor), len(f.GateOfXor)+len(rows))
	copy(g.GateOfXor, f.GateOfXor)
	for range rows {
		g.GateOfXor = append(g.GateOfXor, -1)
	}
	s := New(&g, solverCfg)
	c, err := s.Count(ctx)
	return c, s.Stats(), err
}
