// Package als generates approximate versions of exact circuits — the
// role played by the ALSRAC flow [16] in the paper's experimental setup.
//
// Approximate implements a greedy simulation-guided approximate logic
// synthesis: candidate local substitutions (replace a gate by a constant
// or by an existing earlier signal) are scored with word-parallel random
// simulation against the exact circuit, and accepted while the estimated
// error rate stays within the configured budget. Every node's signature
// is kept across candidates (sim.Resim): a candidate re-simulates only
// the rewritten gate's transitive fanout, until the change dies out, and
// an accepted one is committed rather than re-simulated. Runs are
// deterministic in the seed, so benchmark circuits are reproducible.
//
// The package also provides the classic structured approximations used
// throughout the approximate-arithmetic literature: lower-OR adders and
// truncated multipliers, whose error characteristics are well understood.
package als

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"vacsem/internal/circuit"
	"vacsem/internal/gen"
	"vacsem/internal/sim"
)

// Config tunes Approximate. The zero value is completed with defaults.
type Config struct {
	// Seed drives all randomness (candidate order and simulation
	// patterns). Different seeds give different approximate circuits.
	Seed int64
	// TargetER is the error-rate budget estimated by simulation
	// (default 0.01).
	TargetER float64
	// Words is the number of 64-pattern simulation words used for error
	// estimation (default 256, i.e. 16384 patterns).
	Words int
	// MaxMoves caps the number of accepted substitutions (default 8).
	MaxMoves int
	// Tries caps the number of candidate substitutions examined per move
	// (default 64).
	Tries int
	// RequireError, when set, keeps searching until the result has a
	// strictly positive estimated error rate (an equivalent "approximate"
	// circuit is useless as a verification workload). When no
	// error-introducing substitution fits the budget, the budget is
	// progressively relaxed.
	RequireError bool
}

func (c Config) withDefaults() Config {
	if c.TargetER == 0 {
		c.TargetER = 0.01
	}
	if c.Words == 0 {
		c.Words = 256
	}
	if c.MaxMoves == 0 {
		c.MaxMoves = 8
	}
	if c.Tries == 0 {
		c.Tries = 64
	}
	return c
}

// Approximate derives an approximate circuit from the exact circuit under
// the configured error budget. The returned circuit has the same
// input/output interface. When no substitution fits the budget the exact
// circuit is returned unchanged (ER = 0).
func Approximate(exact *circuit.Circuit, cfg Config) *circuit.Circuit {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	vectors := sim.RandomVectors(exact.NumInputs(), cfg.Words, rng)

	cur := exact.Clone()
	cur.Name = fmt.Sprintf("%s_approx_s%d", exact.Name, cfg.Seed)
	sc := newScorer(cur, vectors, cfg.Words)
	moves := 0
	for moves < cfg.MaxMoves {
		totalPatterns := cfg.Words * 64
		maxDiff := int(cfg.TargetER * float64(totalPatterns) * 4)
		if maxDiff < 1 {
			maxDiff = 1
		}
		applied := false
		for try := 0; try < cfg.Tries && !applied; try++ {
			// Pick a target gate (never an input or the constant).
			id := 1 + rng.Intn(cur.NumNodes()-1)
			nd := &cur.Nodes[id]
			if !nd.Kind.IsGate() || nd.Kind == circuit.Buf {
				continue
			}
			// Search sampled earlier nodes (and the constants) for the
			// replacement with the smallest positive signature distance.
			bestRepl, bestNeg, bestDist := -1, false, totalPatterns+1
			// Per-node signatures guide the search (the "resubstitution
			// with approximate care set" idea of ALSRAC): a replacement
			// whose signature differs from the target node on d out of N
			// patterns changes each output on at most d patterns.
			// consider weighs h, then its complement.
			consider := func(h int) {
				d, agree := sigDistance(sc.resim.Sig(id), sc.resim.Sig(h), bestDist)
				if d > 0 && d < bestDist {
					bestRepl, bestNeg, bestDist = h, false, d
				}
				if agree > 0 && agree < bestDist {
					bestRepl, bestNeg, bestDist = h, true, agree
				}
			}
			consider(0) // const0, then const1
			samples := 48
			if id < samples {
				for h := 1; h < id; h++ {
					consider(h)
				}
			} else {
				for s := 0; s < samples; s++ {
					consider(1 + rng.Intn(id-1))
				}
			}
			if bestRepl < 0 || bestDist > maxDiff {
				continue
			}
			oldKind, oldFanins := nd.Kind, nd.Fanins
			if bestNeg {
				nd.Kind = circuit.Not
			} else {
				nd.Kind = circuit.Buf
			}
			nd.Fanins = []int{bestRepl}
			if er := sc.try(id, cfg.TargetER); er <= cfg.TargetER {
				sc.commit()
				applied = true
				moves++
				break
			}
			nd.Kind = oldKind
			nd.Fanins = oldFanins
		}
		if !applied {
			break
		}
	}
	if cfg.RequireError {
		budget := cfg.TargetER
		for round := 0; round < 8 && sc.er == 0; round++ {
			if !forceErrorMove(cur, rng, sc, budget) {
				budget *= 2 // relax and retry
			}
		}
	}
	return cur
}

// forceErrorMove applies one substitution that introduces a strictly
// positive estimated error within the budget. Reports whether a move was
// applied.
func forceErrorMove(cur *circuit.Circuit, rng *rand.Rand, sc *scorer, budget float64) bool {
	for try := 0; try < 200; try++ {
		id := 1 + rng.Intn(cur.NumNodes()-1)
		nd := &cur.Nodes[id]
		if !nd.Kind.IsGate() {
			continue
		}
		repl := 0
		if rng.Intn(2) == 0 && id > 1 {
			repl = 1 + rng.Intn(id-1)
		}
		oldKind, oldFanins := nd.Kind, nd.Fanins
		nd.Kind = circuit.Buf
		nd.Fanins = []int{repl}
		if er := sc.try(id, budget); er > 0 && er <= budget {
			sc.commit()
			return true
		}
		nd.Kind = oldKind
		nd.Fanins = oldFanins
	}
	return false
}

// sigDistance counts the patterns on which sig and repl differ (d) and
// agree (agree, the distance to repl's complement). The caller only asks
// whether either stays below limit, so the count stops early once both
// have reached it.
func sigDistance(sig, repl []uint64, limit int) (d, agree int) {
	repl = repl[:len(sig)]
	for w := range sig {
		d += bits.OnesCount64(sig[w] ^ repl[w])
		if agree = 64*(w+1) - d; d >= limit && agree >= limit {
			break
		}
	}
	return d, agree
}

// scorer estimates the error rate of the circuit being approximated, and
// of each single-gate rewrite of it, against the exact circuit's output
// signatures on the same input vectors. Each rewrite is re-simulated
// incrementally by a sim.Resim over the circuit's kept signatures.
type scorer struct {
	resim   *sim.Resim
	outputs []int
	refOut  [][]uint64 // the exact circuit's output signatures
	out     [][]uint64 // scratch: the rewrite's output signatures
	words   int
	// er is the kept circuit's error rate (0 while it equals the exact
	// one), cand the last tried rewrite's.
	er, cand float64
}

// newScorer keeps the signatures of cur, still equal to the exact
// circuit, and copies its output signatures as the reference.
func newScorer(cur *circuit.Circuit, vectors [][]uint64, words int) *scorer {
	sc := &scorer{
		resim:   sim.NewResim(cur, vectors, words),
		outputs: cur.Outputs,
		refOut:  make([][]uint64, len(cur.Outputs)),
		out:     make([][]uint64, len(cur.Outputs)),
		words:   words,
	}
	for j, o := range cur.Outputs {
		sc.refOut[j] = slices.Clone(sc.resim.Sig(o))
	}
	return sc
}

// try re-simulates the circuit after the caller rewrote gate id and
// returns the rewritten circuit's estimated error rate. Past limit the
// estimate may stop early, at a rate that already exceeds limit.
func (sc *scorer) try(id int, limit float64) float64 {
	sc.resim.Update(id)
	sc.cand = sc.errorRate(limit)
	return sc.cand
}

// commit keeps the last tried rewrite, which the circuit still holds.
func (sc *scorer) commit() {
	sc.resim.Commit()
	sc.er = sc.cand
}

// errorRate is the share of the words*64 simulated patterns on which
// some output of the last tried rewrite differs from the reference. It
// returns the share counted so far once that exceeds limit.
func (sc *scorer) errorRate(limit float64) float64 {
	for j, o := range sc.outputs {
		sc.out[j] = sc.resim.Cand(o)
	}
	total := float64(sc.words * 64)
	errCnt := 0
	for w := 0; w < sc.words; w++ {
		var diff uint64
		for j, out := range sc.out {
			diff |= out[w] ^ sc.refOut[j][w]
		}
		errCnt += bits.OnesCount64(diff)
		if w%8 == 7 && float64(errCnt)/total > limit {
			break
		}
	}
	return float64(errCnt) / total
}

// LowerORAdder builds the classic LOA approximate adder: the low k result
// bits are computed as a_i OR b_i (no carry chain), the upper part is an
// exact ripple adder with carry-in generated from a_{k-1} AND b_{k-1}.
// Interface matches gen.RippleCarryAdder(n).
func LowerORAdder(n, k int) *circuit.Circuit {
	if k < 0 || k > n {
		panic("als: LowerORAdder needs 0 <= k <= n")
	}
	c := circuit.New(fmt.Sprintf("loa%d_%d", n, k))
	a := gen.InputBus(c, "a", n)
	b := gen.InputBus(c, "b", n)
	sum := make(gen.Bus, n+1)
	for i := 0; i < k; i++ {
		sum[i] = c.AddGate(circuit.Or, a[i], b[i])
	}
	carry := 0
	if k > 0 {
		carry = c.AddGate(circuit.And, a[k-1], b[k-1])
	}
	hi, cout := gen.RippleAdd(c, a[k:], b[k:], carry)
	copy(sum[k:], hi)
	sum[n] = cout
	gen.OutputBus(c, "s", sum)
	return c
}

// TruncatedAdder builds an adder whose low k sum bits are forced to zero
// and whose carry chain starts at bit k (pure truncation).
func TruncatedAdder(n, k int) *circuit.Circuit {
	if k < 0 || k > n {
		panic("als: TruncatedAdder needs 0 <= k <= n")
	}
	c := circuit.New(fmt.Sprintf("truncadder%d_%d", n, k))
	a := gen.InputBus(c, "a", n)
	b := gen.InputBus(c, "b", n)
	sum := make(gen.Bus, n+1)
	for i := 0; i < k; i++ {
		sum[i] = 0
	}
	hi, cout := gen.RippleAdd(c, a[k:], b[k:], 0)
	copy(sum[k:], hi)
	sum[n] = cout
	gen.OutputBus(c, "s", sum)
	return c
}

// TruncatedMultiplier builds an n x n multiplier that discards all
// partial products in the k least significant columns (the truncated
// multiplier of the approximate-arithmetic literature). Interface matches
// gen.ArrayMultiplier(n).
func TruncatedMultiplier(n, k int) *circuit.Circuit {
	if k < 0 || k > 2*n {
		panic("als: TruncatedMultiplier needs 0 <= k <= 2n")
	}
	c := circuit.New(fmt.Sprintf("truncmult%d_%d", n, k))
	a := gen.InputBus(c, "a", n)
	b := gen.InputBus(c, "b", n)
	// Column accumulation, skipping columns < k.
	cols := make([][]int, 2*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i+j < k {
				continue
			}
			cols[i+j] = append(cols[i+j], c.AddGate(circuit.And, a[i], b[j]))
		}
	}
	out := make(gen.Bus, 2*n)
	carryIn := []int{}
	for col := 0; col < 2*n; col++ {
		bitsHere := append(carryIn, cols[col]...)
		carryIn = nil
		for len(bitsHere) >= 3 {
			s, co := addFull(c, bitsHere[0], bitsHere[1], bitsHere[2])
			bitsHere = append(bitsHere[3:], s)
			carryIn = append(carryIn, co)
		}
		switch len(bitsHere) {
		case 0:
			out[col] = 0
		case 1:
			out[col] = bitsHere[0]
		case 2:
			s, co := addHalf(c, bitsHere[0], bitsHere[1])
			out[col] = s
			carryIn = append(carryIn, co)
		}
	}
	gen.OutputBus(c, "p", out)
	return c
}

func addFull(c *circuit.Circuit, a, b, d int) (int, int) {
	x := c.AddGate(circuit.Xor, a, b)
	return c.AddGate(circuit.Xor, x, d), c.AddGate(circuit.Maj, a, b, d)
}

func addHalf(c *circuit.Circuit, a, b int) (int, int) {
	return c.AddGate(circuit.Xor, a, b), c.AddGate(circuit.And, a, b)
}

// SuiteApproximations returns `count` deterministic approximate versions
// of the given exact circuit, with increasing seeds. The error budget is
// chosen per circuit size so the resulting ERs land in the paper's
// reported range (roughly 1e-5 to 0.2).
func SuiteApproximations(exact *circuit.Circuit, count int, baseSeed int64) []*circuit.Circuit {
	out := make([]*circuit.Circuit, count)
	for i := range out {
		budget := 0.002 * float64(1+i%5) // 0.002 .. 0.01
		out[i] = Approximate(exact, Config{
			Seed:         baseSeed + int64(i)*7919,
			TargetER:     budget,
			MaxMoves:     4 + i%5,
			RequireError: true,
		})
	}
	return out
}
