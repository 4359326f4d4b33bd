package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"

	"vacsem"
)

// pair is one verification input: an exact circuit, an approximate
// version of it, their BLIF text, and the pair's fingerprint (sha256 over
// both BLIF texts).
type pair struct {
	Name          string
	Exact, Approx *vacsem.Circuit
	ExactBLIF     string
	ApproxBLIF    string
	FP            string
	// Ref is the fingerprint that keys the pair's reference counts: its
	// own, or for an input-reordered instance, that of the pair it was
	// reordered from (reordering inputs changes neither function).
	Ref string
	// Body is the serve-mixed POST /v1/verify request for the pair.
	Body []byte
}

// inputs is everything a workload runs on, made from the seed alone.
type inputs struct {
	// Pairs are the distinct pairs reference counts are kept for.
	Pairs []*pair
	// Rounds lists, for the batch workloads, the pairs each measured round
	// verifies in order; round r uses Rounds[r % len(Rounds)].
	Rounds [][]*pair
	// Jobs lists, for serve-mixed, the index into Pairs of each
	// submission, in submission order.
	Jobs []int
}

// workload is one fixed input set and the way it is run.
type workload struct {
	Name string
	// Serve workloads go through a vacsem-serve process over HTTP; the
	// others call vacsem.VerifyMetrics in this process.
	Serve   bool
	Method  vacsem.Method
	Metrics []string
	// Oracle is the independent backend that reference values come from
	// on seeds golden.json does not cover.
	Oracle vacsem.Method
	build  func(seed int64, quick bool) (*inputs, error)
}

// Approx backend guarantee used by approx-adder: ApproxMC's defaults.
const (
	approxEpsilon = 0.8
	approxDelta   = 0.2
)

// workloads is the benchmark, in run order. Seeded choices never change
// circuit sizes or approximation sites; where an instance's cost still
// depends on the seed (the counter's variable order, the approx backend's
// sampling), a run cycles through many instances, so that the spread
// across seeds stays below the bounds.
var workloads = []*workload{
	{
		// Simulation does the work: 20-input cones fit the simulator, so
		// the controller hands every component to the compiled kernel.
		Name: "mult-sim", Method: vacsem.MethodVACSEM, Metrics: []string{"er", "med"},
		Oracle: vacsem.MethodEnum, build: buildMultSim,
	},
	{
		// DPLL does the work: 32-input adder cones exceed the simulator's
		// input cap, so the controller rejects them and the counter
		// branches, propagates, learns and caches.
		Name: "adder-dpll", Method: vacsem.MethodVACSEM, Metrics: []string{"er", "med"},
		Oracle: vacsem.MethodBDD, build: buildAdderDPLL,
	},
	{
		// Many small repeated jobs over HTTP: parsing, planning, the queue
		// and the cone store do the work; solving is cheap.
		Name: "serve-mixed", Serve: true, Method: vacsem.MethodVACSEM, Metrics: serveMetrics,
		Oracle: vacsem.MethodEnum, build: buildServeMixed,
	},
	{
		// The (ε, δ) layer: support minimization, the boundary walk and
		// counting under XOR rows.
		Name: "approx-adder", Method: vacsem.MethodApprox, Metrics: []string{"er"},
		Oracle: vacsem.MethodBDD, build: buildApproxAdder,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// newPair serializes a pair and fingerprints it. With metrics set it
// also prepares the pair's serve request body.
func newPair(name string, exact, approx *vacsem.Circuit, metrics []string) (*pair, error) {
	var eb, ab bytes.Buffer
	if err := vacsem.WriteBLIF(&eb, exact); err != nil {
		return nil, fmt.Errorf("%s: write exact BLIF: %w", name, err)
	}
	if err := vacsem.WriteBLIF(&ab, approx); err != nil {
		return nil, fmt.Errorf("%s: write approx BLIF: %w", name, err)
	}
	h := sha256.New()
	h.Write(eb.Bytes())
	h.Write([]byte{0})
	h.Write(ab.Bytes())
	p := &pair{
		Name: name, Exact: exact, Approx: approx,
		ExactBLIF: eb.String(), ApproxBLIF: ab.String(),
		FP: hex.EncodeToString(h.Sum(nil)),
	}
	p.Ref = p.FP
	if metrics != nil {
		body, err := json.Marshal(map[string]any{
			"exact_blif": p.ExactBLIF, "approx_blif": p.ApproxBLIF, "metrics": metrics,
		})
		if err != nil {
			return nil, err
		}
		p.Body = body
	}
	return p, nil
}

// buildMultSim: ArrayMultiplier(10) against TruncatedMultiplier(10, k)
// for k = 2, 3, 4 and three seeded partial-product-pruned versions, the
// same six pairs every round.
func buildMultSim(seed int64, quick bool) (*inputs, error) {
	n := 10
	if quick {
		n = 8
	}
	exact := vacsem.ArrayMultiplier(n)
	in := &inputs{}
	seen := make(map[string]bool)
	add := func(name string, approx *vacsem.Circuit) error {
		p, err := newPair(name, exact, approx, nil)
		if err != nil {
			return err
		}
		if !seen[p.FP] {
			seen[p.FP] = true
			in.Pairs = append(in.Pairs, p)
		}
		return nil
	}
	for k := 2; k <= 4; k++ {
		if err := add(fmt.Sprintf("mult%d/trunc%d", n, k), vacsem.TruncatedMultiplier(n, k)); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for len(in.Pairs) < 6 {
		approx, tag := prunePartialProducts(exact, []int{3, 4, 5}, rng)
		if err := add(fmt.Sprintf("mult%d/prune-%s", n, tag), approx); err != nil {
			return nil, err
		}
	}
	in.Rounds = [][]*pair{in.Pairs}
	return in, nil
}

// prunePartialProducts drops one seed-chosen partial product a_i·b_j from
// each listed column i+j of an array multiplier (the AND gate is tied to
// 0). Every product bit from the lowest pruned column up can deviate, so
// each version gives the simulator the same number of full-size cones.
func prunePartialProducts(exact *vacsem.Circuit, cols []int, rng *rand.Rand) (*vacsem.Circuit, string) {
	c := exact.Clone()
	n := c.NumInputs() / 2
	pos := make(map[int]int, len(c.Inputs))
	for i, id := range c.Inputs {
		pos[id] = i
	}
	byCol := make(map[int][]int)
	for id := range c.Nodes {
		nd := &c.Nodes[id]
		if nd.Kind != vacsem.And || len(nd.Fanins) != 2 {
			continue
		}
		a, okA := pos[nd.Fanins[0]]
		b, okB := pos[nd.Fanins[1]]
		if okA && okB && a < n && b >= n {
			byCol[a+b-n] = append(byCol[a+b-n], id)
		}
	}
	tag := ""
	for _, col := range cols {
		ids := byCol[col]
		pick := rng.Intn(len(ids))
		c.Nodes[ids[pick]].Kind = vacsem.Buf
		c.Nodes[ids[pick]].Fanins = []int{0}
		tag += fmt.Sprintf("c%dx%d", col, pick)
	}
	c.Name = exact.Name + "_prune_" + tag
	return c, tag
}

// roundsPerSeed is how many differently ordered instances of each adder
// pair a seed makes; a run cycles through them, one per round.
const roundsPerSeed = 16

// buildAdderDPLL: RippleCarryAdder(16) against LOA and truncated adders,
// each round's instances with their inputs in a seed-drawn order.
func buildAdderDPLL(seed int64, quick bool) (*inputs, error) {
	n := 16
	if quick {
		n = 12
	}
	approxes := []*vacsem.Circuit{
		vacsem.LowerORAdder(n, 2), vacsem.LowerORAdder(n, 3),
		truncatedAdder(n, 2), truncatedAdder(n, 3),
	}
	return reorderedAdderPairs(n, approxes, seed)
}

// buildApproxAdder: ER of RippleCarryAdder(12) against LOA and truncated
// adders, each round's instances with their inputs in a seed-drawn order.
// The adders are small so that a run holds many estimates: each one's
// cost varies with the sampling seed, and only many of them average out.
func buildApproxAdder(seed int64, quick bool) (*inputs, error) {
	n := 12
	approxes := []*vacsem.Circuit{
		vacsem.LowerORAdder(n, 2), vacsem.LowerORAdder(n, 3),
		truncatedAdder(n, 2), truncatedAdder(n, 3),
	}
	if quick {
		n = 8
		approxes = []*vacsem.Circuit{vacsem.LowerORAdder(n, 3)}
	}
	return reorderedAdderPairs(n, approxes, seed)
}

// reorderedAdderPairs pairs RippleCarryAdder(n) with each approximation
// and makes roundsPerSeed rounds of instances, each instance declaring
// both circuits' inputs in one seed-drawn order. Reordering inputs
// renumbers the counter's variables without changing either function, so
// every instance must reproduce its pair's reference counts while the
// search meets a different formula. The counter's cost is sensitive to
// that order, so each run spreads over many orders instead of resting on
// one.
func reorderedAdderPairs(n int, approxes []*vacsem.Circuit, seed int64) (*inputs, error) {
	exact := vacsem.RippleCarryAdder(n)
	in := &inputs{}
	for _, a := range approxes {
		p, err := newPair(exact.Name+"/"+a.Name, exact, a, nil)
		if err != nil {
			return nil, err
		}
		in.Pairs = append(in.Pairs, p)
	}
	rng := rand.New(rand.NewSource(seed))
	for r := 0; r < roundsPerSeed; r++ {
		var round []*pair
		for _, canon := range in.Pairs {
			perm := rng.Perm(exact.NumInputs())
			p, err := newPair(fmt.Sprintf("%s@%d", canon.Name, r),
				permuteInputs(canon.Exact, perm), permuteInputs(canon.Approx, perm), nil)
			if err != nil {
				return nil, err
			}
			p.Ref = canon.FP
			round = append(round, p)
		}
		in.Rounds = append(in.Rounds, round)
	}
	return in, nil
}

// permuteInputs rebuilds c with its primary inputs declared in the order
// perm gives (perm[k] is the original index of the k-th input); gates and
// outputs are unchanged.
func permuteInputs(c *vacsem.Circuit, perm []int) *vacsem.Circuit {
	out := vacsem.NewCircuit(c.Name)
	newID := make([]int, len(c.Nodes))
	for _, k := range perm {
		id := c.Inputs[k]
		newID[id] = out.AddInput(c.Nodes[id].Name)
	}
	for id := 1; id < len(c.Nodes); id++ {
		nd := &c.Nodes[id]
		if nd.Kind == vacsem.Input {
			continue
		}
		fanins := make([]int, len(nd.Fanins))
		for j, f := range nd.Fanins {
			fanins[j] = newID[f]
		}
		newID[id] = out.AddGate(nd.Kind, fanins...)
	}
	for j, o := range c.Outputs {
		out.AddOutput(newID[o], c.OutputName(j))
	}
	return out
}

// truncatedAdder is an n-bit adder whose low k sum bits are 0 and whose
// carry chain starts at bit k (same interface as RippleCarryAdder).
func truncatedAdder(n, k int) *vacsem.Circuit {
	c := vacsem.NewCircuit(fmt.Sprintf("truncadder%d_%d", n, k))
	a := make([]int, n)
	b := make([]int, n)
	for i := range a {
		a[i] = c.AddInput(fmt.Sprintf("a%d", i))
	}
	for i := range b {
		b[i] = c.AddInput(fmt.Sprintf("b%d", i))
	}
	carry := 0
	for i := 0; i < n; i++ {
		sum := 0
		if i >= k {
			x := c.AddGate(vacsem.Xor, a[i], b[i])
			sum = c.AddGate(vacsem.Xor, x, carry)
			carry = c.AddGate(vacsem.Maj, a[i], b[i], carry)
		}
		c.AddOutput(sum, fmt.Sprintf("s%d", i))
	}
	c.AddOutput(carry, fmt.Sprintf("s%d", n))
	return c
}

// serveMetrics are the metrics every serve-mixed job asks for.
var serveMetrics = []string{"er", "med"}

// Serve-mixed sizes: distinct pairs, and submissions of each.
const (
	servePairs   = 120
	serveRepeats = 6
	quickPairs   = 10
	quickRepeats = 4
)

// buildServeMixed makes distinct small pairs (adders of 6-10 bits via
// LOA, truncation and ALS; multipliers of 4-6 bits via truncation and
// ALS), de-duplicated by fingerprint, and submits each several times in a
// seeded shuffle. The structured pairs are the same on every seed; the
// ALS versions and the order come from the seed.
func buildServeMixed(seed int64, quick bool) (*inputs, error) {
	want, repeats := servePairs, serveRepeats
	if quick {
		want, repeats = quickPairs, quickRepeats
	}
	in := &inputs{}
	seen := make(map[string]bool)
	add := func(exact, approx *vacsem.Circuit) error {
		p, err := newPair(exact.Name+"/"+approx.Name, exact, approx, serveMetrics)
		if err != nil {
			return err
		}
		if !seen[p.FP] && len(in.Pairs) < want {
			seen[p.FP] = true
			in.Pairs = append(in.Pairs, p)
		}
		return nil
	}
	adderWidths, multWidths := []int{6, 7, 8, 9, 10}, []int{4, 5, 6}
	if quick {
		adderWidths, multWidths = []int{6}, []int{4}
	}
	var bases []*vacsem.Circuit
	for _, n := range adderWidths {
		exact := vacsem.RippleCarryAdder(n)
		bases = append(bases, exact)
		for k := 1; k <= 3; k++ {
			if err := add(exact, vacsem.LowerORAdder(n, k)); err != nil {
				return nil, err
			}
		}
		for k := 1; k <= 2; k++ {
			if err := add(exact, truncatedAdder(n, k)); err != nil {
				return nil, err
			}
		}
	}
	for _, n := range multWidths {
		exact := vacsem.ArrayMultiplier(n)
		bases = append(bases, exact)
		for k := 1; k <= 3; k++ {
			if err := add(exact, vacsem.TruncatedMultiplier(n, k)); err != nil {
				return nil, err
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; len(in.Pairs) < want; i++ {
		if i > 50*want {
			return nil, fmt.Errorf("serve-mixed: only %d distinct pairs after %d ALS draws", len(in.Pairs), i)
		}
		exact := bases[i%len(bases)]
		approx := vacsem.Approximate(exact, vacsem.ALSConfig{
			Seed: rng.Int63(), TargetER: 0.05, MaxMoves: 1 + rng.Intn(3), RequireError: true,
		})
		if err := add(exact, approx); err != nil {
			return nil, err
		}
	}
	for r := 0; r < repeats; r++ {
		for i := range in.Pairs {
			in.Jobs = append(in.Jobs, i)
		}
	}
	rng.Shuffle(len(in.Jobs), func(i, j int) { in.Jobs[i], in.Jobs[j] = in.Jobs[j], in.Jobs[i] })
	return in, nil
}

// roundSeed derives the approx backend's seed for measured round r of a
// run (splitmix64), so a run averages the backend's sampling over several
// independent seeds instead of resting on one.
func roundSeed(seed int64, r int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(r+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}
