// Package counter implements the simulation-enhanced exact model counter
// of VACSEM (Phase 2 of the paper, Algorithm 1).
//
// The engine is a DPLL-style #SAT solver with counting unit propagation,
// connected-component decomposition, component caching and a dynamic
// branching heuristic — the algorithm family of sharpSAT/GANAK. On top of
// it sits the paper's contribution: before branching on a residual
// component, a dynamic controller inspects the component's corresponding
// sub-circuit (recovered through the clause->gate map built in Phase 1)
// and, when the sub-circuit is dense (density score alpha*G/K^2 > 1),
// counts its models by word-parallel circuit simulation instead of search.
//
// Counts are exact and returned as math/big integers, so circuits with
// hundreds of inputs (e.g. 128-bit adders, 2^256 patterns) are supported.
package counter

import (
	"context"
	"math/big"

	"vacsem/internal/cnf"
	"vacsem/internal/gf2"
	"vacsem/internal/obs"
)

// Config tunes the solver. The zero value is usable: it disables the
// simulation hook and runs the plain DPLL counting engine (the paper's
// "GANAK" baseline role).
type Config struct {
	// EnableSim activates the simulation hook (VACSEM mode). It requires
	// the formula to carry circuit metadata (cnf.Encode output).
	EnableSim bool
	// Alpha is the scaling factor of the density score
	// alpha * gates / PIs^2 (Eq. 5 of the paper). 0 means the paper's
	// default of 2.
	Alpha float64
	// MaxSimVars caps the number of free sub-circuit inputs K the
	// simulator will enumerate (2^K patterns). 0 means the default of 26.
	MaxSimVars int
	// MinSimGates is the minimum sub-circuit size worth simulating
	// (default 24): tiny dense components are solved just as fast by
	// branching with component caching, and branching also feeds clause
	// learning, so handing them to the simulator hurts overall search.
	MinSimGates int
	// DisableCache turns off component caching (for ablation studies).
	DisableCache bool
	// DisableIBCP turns off implicit BCP (failed-literal probing), the
	// sharpSAT/GANAK preprocessing both our engines use by default.
	DisableIBCP bool
	// DisableLearning turns off conflict-driven clause learning.
	// Learned clauses are consequences of the original formula, so they
	// prune search in every engine without affecting counts; they are
	// excluded from component analysis and cache keys (the standard
	// sharpSAT treatment).
	DisableLearning bool
	// Cache, when non-nil, is an external component-count cache shared
	// with other solvers (see Cache). Keys are solver-independent
	// content keys, so identical residual subformulas arising in
	// different formulas share entries; counts are unaffected by
	// sharing. When nil, the solver builds a private Cache per Count
	// call, with the default bounds of NewCache(0, 0).
	Cache *Cache
	// CacheOwner tags this solver's stores in a shared Cache; hits on
	// entries stored under a different tag are reported as
	// Stats.CacheCrossHits (cross-sub-miter reuse).
	CacheOwner int32
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Alpha == 0 {
		out.Alpha = 2
	}
	if out.MaxSimVars == 0 {
		out.MaxSimVars = 26
	}
	if out.MinSimGates == 0 {
		out.MinSimGates = 24
	}
	return out
}

// maxLearned caps the learned-clause database.
const maxLearned = 100000

// Stats reports the work performed by one Count call.
type Stats struct {
	Decisions uint64 // branching decisions
	// Propagations counts literals assigned by BCP, inside failed-literal
	// probes too. A probe that an earlier probe of the same pass already
	// answered is skipped and assigns nothing, so on adders this is about
	// half of what probing every candidate gives, for the same search.
	Propagations uint64
	Components   uint64 // residual components solved
	CacheHits    uint64
	CacheStores  uint64
	// CacheCrossHits counts cache hits on entries stored by a different
	// solver (a different sub-miter of the same run, under the engine's
	// shared cache). Always 0 with a private cache.
	CacheCrossHits uint64
	// CacheEvictions counts entries this solver's stores pushed out of a
	// full cache shard — churn, as opposed to the growth CacheStores
	// measures.
	CacheEvictions uint64
	// SimCalls counts the model counts made by simulation: residual components,
	// formulas the engine's session sweep counted whole, and approx hash
	// cells counted over their affine input subspace.
	SimCalls    uint64
	SimRejected uint64 // components where the controller declined
	// SimPatterns totals the patterns those calls enumerated: 2^k per
	// component or swept formula over k inputs, 2^(k−rank H) per hash
	// cell, 0 for a cell whose parity system is inconsistent.
	SimPatterns uint64
	// FailedLiterals counts literals forced by implicit BCP.
	FailedLiterals uint64
	// Learned counts clauses added by conflict analysis.
	Learned uint64
	// XorPropagations counts literals forced by native XOR rows (a row
	// with one free variable determines it).
	XorPropagations uint64
	// GaussReductions counts components the Gaussian-elimination
	// propagator concluded or simplified: a parity contradiction, a pure
	// parity subsystem counted in closed form, or derived unit rows
	// asserted before branching.
	GaussReductions uint64
	// ApproxProbes counts the hash-cell probes the approx backend
	// asked, each counted exactly by simulation or DPLL unless reused.
	ApproxProbes uint64
	// ApproxProbesReused counts probes answered without a fresh count:
	// later rounds asking the zero-row cell, which ApproxCount counts
	// once per call.
	ApproxProbesReused uint64
	// SupportBefore and SupportAfter sum the approx sampling-set sizes
	// before and after independent-support minimization over the call's
	// tasks (equal when minimization found nothing to drop or was
	// disabled).
	SupportBefore uint64
	SupportAfter  uint64
}

// Add accumulates other into s field by field. It is the aggregation
// primitive behind core.Result.TotalStats, so reporting layers never
// re-sum individual fields by hand. (A reflection test asserts that
// every numeric field participates, so new metrics cannot be silently
// dropped here or in Diff.)
func (s *Stats) Add(other Stats) {
	s.Decisions += other.Decisions
	s.Propagations += other.Propagations
	s.Components += other.Components
	s.CacheHits += other.CacheHits
	s.CacheStores += other.CacheStores
	s.CacheCrossHits += other.CacheCrossHits
	s.CacheEvictions += other.CacheEvictions
	s.SimCalls += other.SimCalls
	s.SimRejected += other.SimRejected
	s.SimPatterns += other.SimPatterns
	s.FailedLiterals += other.FailedLiterals
	s.Learned += other.Learned
	s.XorPropagations += other.XorPropagations
	s.GaussReductions += other.GaussReductions
	s.ApproxProbes += other.ApproxProbes
	s.ApproxProbesReused += other.ApproxProbesReused
	s.SupportBefore += other.SupportBefore
	s.SupportAfter += other.SupportAfter
}

// Diff returns the field-wise difference s - prev. It is the inverse of
// Add for monotonically growing statistics and backs the tracer's
// periodic "stats" snapshot-delta events.
func (s Stats) Diff(prev Stats) Stats {
	return Stats{
		Decisions:          s.Decisions - prev.Decisions,
		Propagations:       s.Propagations - prev.Propagations,
		Components:         s.Components - prev.Components,
		CacheHits:          s.CacheHits - prev.CacheHits,
		CacheStores:        s.CacheStores - prev.CacheStores,
		CacheCrossHits:     s.CacheCrossHits - prev.CacheCrossHits,
		CacheEvictions:     s.CacheEvictions - prev.CacheEvictions,
		SimCalls:           s.SimCalls - prev.SimCalls,
		SimRejected:        s.SimRejected - prev.SimRejected,
		SimPatterns:        s.SimPatterns - prev.SimPatterns,
		FailedLiterals:     s.FailedLiterals - prev.FailedLiterals,
		Learned:            s.Learned - prev.Learned,
		XorPropagations:    s.XorPropagations - prev.XorPropagations,
		GaussReductions:    s.GaussReductions - prev.GaussReductions,
		ApproxProbes:       s.ApproxProbes - prev.ApproxProbes,
		ApproxProbesReused: s.ApproxProbesReused - prev.ApproxProbesReused,
		SupportBefore:      s.SupportBefore - prev.SupportBefore,
		SupportAfter:       s.SupportAfter - prev.SupportAfter,
	}
}

const (
	unassigned int8 = -1
)

// Solver counts the models of one CNF formula. It is single-use per
// formula but Count may be called repeatedly (state resets each call).
type Solver struct {
	f   *cnf.Formula
	cfg Config

	nVars   int
	nOrig   int32 // number of original (non-learned) clauses
	clauses []cnf.Clause
	occ     [][]int32 // literal index (2v / 2v+1) -> clause ids
	assign  []int8    // var -> unassigned/0/1
	trail   []int32   // assigned literals in order
	nTrue   []int32   // clause -> count of satisfied literals
	nFalse  []int32   // clause -> count of falsified literals
	propQ   []propItem

	// native XOR rows (see xor.go): parity constraints tracked alongside
	// the clause database with their own free-count/parity watches.
	xors    []cnf.XorClause
	xorOcc  [][]int32 // var -> xor row ids
	xorFree []int32   // row -> number of unassigned vars
	xorPar  []uint8   // row -> parity (0/1) of assigned-true vars

	// clause-learning state
	reason      []int32 // var -> clause that propagated it (or a pseudo-reason)
	level       []int32 // var -> decision level at assignment
	curLevel    int32
	conflictCl  int32      // last conflicting clause or xor pseudo-reason, -1 if none
	learned     int        // learned-clause count
	xorReasonCl cnf.Clause // scratch for xorImplicate materialization

	// component discovery scratch (stamp-based visited marks)
	stamp   uint32
	varSeen []uint32
	clSeen  []uint32
	xorSeen []uint32

	// cache: either Config.Cache (shared across solvers) or a private
	// Cache built per Count call; nil when caching is disabled.
	cache *Cache
	// canonical-key scratch (see cacheKey)
	varRank   []int32   // var -> dense local index within the current component
	keyLits   []int32   // flat free-literal codes, clause by clause, then xor rows
	keyCls    [][]int32 // per-clause views into keyLits
	keyPacked []uint64  // clauses of at most 3 literals, packed
	keyXrs    [][]int32 // per-xor-row views into keyLits
	keyBuf    []byte    // serialized key

	// branching scratch: var -> score, all zero between pickVar calls
	varScore []int

	// implicit-BCP probe marks (see failedLiteralFixpoint): literal index
	// -> epoch of the last successful probe that assigned it
	probed     []uint32
	probeEpoch uint32

	// sim hook scratch
	gateSeen   []uint32
	nodeSeen   []uint32
	compClSet  []uint32 // stamp: clause belongs to current component
	compXorSet []uint32 // stamp: xor row belongs to current component

	// Gaussian-elimination scratch (see xor.go)
	gauss gf2.System

	stats    Stats
	ctx      context.Context // active cancellation source (nil = none)
	aborted  bool
	abortErr error
	ticks    uint32

	// tracing state (see trace.go). tr is captured once per Count so
	// the hot loops pay a plain nil check, not an atomic load.
	tr        *obs.Tracer
	evCtx     context.Context // the caller's context, for event parents (set when traced)
	hotTick   uint64          // component-event sampling tick
	cacheTick uint64          // cache-event sampling tick
	lastEmit  Stats           // stats at the last periodic snapshot delta
	// flushed tracks the stats already merged into the metrics registry
	// (see trace.go), so periodic flushes and the final merge sum
	// exactly to s.stats.
	flushed Stats
}

// propItem is one queued propagation with its antecedent.
type propItem struct {
	lit    int32
	reason int32
}

// Pseudo-reasons for assignments with no antecedent clause. Reasons at
// or below reasonXor encode the native XOR row that forced the
// assignment (row index reasonXor - r), so conflict analysis can
// materialize the row's CNF implicate and resolve through it.
const (
	reasonDecision int32 = -1 // branching decision (or probe)
	reasonAsserted int32 = -2 // forced by implicit BCP (no single clause)
	reasonXor      int32 = -3 // forced by native XOR row reasonXor - r
)

// xorReason encodes xor row xi as a pseudo-reason.
func xorReason(xi int) int32 { return reasonXor - int32(xi) }

// xorRowOf decodes a pseudo-reason r <= reasonXor back to its row.
func xorRowOf(r int32) int { return int(reasonXor - r) }

// New creates a solver for the formula.
func New(f *cnf.Formula, cfg Config) *Solver {
	s := &Solver{
		f: f, cfg: cfg.withDefaults(), nVars: f.NumVars,
		nOrig:      int32(len(f.Clauses)),
		clauses:    append([]cnf.Clause(nil), f.Clauses...),
		conflictCl: -1,
	}
	s.occ = make([][]int32, 2*(f.NumVars+1))
	for ci, cl := range s.clauses {
		for _, l := range cl {
			s.occ[litIndex(l)] = append(s.occ[litIndex(l)], int32(ci))
		}
	}
	s.reason = make([]int32, f.NumVars+1)
	s.level = make([]int32, f.NumVars+1)
	s.assign = make([]int8, f.NumVars+1)
	s.varRank = make([]int32, f.NumVars+1)
	s.varScore = make([]int, f.NumVars+1)
	s.probed = make([]uint32, 2*(f.NumVars+1))
	s.nTrue = make([]int32, len(s.clauses))
	s.nFalse = make([]int32, len(s.clauses))
	s.varSeen = make([]uint32, f.NumVars+1)
	s.clSeen = make([]uint32, len(s.clauses))
	s.compClSet = make([]uint32, len(s.clauses))
	s.xors = append([]cnf.XorClause(nil), f.Xors...)
	s.xorOcc = make([][]int32, f.NumVars+1)
	for xi, x := range s.xors {
		for _, v := range x.Vars {
			s.xorOcc[v] = append(s.xorOcc[v], int32(xi))
		}
	}
	s.xorFree = make([]int32, len(s.xors))
	s.xorPar = make([]uint8, len(s.xors))
	s.xorSeen = make([]uint32, len(s.xors))
	s.compXorSet = make([]uint32, len(s.xors))
	if f.Circ != nil {
		s.gateSeen = make([]uint32, len(f.Circ.Nodes))
		s.nodeSeen = make([]uint32, len(f.Circ.Nodes))
	}
	return s
}

// litIndex maps literal +v to 2v and -v to 2v+1.
func litIndex(l int32) int32 {
	if l > 0 {
		return 2 * l
	}
	return -2*l + 1
}

func litVar(l int32) int32 {
	if l > 0 {
		return l
	}
	return -l
}

// level0 propagates the formula's unit clauses and unit XOR rows to
// fixpoint on a freshly reset solver — the setup Count, Satisfiable and
// MinimizeSupport share. It reports false when the formula is
// unsatisfiable at level 0 (an empty clause or a conflict).
func (s *Solver) level0() bool {
	for ci, cl := range s.clauses {
		switch len(cl) {
		case 0:
			return false
		case 1:
			if s.nTrue[ci] == 0 { // not yet satisfied by an earlier unit
				s.propQ = append(s.propQ, propItem{cl[0], int32(ci)})
			}
		}
	}
	return s.queueXorUnits() && s.propagate()
}

// Stats returns the statistics of the most recent Count call.
func (s *Solver) Stats() Stats { return s.stats }

// Count returns the exact number of satisfying assignments of the formula
// over all its variables. For formulas produced by cnf.Encode this equals
// the number of input patterns of the encoded cone that set the output to
// 1 (the Tseitin encoding extends each satisfying input uniquely).
//
// The solver polls ctx.Err() at its decision points (every 1024 abort
// checks) and returns the context's error — context.Canceled or
// context.DeadlineExceeded — when the context ends before the count
// completes; a time limit is a deadline on ctx.
func (s *Solver) Count(ctx context.Context) (*big.Int, error) {
	s.begin(ctx)
	defer s.finishObs()
	if !s.level0() {
		return big.NewInt(0), nil
	}
	allVars := make([]int32, s.nVars)
	for i := range allVars {
		allVars[i] = int32(i + 1)
	}
	total := s.split(allVars, reasonDecision)
	if total == nil {
		return nil, s.abortErr
	}
	return total, nil
}

// begin is the prologue of a Count or Satisfiable run under ctx: it
// resets the solver and captures the active tracer, ctx for the events
// it parents when traced, and ctx as the cancellation source when it can
// end. The caller defers finishObs, which books the
// run's statistics.
func (s *Solver) begin(ctx context.Context) {
	s.reset()
	s.tr = obs.Active()
	if s.tr != nil {
		s.evCtx = ctx
	}
	if ctx.Done() != nil {
		s.ctx = ctx
	}
}

func (s *Solver) reset() {
	for i := range s.assign {
		s.assign[i] = unassigned
	}
	// Learned clauses survive resets (they are consequences of the
	// original formula); only the counters are cleared.
	for i := range s.nTrue {
		s.nTrue[i] = 0
		s.nFalse[i] = 0
	}
	for i := range s.xors {
		s.xorFree[i] = int32(len(s.xors[i].Vars))
		s.xorPar[i] = 0
	}
	s.trail = s.trail[:0]
	s.propQ = s.propQ[:0]
	switch {
	case s.cfg.DisableCache:
		s.cache = nil
	case s.cfg.Cache != nil:
		s.cache = s.cfg.Cache // shared: survives resets by design
	default:
		s.cache = NewCache(0, 0)
	}
	s.stats = Stats{}
	s.ctx = nil
	s.aborted = false
	s.abortErr = nil
	s.ticks = 0
	s.curLevel = 0
	s.conflictCl = -1
	s.tr = nil
	s.evCtx = nil
	s.hotTick = 0
	s.cacheTick = 0
	s.lastEmit = Stats{}
	s.flushed = Stats{}
}

// checkAbort polls the active context every 1024 calls. It is invoked at
// every component solve and every probe, so a cancelled context stops
// the search within one poll interval. Each poll also flushes the stats
// accrued since the last one into the metrics registry, so /metrics
// moves during a long count instead of stepping once at its end.
func (s *Solver) checkAbort() bool {
	if s.aborted {
		return true
	}
	if s.ctx == nil {
		return false
	}
	s.ticks++
	if s.ticks&1023 == 0 {
		if err := s.ctx.Err(); err != nil {
			s.aborted = true
			s.abortErr = err
		}
		s.flushObs()
	}
	return s.aborted
}

// assertLit assigns a literal and updates clause counters, queueing any
// new unit literals. It reports false on conflict (recording the
// conflicting clause for analysis). A literal already assigned
// consistently is a no-op; an inconsistent one is a conflict.
func (s *Solver) assertLit(lit, why int32) bool {
	v := litVar(lit)
	want := int8(0)
	if lit > 0 {
		want = 1
	}
	if s.assign[v] != unassigned {
		if s.assign[v] == want {
			return true
		}
		s.conflictCl = why // why is fully falsified now
		return false
	}
	s.assign[v] = want
	s.reason[v] = why
	s.level[v] = s.curLevel
	s.trail = append(s.trail, lit)
	s.stats.Propagations++
	for _, ci := range s.occ[litIndex(lit)] {
		s.nTrue[ci]++
	}
	conflict := false
	for _, ci := range s.occ[litIndex(-lit)] {
		s.nFalse[ci]++
		if s.nTrue[ci] != 0 {
			continue
		}
		free := int32(len(s.clauses[ci])) - s.nFalse[ci]
		if free == 0 {
			if !conflict {
				s.conflictCl = ci
			}
			conflict = true
		} else if free == 1 {
			// find the single unassigned literal
			for _, l := range s.clauses[ci] {
				if s.assign[litVar(l)] == unassigned {
					s.propQ = append(s.propQ, propItem{l, ci})
					break
				}
			}
		}
	}
	if !s.updateXorsOnAssign(v, want == 1) {
		conflict = true
	}
	return !conflict
}

// propagate drains the propagation queue to fixpoint. On conflict it
// learns a clause (when enabled), leaves counters consistent (undoTo
// restores them) and returns false with the queue cleared.
func (s *Solver) propagate() bool {
	for len(s.propQ) > 0 {
		it := s.propQ[len(s.propQ)-1]
		s.propQ = s.propQ[:len(s.propQ)-1]
		if !s.assertLit(it.lit, it.reason) {
			s.propQ = s.propQ[:0]
			s.learnFromConflict()
			return false
		}
	}
	return true
}

// learnFromConflict performs first-UIP conflict analysis on the recorded
// conflicting clause and adds the learned clause to the database. The
// learned clause is a consequence of the original formula, so it can
// safely propagate anywhere (it never changes model counts) while being
// invisible to component analysis. Analysis bails out harmlessly on
// pseudo-reasons (probe-forced literals).
func (s *Solver) learnFromConflict() {
	if s.cfg.DisableLearning || s.curLevel == 0 ||
		s.learned >= maxLearned {
		return
	}
	var cl cnf.Clause
	switch {
	case s.conflictCl >= 0:
		cl = s.clauses[s.conflictCl]
	case s.conflictCl <= reasonXor:
		cl = s.xorImplicate(xorRowOf(s.conflictCl))
	default:
		return
	}
	s.stamp++
	st := s.stamp
	var lits []int32
	counter := 0
	idx := len(s.trail) - 1
	for {
		for _, l := range cl {
			v := litVar(l)
			if s.varSeen[v] == st || s.level[v] == 0 {
				continue
			}
			s.varSeen[v] = st
			if s.level[v] == s.curLevel {
				counter++
			} else {
				lits = append(lits, l)
			}
		}
		// Walk back to the most recent current-level variable involved.
		for idx >= 0 {
			v := litVar(s.trail[idx])
			if s.varSeen[v] == st && s.level[v] == s.curLevel {
				break
			}
			idx--
		}
		if idx < 0 {
			return // defensive: malformed analysis state
		}
		v := litVar(s.trail[idx])
		idx--
		counter--
		if counter == 0 {
			// v is the first UIP; the learned clause asserts its negation.
			if s.assign[v] == 1 {
				lits = append(lits, -v)
			} else {
				lits = append(lits, v)
			}
			break
		}
		r := s.reason[v]
		switch {
		case r >= 0:
			cl = s.clauses[r]
		case r <= reasonXor:
			cl = s.xorImplicate(xorRowOf(r))
		default:
			return // probe-forced or decision inside analysis: skip learning
		}
	}
	if len(lits) == 0 || len(lits) > 8 {
		return // empty or too weak to be worth the BCP cost
	}
	s.addLearned(lits)
}

// addLearned appends a learned clause, wiring occurrence lists and
// initializing its counters under the current assignment so that the
// trail-based undo stays consistent.
func (s *Solver) addLearned(lits []int32) {
	ci := int32(len(s.clauses))
	cl := make(cnf.Clause, len(lits))
	copy(cl, lits)
	var nt, nf int32
	for _, l := range cl {
		s.occ[litIndex(l)] = append(s.occ[litIndex(l)], ci)
		switch s.assign[litVar(l)] {
		case unassigned:
		case 1:
			if l > 0 {
				nt++
			} else {
				nf++
			}
		case 0:
			if l > 0 {
				nf++
			} else {
				nt++
			}
		}
	}
	s.clauses = append(s.clauses, cl)
	s.nTrue = append(s.nTrue, nt)
	s.nFalse = append(s.nFalse, nf)
	s.clSeen = append(s.clSeen, 0)
	s.compClSet = append(s.compClSet, 0)
	s.learned++
	s.stats.Learned++
}

// undoTo unassigns trail entries beyond mark, restoring clause counters.
func (s *Solver) undoTo(mark int) {
	for len(s.trail) > mark {
		lit := s.trail[len(s.trail)-1]
		s.trail = s.trail[:len(s.trail)-1]
		v := litVar(lit)
		s.assign[v] = unassigned
		for _, ci := range s.occ[litIndex(lit)] {
			s.nTrue[ci]--
		}
		for _, ci := range s.occ[litIndex(-lit)] {
			s.nFalse[ci]--
		}
		for _, xi := range s.xorOcc[v] {
			s.xorFree[xi]++
			if lit > 0 {
				s.xorPar[xi] ^= 1
			}
		}
	}
	s.propQ = s.propQ[:0]
}
