package main

// This file is the traced rep's adapter to the verification stack's
// internal layers, and the only file of the benchmark that imports them.
// The untraced measurement uses the public vacsem package and the
// vacsem-serve HTTP API alone, so a refactor of the internal layers
// updates this file and nothing else.

import (
	"context"
	"fmt"
	"strings"
	"time"

	"vacsem"
	"vacsem/internal/blif"
	"vacsem/internal/cnf"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/miter"
	"vacsem/internal/plan"
	"vacsem/internal/store"
	"vacsem/internal/synth"
)

// layerCall is what one verification measured at the layer boundaries.
// Parse, Build and Run lie on the verification path; Base, BaseSynth and
// Encode repeat parts of Build and Run afterwards, outside that path, to
// split them into miter construction, base synthesis, cone work, CNF
// encoding and search.
type layerCall struct {
	Counts                    counts
	Build, Run                time.Duration
	Base, BaseSynth, Encode   time.Duration
	TaskTime                  time.Duration
	Tasks, Trivial, FromStore int
	Requested, Deduped        int
	NodesBefore, NodesAfter   int
	Clauses, XorRows          int
	Stats                     searchStats

	plan *plan.Plan
	out  *plan.Outcome
}

// searchStats is the subset of the counter's statistics the benchmark
// reports, summed over a call's tasks.
type searchStats struct {
	Decisions, Propagations, Components, Learned   uint64
	CacheHits, CacheStores, CacheCrossHits         uint64
	SimCalls, SimRejected                          uint64
	XorPropagations, GaussReductions               uint64
	ApproxProbes, ApproxProbesReused, SupportAfter uint64
}

func (s *searchStats) add(o searchStats) {
	s.Decisions += o.Decisions
	s.Propagations += o.Propagations
	s.Components += o.Components
	s.Learned += o.Learned
	s.CacheHits += o.CacheHits
	s.CacheStores += o.CacheStores
	s.CacheCrossHits += o.CacheCrossHits
	s.SimCalls += o.SimCalls
	s.SimRejected += o.SimRejected
	s.XorPropagations += o.XorPropagations
	s.GaussReductions += o.GaussReductions
	s.ApproxProbes += o.ApproxProbes
	s.ApproxProbesReused += o.ApproxProbesReused
	s.SupportAfter += o.SupportAfter
}

func fromCounter(st counter.Stats) searchStats {
	return searchStats{
		Decisions: st.Decisions, Propagations: st.Propagations,
		Components: st.Components, Learned: st.Learned,
		CacheHits: st.CacheHits, CacheStores: st.CacheStores, CacheCrossHits: st.CacheCrossHits,
		SimCalls: st.SimCalls, SimRejected: st.SimRejected,
		XorPropagations: st.XorPropagations, GaussReductions: st.GaussReductions,
		ApproxProbes: st.ApproxProbes, ApproxProbesReused: st.ApproxProbesReused,
		SupportAfter: st.SupportAfter,
	}
}

// layers runs verifications one layer call at a time, configured like
// the public path it mirrors (vacsem.VerifyMetrics for the batch
// workloads, a vacsem-serve job for serve-mixed).
type layers struct {
	backend   engine.Backend
	cfg       engine.Config
	specs     []plan.Spec
	names     []string
	timeLimit time.Duration
}

func newLayers(w *workload) (*layers, error) {
	be, err := engine.Lookup(w.Method.String())
	if err != nil {
		return nil, err
	}
	specs, err := metricSpecs(w.Metrics)
	if err != nil {
		return nil, err
	}
	l := &layers{
		backend: be, specs: specs, names: w.Metrics,
		cfg:       engine.Config{SharedCache: true, Workers: 1, SimWorkers: 1},
		timeLimit: batchTimeLimit,
	}
	if w.Method == vacsem.MethodApprox {
		l.cfg.Epsilon, l.cfg.Delta = approxEpsilon, approxDelta
	}
	if w.Serve {
		// A job on the benchmark's server: -workers 1, the default
		// simulation workers, -default-timelimit 60s.
		l.cfg.SimWorkers = 0
		l.timeLimit = serveJobLimit
	}
	return l, nil
}

// freshStore gives later calls a new cross-request cone store, as a
// freshly started vacsem-serve has.
func (l *layers) freshStore() { l.cfg.Store = store.New(store.Config{}) }

// setSeed sets the approx backend's sampling seed.
func (l *layers) setSeed(seed int64) { l.cfg.Seed = seed }

// parse reads a BLIF text as the server does.
func (l *layers) parse(text string) (*vacsem.Circuit, error) {
	return blif.Parse(strings.NewReader(text))
}

// verify runs one session through plan.Build and Plan.Run.
func (l *layers) verify(exact, approx *vacsem.Circuit, rec *spanRecorder, parent, session int) (*layerCall, error) {
	ctx, cancel := context.WithTimeout(context.Background(), l.timeLimit)
	defer cancel()
	lc := &layerCall{Counts: make(counts, len(l.names))}
	var err error
	lc.Build = rec.timed("plan.build", parent, session, func() {
		lc.plan, err = plan.Build(ctx, exact, approx, l.specs, false)
	})
	if err != nil {
		return nil, fmt.Errorf("plan.Build: %w", err)
	}
	lc.Run = rec.timed("plan.run", parent, session, func() {
		lc.out, err = lc.plan.Run(ctx, l.backend, l.cfg, nil)
	})
	if err != nil {
		return nil, fmt.Errorf("Plan.Run: %w", err)
	}
	for i, m := range lc.out.Metrics {
		lc.Counts[l.names[i]] = m.Count
	}
	p := lc.plan
	lc.Tasks, lc.Requested, lc.Deduped = len(p.Tasks), p.TasksRequested, p.TasksDeduped()
	lc.NodesBefore, lc.NodesAfter = p.BaseNodesBefore, p.BaseNodesAfter
	for _, tr := range lc.out.TaskResults {
		lc.TaskTime += tr.Runtime
		lc.Stats.add(fromCounter(tr.Stats))
		if tr.Trivial {
			lc.Trivial++
		}
		if tr.FromStore {
			lc.FromStore++
		}
	}
	return lc, nil
}

// probe repeats, outside the verification path, the calls that split
// Build and Run into parts: miter.NewBase, Base.Compress(synth.Compress),
// and cnf.Encode of every task the backend solved.
func (l *layers) probe(lc *layerCall, exact, approx *vacsem.Circuit, rec *spanRecorder, parent, session int) error {
	id := rec.start("probe", parent, session)
	defer rec.end(id)
	var (
		base *miter.Base
		err  error
	)
	lc.Base = rec.timed("miter.base", id, session, func() {
		base, err = miter.NewBase(exact, approx, exact.Name+"_miter")
	})
	if err != nil {
		return fmt.Errorf("miter.NewBase: %w", err)
	}
	lc.BaseSynth = rec.timed("synth.base", id, session, func() { base.Compress(synth.Compress) })
	for i, tr := range lc.out.TaskResults {
		if tr.Trivial || tr.FromStore {
			continue
		}
		var f *cnf.Formula
		lc.Encode += rec.timed("cnf.encode", id, session, func() { f, err = cnf.Encode(lc.plan.Tasks[i].Sub) })
		if err != nil {
			return fmt.Errorf("cnf.Encode: %w", err)
		}
		lc.Clauses += len(f.Clauses)
		lc.XorRows += len(f.Xors)
	}
	return nil
}
