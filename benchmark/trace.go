package main

import (
	"fmt"
	"runtime"
	"time"

	"vacsem"
)

// traceResult is what the traced run measured.
type traceResult struct {
	metrics          map[string]float64
	ops              []op
	identityFailures int
}

// traceRun measures the per-layer metrics. It first runs the workload
// once without tracing — the public path for the batch workloads, one rep
// on a fresh server for serve-mixed — and then rounds through the layer
// adapter until the budget is spent (at least one), each round twice:
// untraced, then traced. The first traced round must reproduce the public
// path's values bit for bit. The tracing overhead of a round is the traced
// pass's time (spans, metric snapshots and probes included) over the
// untraced pass's, both warm. Each per-layer metric is the median over the
// traced rounds.
func traceRun(rc runConfig, in *inputs) (*traceResult, error) {
	w := rc.Workload
	start := time.Now()
	l, err := newLayers(w)
	if err != nil {
		return nil, err
	}
	rec := newSpanRecorder(w.Name)
	tr := &traceResult{metrics: make(map[string]float64)}
	var (
		untraced []op
		fixed    map[string]float64
	)
	if w.Serve {
		rep, err := runServeRep(rc.ServeBin, in, rec, true)
		if err != nil {
			return nil, err
		}
		untraced, fixed = rep.Ops, serveLayerMetrics(rep)
	} else {
		rounds, err := runBatch(w, in, rc.Seed, 0, nil)
		if err != nil {
			return nil, err
		}
		untraced = rounds[0].Ops
		// The batch workloads use no server: its metrics read 0.
		fixed = serveLayerMetrics(serveRep{})
	}
	tr.ops = append(tr.ops, untraced...)

	var rounds []map[string]float64
	tracedStart := time.Now()
	for r := 0; ; r++ {
		t0 := time.Now()
		if _, err := layerRound(l, w, in, rc.Seed, r, nil); err != nil {
			return nil, err
		}
		t1 := time.Now()
		res, err := layerRound(l, w, in, rc.Seed, r, rec)
		if err != nil {
			return nil, err
		}
		tracedTime, untracedTime := time.Since(t1), t1.Sub(t0)
		if r == 0 {
			tr.identityFailures = compareValues(w, untraced, res.ops, rc)
		}
		tr.ops = append(tr.ops, res.ops...)
		m := res.metrics()
		m["obs.trace_overhead_frac"] = tracedTime.Seconds()/untracedTime.Seconds() - 1
		rounds = append(rounds, m)
		mean := time.Since(tracedStart) / time.Duration(len(rounds))
		if time.Since(start)+mean > rc.Budget {
			break
		}
	}
	for _, m := range rc.Spec.PerLayer {
		if v, ok := fixed[m.Name]; ok {
			tr.metrics[m.Name] = v
			continue
		}
		var xs []float64
		for _, r := range rounds {
			v, ok := r[m.Name]
			if !ok {
				return nil, fmt.Errorf("per-layer metric %s is not measured", m.Name)
			}
			xs = append(xs, v)
		}
		tr.metrics[m.Name] = median(xs)
	}
	if rc.SpansPath != "" {
		if err := rec.appendJSONL(rc.SpansPath); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// compareValues counts the ops of the traced round whose values differ
// from the untraced run's op at the same position.
func compareValues(w *workload, untraced, traced []op, rc runConfig) int {
	failed := 0
	for i := range traced {
		if i >= len(untraced) || untraced[i].Err != nil || traced[i].Err != nil {
			continue // errors are counted by check
		}
		for _, m := range w.Metrics {
			if untraced[i].Counts[m].Cmp(traced[i].Counts[m]) != 0 {
				failed++
				fmt.Fprintf(rc.Log, "TRACED VALUE DIFFERS %s %s %s: untraced %v, traced %v\n",
					w.Name, traced[i].Pair.Name, m, untraced[i].Counts[m], traced[i].Counts[m])
				break
			}
		}
	}
	return failed
}

// roundTotals accumulates one traced round over its ops.
type roundTotals struct {
	ops                      []op
	parse                    time.Duration
	calls                    layerCall
	simS, kernelS, compileS  float64
	patterns, approxRounds   float64
	densitySum, densityCount float64
	allocBytes, gcCycles     uint64
}

// layerRound verifies every op of round r once through the layer adapter:
// the batch pairs in order, or serve-mixed's job list against a fresh
// store, each job parsing its BLIF texts as the server does. With a nil
// recorder it records no spans, reads no metrics and runs no probes, and
// its layer totals stay empty.
func layerRound(l *layers, w *workload, in *inputs, seed int64, r int, rec *spanRecorder) (*roundTotals, error) {
	l.setSeed(roundSeed(seed, r))
	if w.Serve {
		l.freshStore()
	}
	var items []*pair
	if w.Serve {
		for _, j := range in.Jobs {
			items = append(items, in.Pairs[j])
		}
	} else {
		items = in.Rounds[r%len(in.Rounds)]
	}
	t := &roundTotals{}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, p := range items {
		session := rec.newSession()
		id := rec.start("op", 0, session)
		var before vacsem.MetricsSnapshot
		if rec != nil {
			before = vacsem.Metrics()
		}
		var parsedE, parsedA *vacsem.Circuit
		var perr error
		parse := rec.timed("blif.parse", id, session, func() {
			if parsedE, perr = l.parse(p.ExactBLIF); perr == nil {
				parsedA, perr = l.parse(p.ApproxBLIF)
			}
		})
		if perr != nil {
			return nil, fmt.Errorf("%s: parse: %w", p.Name, perr)
		}
		// Batch sessions verify the generated circuits, as the public path
		// does; their parse is measured for blif.parse_s only.
		exact, approx := p.Exact, p.Approx
		if w.Serve {
			exact, approx = parsedE, parsedA
		}
		o := op{Pair: p}
		lc, err := l.verify(exact, approx, rec, id, session)
		o.Err = err
		if err == nil {
			o.Counts = lc.Counts
			if rec != nil {
				if err := l.probe(lc, exact, approx, rec, id, session); err != nil {
					return nil, err
				}
				t.add(lc, parse, before, vacsem.Metrics())
			}
		}
		rec.end(id)
		t.ops = append(t.ops, o)
	}
	runtime.ReadMemStats(&ms1)
	t.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	t.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	return t, nil
}

func (t *roundTotals) add(lc *layerCall, parse time.Duration, before, after vacsem.MetricsSnapshot) {
	c := &t.calls
	c.Build += lc.Build
	c.Run += lc.Run
	c.Base += lc.Base
	c.BaseSynth += lc.BaseSynth
	c.Encode += lc.Encode
	c.TaskTime += lc.TaskTime
	c.Tasks += lc.Tasks
	c.Trivial += lc.Trivial
	c.FromStore += lc.FromStore
	c.Requested += lc.Requested
	c.Deduped += lc.Deduped
	c.NodesBefore += lc.NodesBefore
	c.NodesAfter += lc.NodesAfter
	c.Clauses += lc.Clauses
	c.XorRows += lc.XorRows
	c.Stats.add(lc.Stats)
	t.parse += parse
	d := snapshotDelta(before, after)
	t.simS += d.histSum["counter.sim_component_seconds"]
	t.kernelS += d.histSum["sim.kernel_seconds"]
	t.compileS += d.histSum["sim.kernel_compile_seconds"]
	t.densitySum += d.histSum["approx.hash_row_density"]
	t.densityCount += d.histCount["approx.hash_row_density"]
	t.patterns += d.counter["sim.kernel_patterns"]
	t.approxRounds += d.counter["counter.approx_rounds"]
}

// metrics turns a round's totals into the per-layer metrics.
func (t *roundTotals) metrics() map[string]float64 {
	c := &t.calls
	st := &c.Stats
	task, encode := c.TaskTime.Seconds(), c.Encode.Seconds()
	f := func(v uint64) float64 { return float64(v) }
	return map[string]float64{
		"counter.sim_share":        ratio(t.simS, task),
		"sim.kernel_share":         ratio(t.kernelS, t.simS),
		"sim.compile_share":        ratio(t.compileS, t.simS),
		"sim.patterns_per_s":       ratio(t.patterns, t.kernelS),
		"counter.sim_calls":        f(st.SimCalls),
		"counter.sim_accept_ratio": ratio(f(st.SimCalls), f(st.SimCalls+st.SimRejected)),
		"counter.dpll_s":           max(0, task-encode-t.simS),
		"counter.decisions":        f(st.Decisions),
		"counter.propagations":     f(st.Propagations),
		"counter.components":       f(st.Components),
		"counter.learned":          f(st.Learned),
		"counter.cache_hit_ratio":  ratio(f(st.CacheHits), f(st.CacheHits+st.CacheStores)),
		"counter.cache_cross_hits": f(st.CacheCrossHits),
		"approx.rounds":            t.approxRounds,
		"approx.probes":            f(st.ApproxProbes),
		"approx.probe_reuse_ratio": ratio(f(st.ApproxProbesReused), f(st.ApproxProbes)),
		"approx.support_after":     f(st.SupportAfter),
		"approx.hash_density_mean": ratio(t.densitySum, t.densityCount),
		"counter.gauss_reductions": f(st.GaussReductions),
		"counter.xor_propagations": f(st.XorPropagations),
		"plan.build_s":             c.Build.Seconds(),
		"miter.base_s":             c.Base.Seconds(),
		"synth.base_s":             c.BaseSynth.Seconds(),
		"plan.cones_s":             max(0, (c.Build - c.Base - c.BaseSynth).Seconds()),
		"plan.dedup_ratio":         ratio(float64(c.Deduped), float64(c.Requested)),
		"synth.node_ratio":         ratio(float64(c.NodesAfter), float64(c.NodesBefore)),
		"cnf.encode_s":             encode,
		"cnf.clauses":              float64(c.Clauses),
		"cnf.xor_rows":             float64(c.XorRows),
		"blif.parse_s":             t.parse.Seconds(),
		"engine.execute_s":         c.Run.Seconds(),
		"engine.task_s":            task,
		"engine.overhead_s":        max(0, c.Run.Seconds()-task),
		"engine.tasks_trivial":     float64(c.Trivial),
		"go.alloc_mb_per_op":       ratio(float64(t.allocBytes)/1e6, float64(len(t.ops))),
		"go.gc_cycles":             float64(t.gcCycles),
	}
}

// serveLayerMetrics reads the service and store metrics of one rep: the
// server's /metrics deltas, and each job's queue and run time against its
// client-observed latency.
func serveLayerMetrics(rep serveRep) map[string]float64 {
	var queue, runS, http []float64
	for _, o := range rep.Ops {
		lat := float64(o.Latency.Nanoseconds()) / 1e6
		if o.Err != nil || lat == 0 {
			continue
		}
		queue = append(queue, o.QueuedMS/lat)
		runS = append(runS, o.RunMS/lat)
		http = append(http, (lat-o.QueuedMS-o.RunMS)/lat)
	}
	delta := func(name string) float64 { return rep.After["vacsem_"+name] - rep.Before["vacsem_"+name] }
	hits, misses := delta("store_cone_hits"), delta("store_cone_misses")
	return map[string]float64{
		"serve.queue_share": median(queue),
		"serve.run_share":   median(runS),
		"serve.http_share":  median(http),
		"serve.rejected":    delta("serve_jobs_rejected"),
		"store.cone_hits":   hits,
		"store.cone_misses": misses,
		"store.cone_stores": delta("store_cone_stores"),
		"store.hit_ratio":   ratio(hits, hits+misses),
		"store.cones":       rep.After["vacsem_store_cones"],
	}
}

// metricsDelta is the change of the process-wide metrics registry over
// one call.
type metricsDelta struct {
	counter, histSum, histCount map[string]float64
}

func snapshotDelta(before, after vacsem.MetricsSnapshot) metricsDelta {
	d := metricsDelta{
		counter:   make(map[string]float64),
		histSum:   make(map[string]float64),
		histCount: make(map[string]float64),
	}
	for _, c := range after.Counters {
		d.counter[c.Name] += float64(c.Value)
	}
	for _, c := range before.Counters {
		d.counter[c.Name] -= float64(c.Value)
	}
	for _, h := range after.Histograms {
		d.histSum[h.Name] += h.Sum
		d.histCount[h.Name] += float64(h.Count)
	}
	for _, h := range before.Histograms {
		d.histSum[h.Name] -= h.Sum
		d.histCount[h.Name] -= float64(h.Count)
	}
	return d
}
