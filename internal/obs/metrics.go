// Package obs is the observability layer of the verification stack: a
// zero-dependency (stdlib-only) metrics registry of atomic counters,
// gauges and fixed-bucket histograms, plus one event producer — Start,
// Span.End and Event — whose JSON lines go to two sinks: the trace file
// installed with SetTracer (buffered, lossless) and the live Stream hub
// (bounded per subscriber, routed by run).
//
// The package is designed around a no-op default: with no sink
// installed (the normal case), every producer pays one atomic pointer
// load — or, where the instrumentation caches the trace file per solve,
// one nil check — and metric updates are single atomic adds. Emitting
// events never changes results.
//
// Event stream schema (one JSON object per line; run_id is present when
// the context carries a run, which every verification session does):
//
//	{"ev":"span_start","span":KIND,"id":N,"parent":N,"t_us":T,"run_id":R, ...fields}
//	{"ev":"span_end",  "span":KIND,"id":N,"parent":N,"t_us":T,"dur_us":D,"run_id":R, ...fields}
//	{"ev":EVENT,"parent":N,"t_us":T,"run_id":R, ...fields}
//
// t_us is microseconds on the SinceStart clock: when the line's moment
// happened, so a span opened with StartAt (a task counted inside a
// batch, stamped at its start) is written after lines with later t_us.
// Span kinds used by the
// stack: "job" (one vacsem-serve job), "session" (one verification
// session, internal/core), "plan" (compiling it, internal/plan),
// "backend" (one engine.Execute), "sub_miter" (one counting task,
// whichever path resolved it), "run" (one metric's assembled value).
// Point events: "progress" (one metric bit done, internal/plan) and the
// search events, emitted only while a trace file is installed:
// "component", "cache", "stats" (periodic counter.Stats snapshot
// delta), "sim_decision" (the dynamic controller's accept/reject with
// the density score), "sim_batch" (one multi-output simulation sweep),
// "bdd_growth" (node-count doublings).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v is larger (atomic high-water mark).
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// LatencyBuckets is the default histogram bucketing for durations in
// seconds: 1µs .. 10min in decades, with 2x/5x subdivisions in the
// working range.
var LatencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5, 10, 60, 600,
}

// Histogram is a fixed-bucket histogram with atomic buckets, safe for
// concurrent Observe. Bucket i counts observations <= bounds[i]; the
// final bucket counts the overflow.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1
	count   atomic.Uint64
	sumBits atomic.Uint64 // math.Float64bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, buckets: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// HistogramSnapshot is a consistent-enough copy of a histogram for
// reporting (buckets are read individually; exactness is not required
// while observations race).
type HistogramSnapshot struct {
	Name    string    `json:"name"`
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"` // len(Bounds)+1, last = overflow
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// CounterSnapshot is one named counter value.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnapshot is one named gauge value.
type GaugeSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// Snapshot is a point-in-time copy of a registry, sorted by name, ready
// for table or JSON rendering.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters"`
	Gauges     []GaugeSnapshot     `json:"gauges"`
	Histograms []HistogramSnapshot `json:"histograms"`
}

// Registry is a namespace of metrics. Metric handles are get-or-create
// and stable, so hot paths resolve them once and update lock-free.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the instrumented packages write
// to.
var Default = NewRegistry()

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (nil bounds = LatencyBuckets). Bounds of
// an existing histogram are not changed.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Snapshot copies every metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snapshot
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Name:    name,
			Bounds:  append([]float64(nil), h.bounds...),
			Buckets: make([]uint64, len(h.buckets)),
			Count:   h.Count(),
			Sum:     h.Sum(),
		}
		for i := range h.buckets {
			hs.Buckets[i] = h.buckets[i].Load()
		}
		s.Histograms = append(s.Histograms, hs)
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// WriteTable renders the snapshot as a human-readable table.
func (s Snapshot) WriteTable(w io.Writer) {
	if len(s.Counters) > 0 {
		fmt.Fprintf(w, "%-36s %16s\n", "COUNTER", "VALUE")
		for _, c := range s.Counters {
			fmt.Fprintf(w, "%-36s %16d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(w, "%-36s %16s\n", "GAUGE", "VALUE")
		for _, g := range s.Gauges {
			fmt.Fprintf(w, "%-36s %16d\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(w, "%-36s %10s %14s %14s\n", "HISTOGRAM", "COUNT", "SUM", "MEAN")
		for _, h := range s.Histograms {
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(w, "%-36s %10d %14.6g %14.6g\n", h.Name, h.Count, h.Sum, mean)
		}
	}
}

// WriteJSON renders the snapshot as one JSON object.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteMetrics dumps the default registry in the format of the
// -obs-metrics flag: "table" or "json".
func WriteMetrics(w io.Writer, format string) error {
	snap := Default.Snapshot()
	switch format {
	case "table":
		snap.WriteTable(w)
		return nil
	case "json":
		return snap.WriteJSON(w)
	default:
		return fmt.Errorf("unknown -obs-metrics format %q (want table or json)", format)
	}
}
