// Package plan compiles verification sessions: it turns a request for
// one or more average-error metrics over a circuit pair into a
// deduplicated list of single-output counting tasks that one engine
// backend executes in a single run.
//
// Every metric of Section II reduces to weighted one-counts of
// deviation bits built over the same base miter (both circuit copies
// instantiated over shared inputs). The plan layer therefore
//
//  1. builds and synthesizes that base once per session,
//  2. attaches one metric head per requested metric (XOR-reduce for ER,
//     per-bit XORs for MHD, the |y - y'| subtractor for MED, subtractor
//     plus comparator for the threshold probability),
//  3. cuts one logic cone per metric output bit, synthesizes each cone,
//     and deduplicates structurally identical cones by a canonical key —
//     both within a metric (repeated deviation bits) and across metrics
//     (e.g. MED's low bit compressing to the same XOR as MHD's bit 0),
//  4. assembles each metric's outcome from its tasks' (possibly shared)
//     counts.
//
// Counts are function-determined, so deduplication never changes a
// metric value: a session over {ER, MED, MHD} is bit-identical to three
// standalone runs at any worker count.
package plan

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/big"
	"strings"
	"time"

	"vacsem/internal/circuit"
	"vacsem/internal/counter"
	"vacsem/internal/engine"
	"vacsem/internal/miter"
	"vacsem/internal/obs"
	"vacsem/internal/synth"
)

// Session-level metrics: how much work the dedup removed.
var (
	mPlans        = obs.Default.Counter("plan.sessions")
	mTasks        = obs.Default.Counter("plan.tasks")
	mTasksDeduped = obs.Default.Counter("plan.tasks_deduped")
)

// Kind selects an average-error metric.
type Kind int

const (
	// ER is the error rate (Eq. 2).
	ER Kind = iota
	// MED is the mean error distance (Eq. 4).
	MED
	// MHD is the mean Hamming distance.
	MHD
	// ThresholdProb is P(|int(y) - int(y')| > t), the MACACO-style
	// cumulative metric; Spec.Threshold carries t.
	ThresholdProb
)

// Spec requests one metric in a session.
type Spec struct {
	Kind Kind
	// Threshold is the deviation threshold t of ThresholdProb; ignored
	// by the other kinds.
	Threshold *big.Int
}

// MetricName is the display name of the requested metric, as it appears
// in Result.Metric, trace spans and progress events ("ER", "MED",
// "MHD", "P(dev>t)").
func (s Spec) MetricName() string {
	switch s.Kind {
	case ER:
		return "ER"
	case MED:
		return "MED"
	case MHD:
		return "MHD"
	case ThresholdProb:
		return fmt.Sprintf("P(dev>%v)", s.Threshold)
	default:
		return fmt.Sprintf("metric(%d)", int(s.Kind))
	}
}

// Metric is one compiled metric of a plan: its output bits, their
// weights, and the session task computing each bit's count.
type Metric struct {
	// Name is Spec.MetricName() (or the caller's name for FromMiter).
	Name string
	// Outputs names the metric's deviation bits ("f1", "d0", ...).
	Outputs []string
	// Weights holds one weight per output bit; the metric numerator is
	// sum_k Weights[k] * count(task TaskOf[k]). The plan owns the
	// slice (defensive copies of any caller-supplied weights).
	Weights []*big.Int
	// TaskOf maps each output bit to its session task index.
	TaskOf []int
	// Owner marks, per output bit, whether this bit is its task's
	// representative (the first bit across the session that produced
	// the task). Exactly one bit per task owns it; owners carry the
	// task's runtime and counter statistics in results, so per-metric
	// stats sum to the session total without double counting.
	Owner []bool
}

// Plan is a compiled verification session, ready to run on a backend.
type Plan struct {
	// Session labels the plan in spans and results ("ER+MED+MHD").
	Session string
	// Exec is the combined session miter: one primary output per task,
	// in task order (engine.Request.Miter).
	Exec *circuit.Circuit
	// Tasks is the deduplicated task list.
	Tasks []engine.CountTask
	// Metrics holds one compiled metric per requested spec, in order.
	Metrics []Metric
	// TotalInputs is the shared input count (the count denominator is
	// 2^TotalInputs).
	TotalInputs int
	// TasksRequested counts metric output bits before deduplication.
	TasksRequested int
	// BaseNodesBefore/After record the shared base miter's gate count
	// around its (single) synthesis pass; equal when synthesis is off
	// or the plan came from a custom miter.
	BaseNodesBefore, BaseNodesAfter int
}

// TasksDeduped reports how many requested output bits were satisfied by
// another bit's task.
func (p *Plan) TasksDeduped() int { return p.TasksRequested - len(p.Tasks) }

// Build compiles a session over a circuit pair: one shared base miter
// (built and synthesized once), one metric head per spec, and a
// deduplicated task list.
func Build(ctx context.Context, exact, approx *circuit.Circuit, specs []Spec, noSynth bool) (*Plan, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("plan: no metrics requested")
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		if s.Kind == ThresholdProb {
			if err := miter.CheckThreshold(s.Threshold); err != nil {
				return nil, err
			}
		}
		names[i] = s.MetricName()
	}
	session := strings.Join(names, "+")

	_, span := obs.Start(ctx, "plan", obs.Fields{"session": session, "metrics": len(specs)})
	b, err := miter.NewBase(exact, approx, exact.Name+"_miter")
	if err != nil {
		span.End(obs.Fields{"error": err.Error()})
		return nil, err
	}
	p := &Plan{
		Session:         session,
		TotalInputs:     b.Circ.NumInputs(),
		BaseNodesBefore: b.Circ.NumGates(),
	}
	if !noSynth {
		b = b.Compress(synth.Compress)
	}
	p.BaseNodesAfter = b.Circ.NumGates()

	// Attach one head per metric and register its bits as outputs of
	// the combined circuit, one output per requested task.
	c := b.Circ
	p.Metrics = make([]Metric, len(specs))
	for i, s := range specs {
		m := Metric{Name: names[i]}
		switch s.Kind {
		case ER:
			c.AddOutput(miter.ERHead(c, b.YE, b.YA), "f1")
			m.Outputs = []string{"f1"}
			m.Weights = []*big.Int{big.NewInt(1)}
		case MHD:
			for j, d := range miter.HDHead(c, b.YE, b.YA) {
				name := fmt.Sprintf("d%d", j)
				c.AddOutput(d, name)
				m.Outputs = append(m.Outputs, name)
				m.Weights = append(m.Weights, big.NewInt(1))
			}
		case MED:
			for j, id := range miter.MEDHead(c, b.YE, b.YA) {
				name := fmt.Sprintf("f%d", j+1)
				c.AddOutput(id, name)
				m.Outputs = append(m.Outputs, name)
				m.Weights = append(m.Weights, new(big.Int).Lsh(big.NewInt(1), uint(j)))
			}
		case ThresholdProb:
			c.AddOutput(miter.ThresholdHead(c, b.YE, b.YA, s.Threshold), "f1")
			m.Outputs = []string{"f1"}
			m.Weights = []*big.Int{big.NewInt(1)}
		default:
			span.End(obs.Fields{"error": "unknown metric kind"})
			return nil, fmt.Errorf("plan: unknown metric kind %d", int(s.Kind))
		}
		p.Metrics[i] = m
	}

	p.compile(c, noSynth)
	p.finish(span)
	return p, nil
}

// FromMiter compiles a session from a caller-supplied deviation miter:
// one metric whose value is sum_j weights[j] * P(output_j = 1). The
// miter is synthesized once up front (mirroring the standard path's
// base synthesis) and its output cones deduplicated like any other
// session. The weights are defensively copied.
func FromMiter(ctx context.Context, name string, m *circuit.Circuit, weights []*big.Int, noSynth bool) (*Plan, error) {
	if len(weights) != m.NumOutputs() {
		return nil, fmt.Errorf("plan: %d weights for %d outputs", len(weights), m.NumOutputs())
	}
	_, span := obs.Start(ctx, "plan", obs.Fields{"session": name, "metrics": 1})
	work := m
	if noSynth {
		work = m.Clone() // compile re-purposes the outputs; keep the caller's copy intact
	} else {
		work = synth.Compress(m)
	}
	met := Metric{Name: name}
	for j := 0; j < work.NumOutputs(); j++ {
		met.Outputs = append(met.Outputs, work.OutputName(j))
		met.Weights = append(met.Weights, new(big.Int).Set(weights[j]))
	}
	p := &Plan{
		Session:         name,
		TotalInputs:     work.NumInputs(),
		BaseNodesBefore: m.NumGates(),
		BaseNodesAfter:  work.NumGates(),
		Metrics:         []Metric{met},
	}
	p.compile(work, noSynth)
	p.finish(span)
	return p, nil
}

// finish records the compiled plan in the metrics registry and closes
// its trace span.
func (p *Plan) finish(span obs.Span) {
	mPlans.Inc()
	mTasks.Add(uint64(len(p.Tasks)))
	mTasksDeduped.Add(uint64(p.TasksDeduped()))
	span.End(obs.Fields{
		"tasks_requested": p.TasksRequested, "tasks": len(p.Tasks),
		"tasks_deduped":     p.TasksDeduped(),
		"base_nodes_before": p.BaseNodesBefore, "base_nodes_after": p.BaseNodesAfter,
	})
}

// compile cuts one cone per output of c (the session's requested bits,
// in metric order), synthesizes and deduplicates them, and re-purposes
// c as the combined execution miter with one output per unique task.
// The per-metric Outputs/Weights must already be set; TaskOf and Owner
// are filled here.
func (p *Plan) compile(c *circuit.Circuit, noSynth bool) {
	type group struct {
		cone  *circuit.Circuit
		root  int // node id in c
		label string
		reqs  []int // request indexes mapped to this group
	}

	nReq := 0
	for i := range p.Metrics {
		nReq += len(p.Metrics[i].Outputs)
	}
	p.TasksRequested = nReq

	// Level 1: key the raw cones, so structurally identical bits are
	// synthesized only once.
	var groups []*group
	rawKey := make(map[string]int)
	ri := 0
	for i := range p.Metrics {
		for k := range p.Metrics[i].Outputs {
			label := p.Metrics[i].Name + "/" + p.Metrics[i].Outputs[k]
			cone, _ := c.ExtractCone(ri)
			key, _ := coneKey(cone)
			gi, ok := rawKey[key]
			if !ok {
				gi = len(groups)
				rawKey[key] = gi
				groups = append(groups, &group{cone: cone, root: c.Outputs[ri], label: label})
			}
			groups[gi].reqs = append(groups[gi].reqs, ri)
			ri++
		}
	}

	// Level 2: synthesize each unique cone and re-key — synthesis
	// canonicalizes structure (e.g. MED's conditional negate cancels to
	// the bare XOR that is MHD's bit), merging groups that only now
	// became identical.
	type task struct {
		ct   engine.CountTask
		root int
		reqs []int
	}
	var tasks []*task
	compKey := make(map[string]int)
	for _, g := range groups {
		comp := g.cone
		if !noSynth {
			comp = synth.Compress(g.cone)
		}
		key, keyInputs := coneKey(comp)
		ti, ok := compKey[key]
		if !ok {
			ti = len(tasks)
			compKey[key] = ti
			comp.Name = c.Name + "_" + g.label
			tasks = append(tasks, &task{
				ct: engine.CountTask{
					Sub: comp, Label: g.label,
					Key: key, KeyInputs: keyInputs,
					NodesBefore: g.cone.NumGates(),
					NodesAfter:  comp.NumGates(),
				},
				root: g.root,
			})
		}
		tasks[ti].reqs = append(tasks[ti].reqs, g.reqs...)
	}

	// Re-purpose c as the execution miter: one output per unique task.
	c.ClearOutputs()
	taskOf := make([]int, nReq)
	owner := make([]int, len(tasks))
	for ti, t := range tasks {
		c.AddOutput(t.root, t.ct.Label)
		own := t.reqs[0]
		for _, r := range t.reqs {
			taskOf[r] = ti
			if r < own {
				own = r
			}
		}
		owner[ti] = own
	}
	p.Exec = c
	p.Tasks = make([]engine.CountTask, len(tasks))
	for ti, t := range tasks {
		p.Tasks[ti] = t.ct
	}
	ri = 0
	for i := range p.Metrics {
		m := &p.Metrics[i]
		m.TaskOf = make([]int, len(m.Outputs))
		m.Owner = make([]bool, len(m.Outputs))
		for k := range m.Outputs {
			m.TaskOf[k] = taskOf[ri]
			m.Owner[k] = owner[taskOf[ri]] == ri
			ri++
		}
	}
}

// coneKey serializes the logic cone of a single-output circuit into a
// canonical structural key. Two cones get the same key iff they compute
// the same node structure:
//
//   - only nodes reachable from the output are keyed (dangling gates or
//     inputs left behind by synthesis cannot differ the key),
//   - nodes, inputs included, are identified by their dense rank in id
//     order (ids are topological, so isomorphic cones rank identically),
//   - session input positions and names appear nowhere.
//
// A cone's count depends only on its structure, so isomorphic cones over
// different session inputs have equal counts and share one task. The
// key is exact — no hashing — so equal keys imply isomorphic cones and
// therefore equal counts; dedup is sound by construction. That same
// property makes the key a *cross-run* content address (the store tier
// of internal/store), shared across sessions of any input width.
//
// inputs reports how many inputs the cone reaches — the cone's own
// input space is 2^inputs, which is the space the store normalizes
// counts to (unreachable inputs are free and scale any count by an
// exact power of two).
func coneKey(c *circuit.Circuit) (key string, inputs int) {
	mark := c.ConeMark(c.Outputs[0])
	rank := make([]int, len(c.Nodes))
	next := 0
	buf := make([]byte, 0, 16*len(c.Nodes))
	for id := 0; id < len(c.Nodes); id++ {
		if !mark[id] {
			continue
		}
		rank[id] = next
		next++
		nd := &c.Nodes[id]
		buf = append(buf, byte(nd.Kind))
		if nd.Kind == circuit.Input {
			inputs++
		}
		for _, f := range nd.Fanins {
			buf = binary.AppendUvarint(buf, uint64(rank[f]))
		}
	}
	buf = binary.AppendUvarint(buf, uint64(rank[c.Outputs[0]]))
	return string(buf), inputs
}

// ProgressEvent reports the completion of one metric output bit. When
// several bits share one task, each gets an event as the task
// completes; only the owning bit carries the task's runtime and stats
// (the others are flagged Shared), so per-metric event stats sum to the
// session totals.
type ProgressEvent struct {
	Metric  string
	Backend string
	// Index is the bit's output index within its metric; Output its name.
	Index  int
	Output string
	Count  *big.Int
	Weight *big.Int
	// Done counts the metric's completed bits so far (including this
	// one); Total is the metric's bit count.
	Done, Total int
	// SessionDone counts completed unique tasks across the whole
	// session; SessionTotal is the session's task count.
	SessionDone, SessionTotal int
	// Shared marks a bit whose count came from a task owned by another
	// bit (deduplicated work).
	Shared  bool
	Runtime time.Duration
	Stats   counter.Stats
	Trivial bool
	// Approx marks an (ε, δ)-estimated count (the approx backend).
	Approx bool
	// FromStore marks a count served by the cross-request cone store
	// rather than computed in this run.
	FromStore bool
	// RunID identifies the verification run the event belongs to (0 when
	// the caller did not allocate one); TUs is the event time in
	// microseconds on the process-monotonic obs.SinceStart clock. Both
	// are additive — existing consumers of the JSON form see the same
	// keys as before plus these two.
	RunID uint64
	TUs   int64
}

// ProgressFunc observes per-bit completion events.
type ProgressFunc func(ProgressEvent)

// SubResult reports one metric output bit: the result of the task that
// produced it (Count, a copy, is always non-nil) plus the bit's place in
// its metric. Every bit carries its task's flags — a shared bit's count
// is approximate, trivial or served from the store no matter which bit
// reports it.
type SubResult struct {
	engine.TaskResult
	Output      string
	Weight      *big.Int
	NodesBefore int
	NodesAfter  int // after synthesis
	// Shared marks a bit whose count was produced by a task owned by
	// another bit of the session (possibly of a different metric); its
	// Runtime and Stats are zero — the owner reports them — so summing
	// Stats over any set of Subs never double-counts work.
	Shared bool
	// Task is the session task index that produced Count.
	Task int
}

// MetricOutcome is one metric's assembled result.
type MetricOutcome struct {
	Name  string
	Count *big.Int // weighted numerator: sum_k Weights[k] * count_k
	Subs  []SubResult
	// Stats aggregates the counter statistics of the tasks this metric
	// owns; summing over all metrics of a session gives the session
	// totals exactly once.
	Stats counter.Stats
}

// Outcome is a completed session.
type Outcome struct {
	Metrics []MetricOutcome
	// TaskResults are the raw per-task results, indexed like Plan.Tasks.
	TaskResults []engine.TaskResult
}

// Run executes the plan on a backend through engine.Execute. Each task
// event of the runner fans out to a progress event for every metric bit
// the task satisfies, in session order. The runner serializes its
// progress callbacks, so the adapter's counters need no locking.
func (p *Plan) Run(ctx context.Context, be engine.Backend, cfg engine.Config, progress ProgressFunc) (*Outcome, error) {
	req := &engine.Request{
		Session: p.Session,
		Miter:   p.Exec,
		Tasks:   p.Tasks,
		Config:  cfg,
	}
	// The adapter is also installed while an event sink is, so the trace
	// and the live stream see per-bit progress even when the caller
	// passed no callback.
	if progress != nil || obs.Enabled() {
		runID := obs.RunFrom(ctx)
		refs := p.taskRefs()
		metricDone := make([]int, len(p.Metrics))
		req.Progress = func(te engine.TaskEvent) {
			for _, r := range refs[te.Index] {
				m := &p.Metrics[r.metric]
				metricDone[r.metric]++
				ev := ProgressEvent{
					Metric: m.Name, Backend: te.Backend,
					Index: r.output, Output: m.Outputs[r.output],
					Count: te.Count, Weight: m.Weights[r.output],
					Done: metricDone[r.metric], Total: len(m.Outputs),
					SessionDone: te.Done, SessionTotal: te.Total,
					Shared:    !m.Owner[r.output],
					Trivial:   te.Trivial,
					Approx:    te.Approx,
					FromStore: te.FromStore,
					RunID:     runID,
					TUs:       obs.SinceStart().Microseconds(),
				}
				if m.Owner[r.output] {
					ev.Runtime, ev.Stats = te.Runtime, te.Stats
				}
				if progress != nil {
					progress(ev)
				}
				if obs.Enabled() {
					obs.Event(ctx, "progress", obs.Fields{
						"metric": ev.Metric, "output": ev.Output,
						"count": ev.Count.String(), "done": ev.Done, "total": ev.Total,
						"session_done": ev.SessionDone, "session_total": ev.SessionTotal,
						"shared": ev.Shared, "trivial": ev.Trivial, "approx": ev.Approx,
						"from_store": ev.FromStore,
					})
				}
			}
		}
	}
	results, err := engine.Execute(ctx, be, req)
	if err != nil {
		return nil, err
	}
	out := &Outcome{
		Metrics:     make([]MetricOutcome, len(p.Metrics)),
		TaskResults: results,
	}
	var weighted big.Int
	for mi := range p.Metrics {
		m := &p.Metrics[mi]
		mo := MetricOutcome{
			Name:  m.Name,
			Count: new(big.Int),
			Subs:  make([]SubResult, len(m.Outputs)),
		}
		for k, ti := range m.TaskOf {
			res := &results[ti]
			sub := SubResult{
				TaskResult:  *res,
				Output:      m.Outputs[k],
				Weight:      new(big.Int).Set(m.Weights[k]),
				NodesBefore: p.Tasks[ti].NodesBefore,
				NodesAfter:  p.Tasks[ti].NodesAfter,
				Shared:      !m.Owner[k],
				Task:        ti,
			}
			sub.Count = new(big.Int).Set(res.Count)
			if m.Owner[k] {
				mo.Stats.Add(res.Stats)
			} else {
				sub.Runtime, sub.Stats = 0, counter.Stats{}
			}
			mo.Subs[k] = sub
			weighted.Mul(res.Count, m.Weights[k])
			mo.Count.Add(mo.Count, &weighted)
		}
		out.Metrics[mi] = mo
	}
	return out, nil
}

type ref struct{ metric, output int }

// taskRefs lists, per task, the (metric, output) bits it satisfies, in
// session order (the owner first).
func (p *Plan) taskRefs() [][]ref {
	refs := make([][]ref, len(p.Tasks))
	for mi := range p.Metrics {
		for k, ti := range p.Metrics[mi].TaskOf {
			refs[ti] = append(refs[ti], ref{metric: mi, output: k})
		}
	}
	return refs
}
