package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sinks is the set of destinations an event line goes to: the installed
// trace file and, when Stream has subscribers, the live stream. The
// pointer in out is nil while neither exists, so the disabled path of
// every producer is one atomic pointer load.
type sinks struct {
	file *Tracer
	live bool
}

var (
	out     atomic.Pointer[sinks]
	sinksMu sync.Mutex // serializes refreshes of out
	file    *Tracer    // guarded by sinksMu
)

// refresh recomputes out from the installed trace file and Stream's
// subscriber count. Every change to either calls it after the change,
// and refreshes are serialized, so the last one reads the final state.
func refresh() {
	sinksMu.Lock()
	defer sinksMu.Unlock()
	live := Stream.Active()
	if file == nil && !live {
		out.Store(nil)
		return
	}
	out.Store(&sinks{file: file, live: live})
}

// SetTracer installs t as the process-wide trace file sink (nil removes
// it). Long-running solves capture the tracer once at start, so an
// install mid-solve takes effect on the next solve.
func SetTracer(t *Tracer) {
	sinksMu.Lock()
	file = t
	sinksMu.Unlock()
	refresh()
}

// Active returns the installed trace file sink, or nil. Search-scale
// events (component, cache, stats, sim_decision, sim_batch, bdd_growth)
// are emitted only while it is non-nil: a live subscriber alone does not
// turn them on.
func Active() *Tracer {
	if s := out.Load(); s != nil {
		return s.file
	}
	return nil
}

// Enabled reports whether an event emitted now would reach a sink.
// Producers that assemble a payload only to emit it check it first.
func Enabled() bool { return out.Load() != nil }

// scope is what a context tells the producers: the run an event belongs
// to and the span it nests under.
type scope struct {
	run  uint64
	span spanID
}

type scopeKey struct{}

func scopeFrom(ctx context.Context) scope {
	if ctx == nil {
		return scope{}
	}
	sc, _ := ctx.Value(scopeKey{}).(scope)
	return sc
}

// processStart anchors the process-wide monotonic clock of every event
// line and ProgressEvent timestamp, so events from different layers of
// one process order consistently.
var processStart = time.Now()

// SinceStart returns the monotonic time elapsed since the obs package
// was initialized (process start, for practical purposes).
func SinceStart() time.Duration { return time.Since(processStart) }

// runIDs issues process-unique run identifiers.
var runIDs atomic.Uint64

// NextRunID returns a fresh process-unique run id. internal/core stamps
// one on every verification session; every event line and progress
// event of the session carries it, so a live subscriber can follow one
// run and a live scrape can be correlated with the trace file.
func NextRunID() uint64 { return runIDs.Add(1) }

// WithRun returns a context carrying the given run id: every event line
// emitted under it carries the id, and the live stream routes the line
// to the run's subscribers.
func WithRun(ctx context.Context, id uint64) context.Context {
	sc := scopeFrom(ctx)
	sc.run = id
	return context.WithValue(ctx, scopeKey{}, sc)
}

// RunFrom extracts the run id from a context (0 when none).
func RunFrom(ctx context.Context) uint64 { return scopeFrom(ctx).run }
