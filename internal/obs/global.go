package obs

import (
	"context"
	"sync/atomic"
	"time"
)

// active holds the installed tracer, or nil when tracing is disabled.
// The disabled fast path is a single atomic pointer load.
var active atomic.Pointer[Tracer]

// SetTracer installs t as the process-wide tracer (nil disables
// tracing). Long-running solves capture the tracer once at start, so an
// install mid-solve takes effect on the next solve.
func SetTracer(t *Tracer) {
	if t == nil {
		active.Store(nil)
		return
	}
	active.Store(t)
}

// Active returns the installed tracer, or nil when tracing is disabled.
func Active() *Tracer { return active.Load() }

// Enabled reports whether a tracer is installed.
func Enabled() bool { return active.Load() != nil }

type spanCtxKey struct{}

// WithSpan returns a context carrying the given span as the parent for
// downstream instrumentation (core's run span flows to the engine's
// backend span, which flows to each sub-miter span, which flows to the
// counter's component/cache/sim_decision events).
func WithSpan(ctx context.Context, id SpanID) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, id)
}

// SpanFrom extracts the parent span from a context (0 when none).
func SpanFrom(ctx context.Context) SpanID {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(spanCtxKey{}).(SpanID); ok {
		return id
	}
	return 0
}

// processStart anchors the process-wide monotonic clock shared by the
// stream hub and ProgressEvent timestamps, so events from different
// layers of one process order consistently.
var processStart = time.Now()

// SinceStart returns the monotonic time elapsed since the obs package
// was initialized (process start, for practical purposes).
func SinceStart() time.Duration { return time.Since(processStart) }

// runIDs issues process-unique run identifiers.
var runIDs atomic.Uint64

// NextRunID returns a fresh process-unique run id. internal/core stamps
// one on every verification session; progress events, stream events
// and trace spans all carry it, so a live scrape can be correlated
// with the trace file after the fact.
func NextRunID() uint64 { return runIDs.Add(1) }

type runCtxKey struct{}

// WithRun returns a context carrying the given run id for downstream
// instrumentation (the engine's task events and the plan's progress
// events attribute themselves to the run they serve).
func WithRun(ctx context.Context, id uint64) context.Context {
	return context.WithValue(ctx, runCtxKey{}, id)
}

// RunFrom extracts the run id from a context (0 when none).
func RunFrom(ctx context.Context) uint64 {
	if ctx == nil {
		return 0
	}
	if id, ok := ctx.Value(runCtxKey{}).(uint64); ok {
		return id
	}
	return 0
}
