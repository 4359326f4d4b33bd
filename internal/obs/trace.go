package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// spanID identifies one span of the process's event stream. 0 means
// "no span" (events parented to 0 are top-level).
type spanID uint64

// Fields carries the event-specific payload. Values must be
// JSON-marshalable; encoding/json sorts map keys, so the line layout is
// deterministic for a given payload.
type Fields map[string]any

// reserved event keys: the header every line carries. Fields entries
// with these names are dropped.
var reservedKeys = [...]string{"ev", "t_us", "run_id", "span", "id", "parent", "dur_us"}

// DefaultHotEvery is the default sampling interval for hot-path events
// (per-component and per-cache-operation): one traced event per
// DefaultHotEvery occurrences. Span events and controller decisions are
// never sampled.
const DefaultHotEvery = 4096

// spanIDs issues process-unique span ids.
var spanIDs atomic.Uint64

// Span is one open span. It carries its own identity and start time, so
// ending it needs no lookup; the zero Span (returned while no sink is
// installed) ends as a no-op.
type Span struct{ *span }

type span struct {
	id, parent spanID
	run        uint64
	kind       string
	start      time.Duration // on the SinceStart clock
}

// Start opens a span of the given kind under ctx's span and run, emits
// its span_start line, and returns a context carrying the span for the
// events and spans nested under it. With no sink installed it costs one
// atomic load and returns ctx unchanged with the zero Span.
func Start(ctx context.Context, kind string, fields Fields) (context.Context, Span) {
	if s := out.Load(); s != nil {
		return start(s, ctx, kind, SinceStart(), fields)
	}
	return ctx, Span{}
}

// StartAt is Start for a span whose work began at an earlier instant:
// its span_start line is stamped at that instant. A task counted inside
// a batch opens its span when the batch reports it, from when its work
// began.
func StartAt(ctx context.Context, kind string, at time.Time, fields Fields) (context.Context, Span) {
	if s := out.Load(); s != nil {
		return start(s, ctx, kind, at.Sub(processStart), fields)
	}
	return ctx, Span{}
}

func start(s *sinks, ctx context.Context, kind string, at time.Duration, fields Fields) (context.Context, Span) {
	sc := scopeFrom(ctx)
	sp := &span{id: spanID(spanIDs.Add(1)), parent: sc.span, run: sc.run, kind: kind, start: at}
	emit(s, sc.run, Fields{"ev": "span_start", "span": kind, "id": uint64(sp.id), "parent": uint64(sp.parent)}, sp.start, fields)
	return context.WithValue(ctx, scopeKey{}, scope{run: sc.run, span: sp.id}), Span{sp}
}

// End emits the span's span_end line with its duration. It is a no-op on
// the zero Span, and the line is dropped when no sink is installed by
// the time the span ends.
func (sp Span) End(fields Fields) {
	if sp.span != nil {
		sp.end(SinceStart(), fields)
	}
}

// EndAt is End with the span ending at the instant at, so its dur_us is
// exactly the time from the span's start to at: a caller that also
// times the work reads both from the same two instants.
func (sp Span) EndAt(at time.Time, fields Fields) {
	if sp.span != nil {
		sp.end(at.Sub(processStart), fields)
	}
}

func (sp *span) end(at time.Duration, fields Fields) {
	s := out.Load()
	if s == nil {
		return
	}
	emit(s, sp.run, Fields{
		"ev": "span_end", "span": sp.kind, "id": uint64(sp.id), "parent": uint64(sp.parent),
		"dur_us": (at - sp.start).Microseconds(),
	}, at, fields)
}

// Event emits a point event of the given kind under ctx's span and run.
// With no sink installed it costs one atomic load.
func Event(ctx context.Context, kind string, fields Fields) {
	if s := out.Load(); s != nil {
		sc := scopeFrom(ctx)
		emit(s, sc.run, Fields{"ev": kind, "parent": uint64(sc.span)}, SinceStart(), fields)
	}
}

// emit is the one encoder of the event stream: it merges fields into the
// header (header wins on key collisions), stamps t_us and run_id, and
// sends the same line to the trace file and to the run's live
// subscribers.
func emit(s *sinks, run uint64, header Fields, at time.Duration, fields Fields) {
	for k, v := range fields {
		if !reserved(k) {
			header[k] = v
		}
	}
	header["t_us"] = at.Microseconds()
	if run != 0 {
		header["run_id"] = run
	}
	line, err := json.Marshal(header)
	if err != nil {
		// Unmarshalable payload: degrade to an error event rather than
		// corrupting the stream.
		line, _ = json.Marshal(Fields{"ev": "trace_error", "error": err.Error(), "t_us": at.Microseconds()})
	}
	if s.file != nil {
		s.file.write(line)
	}
	if s.live {
		Stream.send(run, line)
	}
}

func reserved(k string) bool {
	for _, r := range reservedKeys {
		if k == r {
			return true
		}
	}
	return false
}

// Tracer is the trace file sink: it writes every event line to an
// io.Writer, buffered and lossless. All methods are safe for concurrent
// use; each line is written whole under one mutex, so the output is
// valid JSONL even when multiple workers emit at once.
//
// Call Close (or Flush) before reading the underlying writer. Close does
// not close the underlying writer.
type Tracer struct {
	mu       sync.Mutex
	w        *bufio.Writer
	err      error
	hotEvery uint64
}

// NewTracer creates a trace file sink writing JSONL to w. Install it
// with SetTracer.
func NewTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 1<<16), hotEvery: DefaultHotEvery}
}

// SetHotEvery changes the sampling interval advertised to hot-path
// instrumentation (1 = trace every occurrence). It must be called
// before the tracer is installed.
func (t *Tracer) SetHotEvery(n uint64) {
	if n == 0 {
		n = DefaultHotEvery
	}
	t.hotEvery = n
}

// HotEvery returns the sampling interval for hot-path events.
func (t *Tracer) HotEvery() uint64 { return t.hotEvery }

// Err returns the first write error encountered, if any.
func (t *Tracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// Flush writes buffered events through to the underlying writer.
func (t *Tracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.w.Flush(); err != nil && t.err == nil {
		t.err = err
	}
	return t.err
}

// Close flushes the tracer. The underlying writer stays open (the
// caller owns it).
func (t *Tracer) Close() error { return t.Flush() }

// write appends one line and its newline.
func (t *Tracer) write(line []byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, err := t.w.Write(line); err != nil && t.err == nil {
		t.err = err
	}
	if err := t.w.WriteByte('\n'); err != nil && t.err == nil {
		t.err = err
	}
}
