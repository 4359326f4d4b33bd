package obs

import (
	"encoding/json"
	"sync"
	"sync/atomic"
)

// Hub is a broadcast channel for live introspection events: the core
// layer publishes run_start/run_end per session, the engine publishes
// task start/done events, and the plan layer publishes per-bit progress.
// The introspection server's /debug/vacsem/progress endpoint is a
// subscriber; so is anything embedding the library.
//
// Publishing is a no-op (one atomic load) while nobody subscribes, so
// the instrumented layers publish unconditionally without a config
// knob. Slow subscribers never block a publisher: events that do not
// fit a subscriber's buffer are dropped for that subscriber (counted in
// obs.stream_dropped) — live introspection prefers losing an event over
// stalling the solver.
type Hub struct {
	mu   sync.Mutex
	subs map[uint64]chan []byte
	next uint64
	n    atomic.Int32
	seq  atomic.Uint64
}

// Stream is the process-wide hub the instrumented packages publish to.
var Stream = NewHub()

var mStreamDropped = Default.Counter("obs.stream_dropped")

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[uint64]chan []byte)}
}

// Active reports whether the hub has at least one subscriber. Callers
// assembling expensive payloads should check it first.
func (h *Hub) Active() bool { return h.n.Load() > 0 }

// Subscribe registers a new subscriber with the given channel buffer
// (values <= 0 get a sensible default). Each delivered value is one
// complete JSON event line (no trailing newline). The returned cancel
// func unregisters the subscriber and closes the channel; it is safe to
// call more than once.
func (h *Hub) Subscribe(buf int) (<-chan []byte, func()) {
	if buf <= 0 {
		buf = 256
	}
	ch := make(chan []byte, buf)
	h.mu.Lock()
	id := h.next
	h.next++
	h.subs[id] = ch
	h.mu.Unlock()
	h.n.Add(1)
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, id)
			close(ch)
			h.mu.Unlock()
			h.n.Add(-1)
		})
	}
	return ch, cancel
}

// Publish broadcasts one event of the given kind. The header keys "ev",
// "seq" and "t_ms" are stamped by the hub ("t_ms" is milliseconds on
// the SinceStart clock, the same clock ProgressEvent timestamps use);
// fields with those names are dropped. A no-op without subscribers.
func (h *Hub) Publish(kind string, fields Fields) {
	if !h.Active() {
		return
	}
	payload := make(Fields, len(fields)+3)
	for k, v := range fields {
		switch k {
		case "ev", "seq", "t_ms":
		default:
			payload[k] = v
		}
	}
	payload["ev"] = kind
	payload["seq"] = h.seq.Add(1)
	payload["t_ms"] = float64(SinceStart().Microseconds()) / 1e3
	line, err := json.Marshal(payload)
	if err != nil {
		line, _ = json.Marshal(Fields{"ev": "stream_error", "error": err.Error()})
	}
	h.mu.Lock()
	for _, ch := range h.subs {
		select {
		case ch <- line:
		default:
			mStreamDropped.Inc()
		}
	}
	h.mu.Unlock()
}
