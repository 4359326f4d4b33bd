package obs

import (
	"sync"
	"sync/atomic"
)

// Hub is the live sink of the event stream: it hands each event line to
// the subscribers of the line's run. The introspection server's
// /debug/vacsem/progress endpoint subscribes to every run, and each
// vacsem-serve event stream to its job's run.
//
// Slow subscribers never block a producer: a line that does not fit a
// subscriber's buffer is dropped for that subscriber (counted in
// obs.stream_dropped) — live introspection prefers losing an event over
// stalling the solver. The trace file sink is the lossless one.
type Hub struct {
	mu   sync.Mutex
	subs map[*subscriber]struct{}
	n    atomic.Int32
}

type subscriber struct {
	run uint64 // 0 = every run
	ch  chan []byte
}

// Stream is the process-wide hub every event line is sent to.
var Stream = NewHub()

var mStreamDropped = Default.Counter("obs.stream_dropped")

// NewHub returns an empty hub.
func NewHub() *Hub {
	return &Hub{subs: make(map[*subscriber]struct{})}
}

// Active reports whether the hub has at least one subscriber.
func (h *Hub) Active() bool { return h.n.Load() > 0 }

// Subscribe registers a subscriber to the lines of run (0 = every run)
// with the given channel buffer (values <= 0 get a sensible default).
// Each delivered value is one complete JSON event line (no trailing
// newline), byte-identical to the trace file's. The returned cancel
// func unregisters the subscriber and closes the channel; it is safe to
// call more than once.
func (h *Hub) Subscribe(run uint64, buf int) (<-chan []byte, func()) {
	if buf <= 0 {
		buf = 256
	}
	sub := &subscriber{run: run, ch: make(chan []byte, buf)}
	h.mu.Lock()
	h.subs[sub] = struct{}{}
	h.mu.Unlock()
	h.n.Add(1)
	refresh()
	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			delete(h.subs, sub)
			close(sub.ch)
			h.mu.Unlock()
			h.n.Add(-1)
			refresh()
		})
	}
	return sub.ch, cancel
}

// send delivers one encoded line of run to its subscribers and to the
// subscribers of every run.
func (h *Hub) send(run uint64, line []byte) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for sub := range h.subs {
		if sub.run != 0 && sub.run != run {
			continue
		}
		select {
		case sub.ch <- line:
		default:
			mStreamDropped.Inc()
		}
	}
}
