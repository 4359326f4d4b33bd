package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented). Spans of one
// operation share a session id; parent 0 marks a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Session  int     `json:"session"`
	Name     string  `json:"name"`
	Workload string  `json:"workload"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	SelfUS   float64 `json:"self_us"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced baseline runs the same code.
type spanRecorder struct {
	workload string
	origin   time.Time

	mu       sync.Mutex
	spans    []span
	sessions int
}

func newSpanRecorder(workload string) *spanRecorder {
	return &spanRecorder{workload: workload, origin: time.Now()}
}

func (r *spanRecorder) since() float64 {
	return float64(time.Since(r.origin).Nanoseconds()) / 1e3
}

// newSession returns a fresh session id (0 on a nil recorder).
func (r *spanRecorder) newSession() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sessions++
	return r.sessions
}

// start opens a span and returns its id (0 on a nil recorder).
func (r *spanRecorder) start(name string, parent, session int) int {
	if r == nil {
		return 0
	}
	now := r.since()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Session: session, Name: name,
		Workload: r.workload, StartUS: now, EndUS: -1,
	})
	return id
}

// end closes span id.
func (r *spanRecorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := r.since()
	r.mu.Lock()
	r.spans[id-1].EndUS = now
	r.mu.Unlock()
}

// timed runs f inside a span and returns f's wall time, measured whether
// or not the recorder is nil.
func (r *spanRecorder) timed(name string, parent, session int, f func()) time.Duration {
	id := r.start(name, parent, session)
	t := time.Now()
	f()
	d := time.Since(t)
	r.end(id)
	return d
}

// finish fills every span's self time: its duration minus the part of
// its interval that its child spans cover.
func (r *spanRecorder) finish() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]span, len(r.spans))
	for i, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].StartUS < kids[b].StartUS })
		covered, reach := 0.0, s.StartUS
		for _, k := range kids {
			lo, hi := max(k.StartUS, reach), min(k.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		s.SelfUS = s.EndUS - s.StartUS - covered
		out[i] = s
	}
	return out
}

// appendJSONL appends the finished spans to path, one JSON object per
// line.
func (r *spanRecorder) appendJSONL(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("open spans file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.finish() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
