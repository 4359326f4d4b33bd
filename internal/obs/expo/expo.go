// Package expo is the live introspection server of the verification
// stack: an embeddable HTTP handler serving
//
//	/metrics                  Prometheus text exposition of the
//	                          obs metrics registry
//	/debug/vacsem/progress    live run state as a JSONL (or SSE) stream
//	                          fed by the obs stream hub: run start/end,
//	                          per-task phase events, per-bit progress
//	/debug/pprof/...          the standard net/http/pprof handlers
//
// Everything is read-only and observes the same lock-free registry the
// solvers update, so scraping a live solve never perturbs its counts.
// The counter flushes its statistics into the registry at every
// cancellation poll, so /metrics moves during a long count; per-run
// counter curves come from the trace's periodic stats deltas.
// Both CLIs expose the handler via -introspect ADDR (which may equal
// -pprof to share one listener).
package expo

import (
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux
	"strings"

	"vacsem/internal/obs"
)

// DefaultPrefix is the metric-name prefix of the /metrics exposition.
const DefaultPrefix = "vacsem_"

// Options configures a handler. The zero value serves the process-wide
// defaults: obs.Default and obs.Stream.
type Options struct {
	// Registry is the metrics registry behind /metrics (nil = obs.Default).
	Registry *obs.Registry
	// Hub is the stream behind /debug/vacsem/progress (nil = obs.Stream).
	Hub *obs.Hub
	// Prefix overrides the /metrics name prefix ("" = DefaultPrefix;
	// use "-" for no prefix).
	Prefix string
}

func (o Options) registry() *obs.Registry {
	if o.Registry != nil {
		return o.Registry
	}
	return obs.Default
}

func (o Options) hub() *obs.Hub {
	if o.Hub != nil {
		return o.Hub
	}
	return obs.Stream
}

func (o Options) prefix() string {
	switch o.Prefix {
	case "":
		return DefaultPrefix
	case "-":
		return ""
	}
	return o.Prefix
}

// NewHandler builds the introspection mux. The pprof routes delegate to
// http.DefaultServeMux (where net/http/pprof registers itself), so one
// -introspect listener serves profiling too.
func NewHandler(opt Options) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "vacsem introspection server\n\n"+
			"  /metrics                 Prometheus text exposition\n"+
			"  /debug/vacsem/progress   live event stream (JSONL; SSE with Accept: text/event-stream)\n"+
			"  /debug/pprof/            net/http/pprof\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", obs.PromContentType)
		snap := opt.registry().Snapshot()
		snap.WritePrometheus(w, obs.PromOptions{Prefix: opt.prefix()})
	})
	mux.HandleFunc("/debug/vacsem/progress", func(w http.ResponseWriter, r *http.Request) {
		serveProgress(opt, w, r)
	})
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	return mux
}

// serveProgress streams hub events to one client until it disconnects.
// The first line is a {"ev":"stream_open"} event, so a client knows the
// stream is live before the first run event arrives.
func serveProgress(opt Options, w http.ResponseWriter, r *http.Request) {
	writeLine := LineWriter(w, r)
	if writeLine == nil {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	if !writeLine([]byte(`{"ev":"stream_open"}`)) {
		return
	}

	ch, cancel := opt.hub().Subscribe(0)
	defer cancel()
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, ok := <-ch:
			if !ok {
				return
			}
			if !writeLine(ev) {
				return
			}
		}
	}
}

// LineWriter starts a streamed 200 response on w and returns the
// function that writes one event line to it, flushed at once. Plain
// requests get JSON lines (application/x-ndjson); requests with Accept:
// text/event-stream get server-sent events. The writer reports false
// once the client is gone. LineWriter returns nil, having written
// nothing, when w cannot flush.
func LineWriter(w http.ResponseWriter, r *http.Request) func(line []byte) bool {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	format := "%s\n"
	if strings.Contains(r.Header.Get("Accept"), "text/event-stream") {
		w.Header().Set("Content-Type", "text/event-stream")
		format = "data: %s\n\n"
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	return func(line []byte) bool {
		if _, err := fmt.Fprintf(w, format, line); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
}

// Server is a running HTTP listener: the introspection server, or any
// handler started with Serve (vacsem-serve's API).
type Server struct {
	ln   net.Listener
	srv  *http.Server
	done chan error
}

// Start listens on addr (e.g. "localhost:6061" or "127.0.0.1:0") and
// serves the introspection handler. The listen happens synchronously so
// a bad address fails the caller up front.
func Start(addr string, opt Options) (*Server, error) {
	return Serve(addr, NewHandler(opt))
}

// Serve runs h on addr with a tracked listener and a shutdown path —
// Close closes the server and waits for the serve loop to return, so
// the port is free (and no goroutine leaks) when Close returns. The
// listen is synchronous, so a bad address fails the caller up front;
// use ":0" for an ephemeral port and Addr to discover it.
func Serve(addr string, h http.Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		ln:   ln,
		srv:  &http.Server{Handler: h},
		done: make(chan error, 1),
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down (closing the listener and all active
// connections, which unblocks streaming clients) and waits for the
// serve loop to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	if serr := <-s.done; serr != nil && serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}
