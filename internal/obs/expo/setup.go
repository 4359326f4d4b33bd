package expo

import (
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"

	"vacsem/internal/obs"
)

// CLIConfig is the observability surface both commands expose as flags.
// Zero values mean "off"; Setup with a zero config returns a no-op
// closer.
type CLIConfig struct {
	TracePath  string // -trace: JSONL span/event stream
	CPUProfile string // -cpuprofile: pprof CPU profile path
	MemProfile string // -memprofile: heap profile path, written at stop
	PprofAddr  string // -pprof: live net/http/pprof listen address
	// IntrospectAddr is the -introspect listen address: /metrics,
	// /debug/vacsem/* and /debug/pprof. When it equals PprofAddr the two
	// flags share one listener.
	IntrospectAddr string
}

// Setup installs the requested tracer, profilers and introspection
// server, and returns a stop function that flushes and closes
// everything — including the HTTP listeners, whose serve loops are
// waited out so tests and long-lived embedders do not leak ports or
// goroutines. Callers must run stop on every exit path (so main must
// not os.Exit past it); stop is safe to call exactly once.
func Setup(cfg CLIConfig) (stop func() error, err error) {
	var closers []func() error
	fail := func(err error) (func() error, error) {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
		return nil, err
	}

	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			return fail(fmt.Errorf("trace: %w", err))
		}
		tr := obs.NewTracer(f)
		obs.SetTracer(tr)
		closers = append(closers, func() error {
			obs.SetTracer(nil)
			err := tr.Close()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return err
		})
	}

	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(fmt.Errorf("cpuprofile: %w", err))
		}
		closers = append(closers, func() error {
			pprof.StopCPUProfile()
			return f.Close()
		})
	}

	if cfg.MemProfile != "" {
		path := cfg.MemProfile
		closers = append(closers, func() error {
			f, err := os.Create(path)
			if err != nil {
				return fmt.Errorf("memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live data
			return pprof.Lookup("heap").WriteTo(f, 0)
		})
	}

	if cfg.IntrospectAddr != "" {
		srv, err := Start(cfg.IntrospectAddr, Options{})
		if err != nil {
			return fail(fmt.Errorf("introspect: %w", err))
		}
		closers = append(closers, srv.Close)
	}

	// The introspection mux already delegates /debug/pprof, so when the
	// two flags name the same address they share that listener.
	if cfg.PprofAddr != "" && cfg.PprofAddr != cfg.IntrospectAddr {
		srv, err := Serve(cfg.PprofAddr, http.DefaultServeMux)
		if err != nil {
			return fail(fmt.Errorf("pprof: %w", err))
		}
		closers = append(closers, srv.Close)
	}

	return func() error {
		var first error
		for i := len(closers) - 1; i >= 0; i-- {
			if err := closers[i](); err != nil && first == nil {
				first = err
			}
		}
		return first
	}, nil
}
