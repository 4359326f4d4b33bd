// Command vacsem-serve is the long-lived verification service: an
// HTTP/JSON API over the core stack with one process-global,
// content-addressed result store, so repeated or overlapping
// verification requests never pay for the same count twice.
//
// Usage:
//
//	vacsem-serve -addr localhost:8080
//	vacsem-serve -addr :0 -snapshot /var/lib/vacsem/store.json
//	vacsem-serve -job-workers 2 -queue 128 -max-timelimit 5m
//
// API (see internal/serve):
//
//	POST /v1/verify            submit a job; 202 + {"job_id": ...},
//	                           429 when the queue is full
//	GET  /v1/jobs/{id}         status + result
//	GET  /v1/jobs/{id}/events  per-job live progress (NDJSON/SSE)
//	GET  /v1/store             store statistics
//	GET  /metrics              Prometheus exposition (includes the
//	                           store.* and serve.* counters)
//	GET  /debug/...            live introspection (progress stream,
//	                           pprof)
//
// -snapshot FILE persists the store across restarts: the file is
// loaded (if present) at startup and written atomically on graceful
// shutdown, so a restarted server answers known requests store-warm.
// SIGINT/SIGTERM shut down gracefully: new submits are refused, queued
// and in-flight jobs drain (bounded by -drain-timeout), and the
// snapshot is written before exit.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vacsem/internal/obs/expo"
	"vacsem/internal/serve"
	"vacsem/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr         = flag.String("addr", "localhost:8080", "listen address (host:port; use :0 for an ephemeral port)")
		workers      = flag.Int("workers", 0, "engine workers per job (0 = one per CPU)")
		jobWorkers   = flag.Int("job-workers", 1, "jobs run concurrently (1 = strict FIFO)")
		queueDepth   = flag.Int("queue", 64, "queued-job cap; submits beyond it get 429")
		maxJobs      = flag.Int("max-jobs", 256, "finished jobs retained for status queries")
		defLimit     = flag.Duration("default-timelimit", 0, "time limit for jobs that request none (0 = unlimited)")
		maxLimit     = flag.Duration("max-timelimit", 0, "hard cap on any job's time limit (0 = uncapped)")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "graceful-shutdown budget for in-flight jobs")
		snapshot     = flag.String("snapshot", "", "store snapshot file: loaded at startup when present, written on graceful shutdown")
		maxCones     = flag.Int("store-max-cones", 0, "cone-tier entry bound (0 = default)")
		maxComps     = flag.Int("store-max-components", 0, "component-tier entry bound (0 = default)")
		maxCompBytes = flag.Int64("store-max-component-bytes", 0, "component-tier approximate byte bound (0 = none)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "vacsem-serve: unexpected arguments %v\n", flag.Args())
		return 2
	}

	st := store.New(store.Config{
		MaxCones:          *maxCones,
		MaxComponents:     *maxComps,
		MaxComponentBytes: *maxCompBytes,
	})
	if *snapshot != "" {
		switch err := st.LoadFile(*snapshot); {
		case err == nil:
			s := st.Stats()
			fmt.Printf("loaded store snapshot %s (%d cones, %d components)\n",
				*snapshot, s.Cones.Entries, s.Components.Entries)
		case os.IsNotExist(err):
			// First run: nothing to load, the file appears on shutdown.
		default:
			fmt.Fprintf(os.Stderr, "vacsem-serve: load snapshot: %v\n", err)
			return 1
		}
	}

	srv := serve.New(serve.Config{
		Store:            st,
		Workers:          *workers,
		JobWorkers:       *jobWorkers,
		QueueDepth:       *queueDepth,
		MaxJobs:          *maxJobs,
		DefaultTimeLimit: *defLimit,
		MaxTimeLimit:     *maxLimit,
		SnapshotPath:     *snapshot,
	})
	httpSrv, err := expo.Serve(*addr, srv)
	if err != nil {
		fmt.Fprintf(os.Stderr, "vacsem-serve: %v\n", err)
		return 1
	}
	// The smoke scripts parse this exact line for the bound port.
	fmt.Printf("listening on %s\n", httpSrv.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("shutting down: draining jobs")
	signal.Stop(sig)

	// Stop the listener first (refuses new connections), then drain the
	// scheduler and snapshot the store.
	httpSrv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Close(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "vacsem-serve: shutdown: %v\n", err)
		return 1
	}
	if *snapshot != "" {
		fmt.Printf("store snapshot written to %s\n", *snapshot)
	}
	return 0
}
