// Command cadyserved is the simulation job service daemon: it serves the
// internal/server HTTP API — submit, monitor, cancel and resume
// dynamical-core runs and figure sweeps over a bounded queue and a worker
// pool, with checkpoint-backed durability and Prometheus-style metrics.
//
// Usage:
//
//	cadyserved [-addr :8080] [-workers N] [-queue N] [-dir DIR]
//	           [-shared DIR] [-chaos plan.json] [-max-restarts N]
//
// With -shared, the daemon attaches a shared checkpoint store (a directory
// all fleet backends mount): jobs submitted with a shared_key dual-write
// their checkpoints there and resume from the newest shared snapshot when
// they arrive with no local state — the cadyfleet migration path.
//
// With -chaos, the JSON fault plan (see internal/fault: rank crashes at
// given steps, stragglers, message jitter, transient send errors) is
// injected into every run job; jobs whose ranks die are restarted
// automatically from their latest checkpoint, up to -max-restarts times per
// job with exponential backoff.
//
// Endpoints:
//
//	POST /jobs               submit a job (JSON spec); 429 when the queue is full
//	GET  /jobs               list jobs
//	GET  /jobs/{id}          job status: progress, comm stats, diagnostics
//	POST /jobs/{id}/cancel   stop at the next step boundary (checkpointed)
//	POST /jobs/{id}/resume   re-enqueue from the latest checkpoint
//	GET  /metrics            Prometheus-style service metrics
//	GET  /healthz            liveness (503 while draining)
//
// SIGINT/SIGTERM triggers a graceful drain: running jobs stop at their next
// step boundary and are checkpointed, queued jobs stay persisted, then the
// process exits. With -dir, a restarted daemon recovers every persisted job.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/fault"
	"cadycore/internal/server"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	workers := flag.Int("workers", 2, "concurrent job executors")
	queue := flag.Int("queue", 16, "admission queue bound")
	dir := flag.String("dir", "", "persistence directory for specs and checkpoints (empty = in-memory)")
	shared := flag.String("shared", "", "shared fleet checkpoint-store directory (empty = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for jobs to checkpoint on shutdown")
	chaos := flag.String("chaos", "", "fault-injection plan (JSON) applied to every run job")
	maxRestarts := flag.Int("max-restarts", 0, "automatic restarts per crashed job (0 = default policy of 3, negative = none)")
	flag.Parse()
	// Reject what the server would silently replace by its defaults (and a
	// drain that would give up before any job could checkpoint), so the
	// banner below states what actually runs.
	switch {
	case *workers < 1:
		usageError(fmt.Sprintf("-workers = %d, want >= 1", *workers))
	case *queue < 1:
		usageError(fmt.Sprintf("-queue = %d, want >= 1", *queue))
	case *drainTimeout <= 0:
		usageError(fmt.Sprintf("-drain-timeout = %v, want > 0", *drainTimeout))
	}

	cfg := server.Config{
		Workers:  *workers,
		QueueCap: *queue,
		Dir:      *dir,
		Restart:  server.RestartPolicy{MaxRestarts: *maxRestarts},
	}
	if *shared != "" {
		store, err := checkpoint.NewDirStore(*shared)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cadyserved:", err)
			os.Exit(1)
		}
		cfg.Shared = store
	}
	if *chaos != "" {
		plan, err := fault.Load(*chaos)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cadyserved:", err)
			os.Exit(1)
		}
		cfg.Chaos = &plan
	}
	srv, err := server.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadyserved:", err)
		os.Exit(1)
	}

	// Catch the signals before announcing the address, so a drain requested
	// right after the banner is never the default kill.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("cadyserved listening on %s (%d workers, queue %d", *addr, *workers, *queue)
	if *dir != "" {
		fmt.Printf(", dir %s", *dir)
	}
	if *shared != "" {
		fmt.Printf(", shared %s", *shared)
	}
	if *chaos != "" {
		fmt.Printf(", chaos %s", *chaos)
	}
	fmt.Println(")")

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cadyserved:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("cadyserved: draining (running jobs stop at their next step boundary)")
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "cadyserved: drain:", err)
	}
	if err := hs.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "cadyserved: http shutdown:", err)
	}
	fmt.Println("cadyserved: stopped")
}

// usageError reports an unusable flag value on one line and exits 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "cadyserved:", msg)
	os.Exit(2)
}
