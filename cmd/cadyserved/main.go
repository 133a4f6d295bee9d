// Command cadyserved is the simulation job service daemon: it serves the
// internal/server HTTP API — submit, monitor, cancel and resume
// dynamical-core runs and figure sweeps over a bounded queue and a worker
// pool, with checkpoint-backed durability and Prometheus-style metrics.
//
// Usage:
//
//	cadyserved [-addr :8080] [-workers N] [-queue N] [-dir DIR]
//	           [-shared DIR] [-chaos plan.json] [-max-restarts N]
//	           [-quota N] [-quotas t1=4,t2=16] [-classes vip=high,batch=low]
//
// The queue is per tenant (spec field "tenant" or the X-Tenant header):
// -quota caps each tenant's queued, running and retrying jobs (429 +
// Retry-After beyond it; 0 = no cap), -quotas overrides it per tenant, and
// workers take queued jobs in weighted-fair order over the tenants' classes
// (high:4, normal:2, low:1; -classes, default normal).
//
// A job's checkpoint lives in one place. With -shared, the daemon attaches a
// shared checkpoint store (a directory all fleet backends mount): a job
// submitted with a shared_key checkpoints only there and resumes from the
// newest snapshot there, whichever backend wrote it — the cadyfleet
// migration path. Any other job checkpoints to <dir>/<id>/snap.ck with -dir,
// or in memory until it completes without it.
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
	"strconv"
	"strings"
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
	dir := flag.String("dir", "", "persistence directory for job specs, metadata and the checkpoints of jobs without a shared_key (empty = in-memory)")
	shared := flag.String("shared", "", "shared fleet checkpoint-store directory, where shared_key jobs checkpoint (empty = none)")
	drainTimeout := flag.Duration("drain-timeout", 2*time.Minute, "max wait for jobs to checkpoint on shutdown")
	chaos := flag.String("chaos", "", "fault-injection plan (JSON) applied to every run job")
	maxRestarts := flag.Int("max-restarts", 0, "automatic restarts per crashed job (0 = default policy of 3, negative = none)")
	quota := flag.Int("quota", 0, "per-tenant in-flight job quota (0 = none)")
	quotas := flag.String("quotas", "", "per-tenant quota overrides, tenant=N[,tenant=N...]")
	classes := flag.String("classes", "", "tenant priority classes, tenant=high|normal|low[,...]")
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
		Workers:      *workers,
		QueueCap:     *queue,
		DefaultQuota: *quota,
		Dir:          *dir,
		Restart:      server.RestartPolicy{MaxRestarts: *maxRestarts},
		Quotas:       map[string]int{},
		Classes:      parseKV("-classes", *classes),
	}
	//cadyvet:unordered each entry is parsed and stored on its own
	for t, v := range parseKV("-quotas", *quotas) {
		n, err := strconv.Atoi(v)
		if err != nil {
			usageError(fmt.Sprintf("-quotas: quota %q for tenant %s, want an integer", v, t))
		}
		cfg.Quotas[t] = n
	}
	if err := cfg.CheckTenancy(); err != nil {
		usageError(err.Error())
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

// parseKV parses a "tenant=value[,tenant=value...]" flag; a malformed entry
// is a usage error.
func parseKV(name, s string) map[string]string {
	out := map[string]string{}
	if s == "" {
		return out
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok || k == "" || v == "" {
			usageError(fmt.Sprintf("%s: bad entry %q, want tenant=value", name, kv))
		}
		out[k] = v
	}
	return out
}
