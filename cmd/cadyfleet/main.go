// Command cadyfleet is the fleet coordinator daemon: it fronts N cadyserved
// backends behind the same HTTP/JSON job API, placing each job on a backend
// as it is submitted and migrating jobs off dead backends (resuming from the
// shared checkpoint store). An ensemble ("kind": "ensemble") is one job: its
// backend runs the members, and a migrated ensemble resumes member by member.
// Tenant quotas and priority classes are the backends' (cadyserved -quota,
// -quotas, -classes): a backend's 429 + Retry-After passes through when no
// backend admits a job.
//
// Usage:
//
//	cadyfleet -backends http://h1:8081,http://h2:8082,... -store DIR
//	          [-addr :8080] [-probe-interval 500ms] [-fail-threshold 3]
//	          [-max-migrations 3]
//
// Every backend must run cadyserved with -shared pointing at the same -store
// directory; it is both the migration substrate (every fleet job checkpoints
// there, and only there) and where the coordinator persists its routing state
// (fleet/, one record per job, which is also the job's API view, and one of
// the ID counter, each written when it changes), so a restarted coordinator
// reconciles rather than restarts.
//
// Endpoints (the job API mirrors cadyserved):
//
//	POST /jobs               submit a run, figures or ensemble job (X-Tenant
//	                         header); placed before the 202
//	GET  /jobs               list, ?status= filter, ?offset=/&limit= pagination
//	GET  /jobs/{id}          live status (proxied from the owning backend)
//	POST /jobs/{id}/cancel   cancel wherever the job is
//	GET  /backends           backend health; POST /backends registers one
//	POST /backends/drain     {"url": ...} forwards the backend drain hook
//	GET  /metrics            backend health and routing counters
//	GET  /healthz            liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cadycore/internal/fleet"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	backends := flag.String("backends", "", "comma-separated backend base URLs (required)")
	store := flag.String("store", "", "shared checkpoint-store directory (required; backends use -shared on the same path)")
	probeInterval := flag.Duration("probe-interval", 500*time.Millisecond, "backend health-probe cadence")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive probe failures before a backend is declared dead")
	maxMigrations := flag.Int("max-migrations", 3, "migration budget per job")
	flag.Parse()
	// Reject what the coordinator would silently replace by its defaults.
	switch {
	case *backends == "" || *store == "":
		usageError("-backends and -store are required")
	case *probeInterval <= 0:
		usageError(fmt.Sprintf("-probe-interval = %v, want > 0", *probeInterval))
	case *failThreshold < 1:
		usageError(fmt.Sprintf("-fail-threshold = %d, want >= 1", *failThreshold))
	case *maxMigrations < 1:
		usageError(fmt.Sprintf("-max-migrations = %d, want >= 1", *maxMigrations))
	}
	urls := strings.Split(*backends, ",")
	for _, u := range urls {
		if err := fleet.CheckBackendURL(u); err != nil {
			usageError("-backends: " + err.Error())
		}
	}
	cfg := fleet.Config{
		Backends:      urls,
		StoreDir:      *store,
		ProbeInterval: *probeInterval,
		FailThreshold: *failThreshold,
		MaxMigrations: *maxMigrations,
	}
	coord, err := fleet.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cadyfleet:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	hs := &http.Server{Addr: *addr, Handler: coord}
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Printf("cadyfleet listening on %s (%d backends, store %s)\n", *addr, len(urls), *store)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cadyfleet:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	fmt.Println("cadyfleet: stopping (backends and their jobs are left running)")
	sctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "cadyfleet: shutdown:", err)
	}
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "cadyfleet: http shutdown:", err)
	}
	fmt.Println("cadyfleet: stopped")
}

// usageError reports an unusable flag value on one line and exits 2.
func usageError(msg string) {
	fmt.Fprintln(os.Stderr, "cadyfleet:", msg)
	os.Exit(2)
}
