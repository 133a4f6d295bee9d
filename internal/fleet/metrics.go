package fleet

import (
	"fmt"
	"net/http"
	"time"

	"cadycore/internal/server"
)

// fleetMetrics are the coordinator counters, guarded by the coordinator
// mutex (they are only touched under it).
type fleetMetrics struct {
	dispatched     int64
	dispatchErrors int64
	migrations     int64
	completed      int64
	failed         int64
	cancelled      int64
	persistErrors  int64
}

// handleMetrics emits the coordinator metrics in the Prometheus text format:
// backend health and the routing counters. Admission — per-tenant counters
// included — is the backends' own, on their /metrics.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := server.Expo{W: w}

	healthy := 0
	for _, b := range c.backends {
		if b.healthy {
			healthy++
		}
	}
	e.Metric("cady_fleet_backends", "gauge", "Registered backends.", len(c.backends))
	e.Metric("cady_fleet_backends_healthy", "gauge", "Backends passing health probes.", healthy)

	states := map[server.JState]int{}
	for _, id := range c.order {
		states[c.jobs[id].State]++
	}
	jobs := e.Family("cady_fleet_jobs", "gauge", "Fleet jobs by state.")
	for _, st := range []server.JState{server.JQueued, server.JRunning, server.JCompleted, server.JFailed, server.JCancelled} {
		jobs(states[st], "state", string(st))
	}

	e.Metric("cady_fleet_dispatches_total", "counter", "Job placements on a backend.", c.met.dispatched)
	e.Metric("cady_fleet_dispatch_errors_total", "counter", "Placements no backend accepted.", c.met.dispatchErrors)
	e.Metric("cady_fleet_migrations_total", "counter", "Jobs moved off a dead, draining or cancelled-out-of-band backend.", c.met.migrations)
	e.Metric("cady_fleet_jobs_completed_total", "counter", "Fleet jobs completed.", c.met.completed)
	e.Metric("cady_fleet_jobs_failed_total", "counter", "Fleet jobs failed.", c.met.failed)
	e.Metric("cady_fleet_jobs_cancelled_total", "counter", "Fleet jobs cancelled.", c.met.cancelled)
	e.Metric("cady_fleet_persist_errors_total", "counter", "Failed writes of the fleet routing state.", c.met.persistErrors)
	e.Metric("cady_fleet_uptime_seconds", "gauge", "Seconds since the coordinator started.",
		fmt.Sprintf("%.3f", time.Since(c.start).Seconds()))
}
