package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/tune"
)

// metrics holds the service counters exported at GET /metrics in the
// Prometheus text exposition format (plain counters and gauges; no external
// client library, matching the module's no-dependency rule).
type metrics struct {
	submitted   atomic.Int64
	rejected    atomic.Int64
	resumed     atomic.Int64
	completed   atomic.Int64
	failed      atomic.Int64
	cancelled   atomic.Int64
	interrupted atomic.Int64
	steps       atomic.Int64
	snapshots   atomic.Int64
	busy        atomic.Int64

	// fault-injection / recovery / durability counters
	rankFailures  atomic.Int64
	restarts      atomic.Int64
	persistErrors atomic.Int64

	// shared-artifact-store traffic (shared-home checkpoints, migrations)
	sharedPuts    atomic.Int64
	sharedResumes atomic.Int64

	// live load-rebalancing: imbalance detections that reached the
	// re-planner, executed migrations, and rejected re-plans.
	rebalanceDecisions  atomic.Int64
	rebalanceMigrations atomic.Int64
	rebalanceSkipped    atomic.Int64

	// communication-overlap accounting, accumulated from every run
	// segment's critical-path statistics (guarded by exchMu).
	exchMu     sync.Mutex
	exposedSec float64                //cadyvet:guardedby exchMu
	hiddenSec  float64                //cadyvet:guardedby exchMu
	exch       map[string]*exchTotals //cadyvet:guardedby exchMu
	// rankComp accumulates per-rank simulated compute seconds over run
	// segments (index = world rank; grows to the widest world seen);
	// lastImbalance is the latest segment's max/min compute ratio.
	rankComp      []float64 //cadyvet:guardedby exchMu
	lastImbalance float64   //cadyvet:guardedby exchMu
}

// exchTotals accumulates one exchanger label's overlap accounting across
// run segments.
type exchTotals struct {
	begins, finishes      int64
	hiddenSec, exposedSec float64
}

// observeRun folds one run segment's overlap statistics into the service
// totals: world-level hidden/exposed seconds plus the per-exchanger split.
func (m *metrics) observeRun(res dycore.RunResult) {
	m.exchMu.Lock()
	defer m.exchMu.Unlock()
	m.exposedSec += res.Agg.TotalCommTime()
	m.hiddenSec += res.Agg.TotalHiddenTime()
	if m.exch == nil {
		m.exch = make(map[string]*exchTotals)
	}
	for _, ex := range res.Exch {
		t := m.exch[ex.Label]
		if t == nil {
			t = &exchTotals{}
			m.exch[ex.Label] = t
		}
		t.begins += ex.Begins
		t.finishes += ex.Finishes
		t.hiddenSec += ex.HiddenSec
		t.exposedSec += ex.ExposedSec
	}
	for len(m.rankComp) < len(res.Agg.RankComp) {
		m.rankComp = append(m.rankComp, 0)
	}
	for r, v := range res.Agg.RankComp {
		m.rankComp[r] += v
	}
	if imb := res.Agg.CompImbalance(); imb > 0 {
		m.lastImbalance = imb
	}
}

// Expo writes the Prometheus text exposition format: each metric is its
// HELP and TYPE lines followed by its samples. Values print with %v, so
// integers print as %d and floats as %g.
type Expo struct{ W io.Writer }

// Metric writes a metric with one unlabelled sample.
func (e Expo) Metric(name, typ, help string, v any) { e.Family(name, typ, help)(v) }

// Family writes a metric's HELP and TYPE lines and returns its sample
// writer: sample(v, "k1", "v1", ...) writes name{k1="v1",...} v.
func (e Expo) Family(name, typ, help string) (sample func(v any, labels ...string)) {
	fmt.Fprintf(e.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	return func(v any, labels ...string) {
		var ls []string
		for i := 0; i+1 < len(labels); i += 2 {
			ls = append(ls, fmt.Sprintf("%s=%q", labels[i], labels[i+1]))
		}
		if len(ls) > 0 {
			fmt.Fprintf(e.W, "%s{%s} %v\n", name, strings.Join(ls, ","), v)
		} else {
			fmt.Fprintf(e.W, "%s %v\n", name, v)
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	states := map[JState]int{}
	for _, j := range s.List() {
		j.mu.Lock()
		states[j.rec.State]++
		j.mu.Unlock()
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	e := Expo{w}

	s.mu.Lock()
	e.Metric("cady_queue_depth", "gauge", "Jobs waiting in the admission queue.", s.queued)
	e.Metric("cady_queue_capacity", "gauge", "Admission queue bound.", s.cfg.QueueCap)
	tenants := make([]*tenantQ, 0, len(s.tenants))
	//cadyvet:unordered collection only; the emission loops below iterate the sorted slice
	for _, tq := range s.tenants {
		tenants = append(tenants, tq)
	}
	sort.Slice(tenants, func(a, b int) bool { return tenants[a].name < tenants[b].name })
	for _, m := range []struct {
		name, typ, help string
		val             func(*tenantQ) int64
	}{
		{"admitted_total", "counter", "Jobs admitted per tenant.", func(tq *tenantQ) int64 { return tq.admitted }},
		{"rejected_total", "counter", "Submissions and resumes rejected by the tenant quota or a full queue.", func(tq *tenantQ) int64 { return tq.rejected }},
		{"queued", "gauge", "Jobs waiting in the tenant's FIFO.", func(tq *tenantQ) int64 { return int64(len(tq.fifo)) }},
		{"inflight", "gauge", "Queued, running and retrying jobs per tenant (quota usage).", func(tq *tenantQ) int64 { return tq.inflight.Load() }},
	} {
		sample := e.Family("cady_tenant_"+m.name, m.typ, m.help)
		for _, tq := range tenants {
			sample(m.val(tq), "tenant", tq.name)
		}
	}
	s.mu.Unlock()
	e.Metric("cady_workers", "gauge", "Size of the worker pool.", s.cfg.Workers)
	e.Metric("cady_workers_busy", "gauge", "Workers currently executing a job.", s.met.busy.Load())

	jobs := e.Family("cady_jobs", "gauge", "Current jobs by state.")
	for _, st := range []JState{JQueued, JRunning, JRetrying, JCompleted, JCancelled, JInterrupted, JFailed} {
		jobs(states[st], "state", string(st))
	}

	for _, m := range []struct {
		name, help string
		v          *atomic.Int64
	}{
		{"cady_jobs_submitted_total", "Jobs admitted since start.", &s.met.submitted},
		{"cady_jobs_rejected_total", "Submissions rejected by admission control.", &s.met.rejected},
		{"cady_jobs_resumed_total", "Resume requests re-enqueued.", &s.met.resumed},
		{"cady_jobs_completed_total", "Jobs that ran all requested steps.", &s.met.completed},
		{"cady_jobs_failed_total", "Jobs that panicked or exceeded a deadline.", &s.met.failed},
		{"cady_jobs_cancelled_total", "Jobs stopped by user request.", &s.met.cancelled},
		{"cady_jobs_interrupted_total", "Jobs stopped by a server drain.", &s.met.interrupted},
		{"cady_rank_failures_total", "Injected rank deaths that aborted a run segment.", &s.met.rankFailures},
		{"cady_job_restarts_total", "Automatic restarts scheduled after a rank death.", &s.met.restarts},
		{"cady_persist_errors_total", "Durable writes (spec, meta, checkpoint) that failed.", &s.met.persistErrors},
		{"cady_shared_snapshots_total", "Checkpoints written to the shared artifact store.", &s.met.sharedPuts},
		{"cady_shared_resumes_total", "Job segments resumed from a shared-store checkpoint written by another backend.", &s.met.sharedResumes},
		{"cady_rebalance_decisions_total", "Sustained-imbalance detections that reached the re-planner.", &s.met.rebalanceDecisions},
		{"cady_rebalance_migrations_total", "In-flight layout migrations executed by the load-rebalancing runtime.", &s.met.rebalanceMigrations},
		{"cady_rebalance_skipped_total", "Re-plans rejected (no better layout, gain under the migration-cost gate, or budget exhausted).", &s.met.rebalanceSkipped},
	} {
		e.Metric(m.name, "counter", m.help, m.v.Load())
	}

	plans := e.Family("cady_plan_info", "gauge", "Current layout of each planned job (auto layout or live-rebalanced), value always 1.")
	for _, j := range s.List() {
		if pl := j.getPlan(); pl != nil {
			plans(1, "job", j.ID, "plan", tune.Key(pl.Setup(j.Spec.config())))
		}
	}

	s.met.exchMu.Lock()
	e.Metric("cady_comm_exposed_seconds_total", "counter", "Simulated communication seconds on the critical path, summed over run segments.", s.met.exposedSec)
	e.Metric("cady_comm_hidden_seconds_total", "counter", "Simulated communication seconds hidden behind interior compute, summed over run segments.", s.met.hiddenSec)
	overlap := 0.0
	if tot := s.met.exposedSec + s.met.hiddenSec; tot > 0 {
		overlap = s.met.hiddenSec / tot
	}
	e.Metric("cady_comm_overlap_fraction", "gauge", "Hidden share of all simulated communication time.", overlap)
	labels := make([]string, 0, len(s.met.exch))
	//cadyvet:unordered key collection only; the emission loop below iterates the sorted slice
	for l := range s.met.exch {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, m := range []struct {
		name, help string
		val        func(*exchTotals) any
	}{
		{"begins_total", "Halo-exchange Begin calls by exchanger.", func(t *exchTotals) any { return t.begins }},
		{"finishes_total", "Halo-exchange Finish calls by exchanger.", func(t *exchTotals) any { return t.finishes }},
		{"hidden_seconds_total", "Simulated seconds of exchange flight hidden behind compute, by exchanger.", func(t *exchTotals) any { return t.hiddenSec }},
		{"exposed_seconds_total", "Simulated seconds of exchange time charged to rank clocks, by exchanger.", func(t *exchTotals) any { return t.exposedSec }},
	} {
		sample := e.Family("cady_exchanger_"+m.name, "counter", m.help)
		for _, l := range labels {
			sample(m.val(s.met.exch[l]), "exchanger", l)
		}
	}
	ranks := e.Family("cady_rank_comp_seconds_total", "counter", "Simulated compute seconds by world rank, summed over run segments.")
	for r, v := range s.met.rankComp {
		ranks(v, "rank", strconv.Itoa(r))
	}
	e.Metric("cady_comp_imbalance", "gauge", "Latest run segment's max/min per-rank compute ratio (0 = no telemetry yet).", s.met.lastImbalance)
	s.met.exchMu.Unlock()

	e.Metric("cady_steps_total", "counter", "Dynamical-core steps completed across all jobs.", s.met.steps.Load())
	e.Metric("cady_checkpoints_total", "counter", "Snapshots taken across all jobs.", s.met.snapshots.Load())
	e.Metric("cady_uptime_seconds", "gauge", "Seconds since the service started.", fmt.Sprintf("%.3f", time.Since(s.start).Seconds()))
}
