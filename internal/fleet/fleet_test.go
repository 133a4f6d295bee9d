package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/server"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
)

// testBackend is one in-process cadyserved: a server.Server behind a real
// HTTP listener, attached to the shared store like `cadyserved -shared`.
type testBackend struct {
	srv *server.Server
	ts  *httptest.Server
}

// kill simulates backend death: client connections are torn down, the
// listener closes (probes and submits get connection errors), and the
// compute drains in the background. The CI chaos smoke covers the true
// SIGKILL of a separate process; in-process this is the closest analog.
func (b *testBackend) kill() {
	b.ts.CloseClientConnections()
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		b.srv.Shutdown(ctx)
	}()
	b.ts.Close()
}

// fleetHarness bundles a coordinator, its backends and the shared store.
type fleetHarness struct {
	coord    *Coordinator
	cts      *httptest.Server
	backends []*testBackend
	store    *checkpoint.DirStore
	storeDir string
}

func newFleetHarness(t *testing.T, nBackends, workersEach, queueEach int, mut func(*Config)) *fleetHarness {
	t.Helper()
	// Leak check first: cleanups run in reverse order, so every backend
	// and coordinator shutdown below completes before the goroutine
	// snapshot is compared.
	testutil.VerifyNoLeaks(t)
	storeDir := t.TempDir()
	h := &fleetHarness{storeDir: storeDir}
	store, err := checkpoint.NewDirStore(storeDir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	h.store = store
	var urls []string
	for i := 0; i < nBackends; i++ {
		// Each backend opens its own DirStore handle on the same directory,
		// like separate processes sharing a mount.
		bs, err := checkpoint.NewDirStore(storeDir)
		if err != nil {
			t.Fatalf("NewDirStore backend %d: %v", i, err)
		}
		srv, err := server.New(server.Config{Workers: workersEach, QueueCap: queueEach, Shared: bs})
		if err != nil {
			t.Fatalf("server.New backend %d: %v", i, err)
		}
		ts := httptest.NewServer(srv)
		b := &testBackend{srv: srv, ts: ts}
		h.backends = append(h.backends, b)
		urls = append(urls, ts.URL)
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			b.srv.Shutdown(ctx)
			b.ts.Close()
		})
	}
	cfg := Config{
		Backends:      urls,
		StoreDir:      storeDir,
		ProbeInterval: 20 * time.Millisecond,
		ProbeTimeout:  time.Second,
		FailThreshold: 2,
		WatchInterval: 20 * time.Millisecond,
		DispatchRetry: 10 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	h.coord = coord
	h.cts = httptest.NewServer(coord)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		h.coord.Shutdown(ctx)
		h.cts.Close()
	})
	return h
}

func (h *fleetHarness) postJSON(t *testing.T, path string, body any, tenant string) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	req, _ := http.NewRequest(http.MethodPost, h.cts.URL+path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func decodeInfo(t *testing.T, resp *http.Response) JobInfo {
	t.Helper()
	defer resp.Body.Close()
	var info JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding job info: %v", err)
	}
	return info
}

// waitJob polls GET /jobs/{id} until the public state matches.
func (h *fleetHarness) waitJob(t *testing.T, id, want string, timeout time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last JobInfo
	for time.Now().Before(deadline) {
		resp, err := http.Get(h.cts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatalf("GET job %s: %v", id, err)
		}
		last = decodeInfo(t, resp)
		if last.State == want {
			return last
		}
		if last.State == string(fFailed) && want != string(fFailed) {
			t.Fatalf("job %s failed (%s), want %s", id, last.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s (last %s)", id, want, last.State)
	return JobInfo{}
}

func (h *fleetHarness) metricsText(t *testing.T) string {
	t.Helper()
	resp, err := http.Get(h.cts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			var f float64
			fmt.Sscanf(v, "%g", &f)
			return f
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// refFinal runs the spec uninterrupted through dycore (the same integrator
// configuration the backends use) and gathers the final state.
func refFinal(t *testing.T, spec server.JobSpec) *checkpoint.Global {
	t.Helper()
	if err := spec.Normalize(); err != nil {
		t.Fatalf("ref spec: %v", err)
	}
	g := grid.New(spec.Nx, spec.Ny, spec.Nz)
	cfg := dycore.DefaultConfig()
	cfg.M = spec.M
	cfg.StageM = spec.StageM
	cfg.Dt1, cfg.Dt2 = spec.Dt1, spec.Dt2
	var a dycore.Algorithm
	switch spec.Alg {
	case "ca":
		a = dycore.AlgCommAvoid
	case "yz":
		a = dycore.AlgBaselineYZ
	case "xy":
		a = dycore.AlgBaselineXY
	default:
		t.Fatalf("ref: unsupported alg %q", spec.Alg)
	}
	set := dycore.Setup{Alg: a, PA: spec.PA, PB: spec.PB, Cfg: cfg}
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, spec.Dt2) }
	res := dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, spec.Steps, hook)
	return checkpoint.Gather(g, res.Finals)
}

// maxDiff is the max abs difference over all components of two snapshots.
func maxDiff(a, b *checkpoint.Global) float64 {
	d := 0.0
	for _, pair := range [][2][]float64{{a.U, b.U}, {a.V, b.V}, {a.Phi, b.Phi}, {a.Psa, b.Psa}} {
		for i := range pair[0] {
			if m := math.Abs(pair[0][i] - pair[1][i]); m > d {
				d = m
			}
		}
	}
	return d
}

// TestMigrationResumesAcrossBackends is the headline tentpole test: a job is
// killed mid-run with its backend and must complete on the other backend,
// resuming from the shared checkpoint, bitwise the uninterrupted run for both
// schemes (a comm-avoiding checkpoint carries its Ĉ and pending smoothing).
func TestMigrationResumesAcrossBackends(t *testing.T) {
	for _, alg := range []string{"yz", "ca"} {
		t.Run(alg, func(t *testing.T) {
			h := newFleetHarness(t, 2, 1, 4, nil)
			spec := server.JobSpec{
				Alg: alg, Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2,
				Steps: 150, CheckpointEvery: 1,
			}
			resp := h.postJSON(t, "/jobs", spec, "acme")
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d", resp.StatusCode)
			}
			info := decodeInfo(t, resp)

			// Wait until the job has made some checkpointed progress.
			deadline := time.Now().Add(30 * time.Second)
			var owner string
			for time.Now().Before(deadline) {
				cur, _ := h.coord.GetJob(info.ID)
				h.coord.mu.Lock()
				steps, backend, st := cur.stepsDone, cur.Backend, cur.State
				h.coord.mu.Unlock()
				if st.terminal() {
					t.Fatalf("job finished before the kill (%s); raise Steps", st)
				}
				if steps >= 2 && backend != "" {
					owner = backend
					break
				}
				time.Sleep(5 * time.Millisecond)
			}
			if owner == "" {
				t.Fatal("job never made progress")
			}

			// Kill the owning backend mid-job.
			for _, b := range h.backends {
				if b.ts.URL == owner {
					b.kill()
				}
			}

			final := h.waitJob(t, info.ID, "completed", 60*time.Second)
			if final.Migrations < 1 {
				t.Fatalf("completed without migrating (migrations = %d)", final.Migrations)
			}
			if final.Backend == owner {
				t.Fatalf("completed on the killed backend %s", owner)
			}
			met := h.metricsText(t)
			if metricValue(t, met, "cady_fleet_migrations_total") < 1 {
				t.Fatal("cady_fleet_migrations_total = 0 after a migration")
			}
			if metricValue(t, met, "cady_fleet_backends_healthy") > 1 {
				t.Fatal("killed backend still counted healthy")
			}

			// Accuracy: the shared store's final snapshot vs uninterrupted.
			gl, step, err := h.store.Latest(info.ID)
			if err != nil {
				t.Fatalf("shared store Latest: %v", err)
			}
			if step != spec.Steps {
				t.Fatalf("final shared checkpoint at step %d, want %d", step, spec.Steps)
			}
			if ref := refFinal(t, spec); !gl.Equal(ref) {
				t.Fatalf("migrated final differs from uninterrupted run (max diff %g)", maxDiff(gl, ref))
			}
		})
	}
}

// TestTenantQuotaRejects asserts the admission contract: over-quota
// submissions get 429 + Retry-After at the coordinator.
func TestTenantQuotaRejects(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, func(cfg *Config) {
		cfg.Quotas = map[string]int{"greedy": 2}
	})
	h.coord.mu.Lock()
	h.coord.paused = true
	h.coord.mu.Unlock()

	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	for i := 0; i < 2; i++ {
		resp := h.postJSON(t, "/jobs", spec, "greedy")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := h.postJSON(t, "/jobs", spec, "greedy")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	resp.Body.Close()
	// Another tenant is unaffected.
	resp = h.postJSON(t, "/jobs", spec, "bystander")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bystander submit: %d", resp.StatusCode)
	}
	resp.Body.Close()
	met := h.metricsText(t)
	if !strings.Contains(met, `cady_fleet_tenant_rejected_total{tenant="greedy"} 1`) {
		t.Fatal("rejected counter for greedy tenant missing")
	}
}

// TestWeightedFairDequeue pins the smooth-WRR schedule: a greedy low-class
// tenant's backlog cannot starve a high-class tenant — the high tenant's
// jobs dispatch first and the long-run share follows the 4:1 class weights.
func TestWeightedFairDequeue(t *testing.T) {
	h := newFleetHarness(t, 1, 2, 16, func(cfg *Config) {
		cfg.Classes = map[string]string{"vip": "high", "batch": "low"}
		cfg.DefaultQuota = 16
	})
	h.coord.mu.Lock()
	h.coord.paused = true
	h.coord.mu.Unlock()

	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	// The greedy tenant floods first; the priority tenant arrives last.
	for i := 0; i < 10; i++ {
		resp := h.postJSON(t, "/jobs", spec, "batch")
		resp.Body.Close()
	}
	var vipIDs []string
	for i := 0; i < 2; i++ {
		resp := h.postJSON(t, "/jobs", spec, "vip")
		vipIDs = append(vipIDs, decodeInfo(t, resp).ID)
	}

	// Drain the dequeue order deterministically (dispatcher stays paused:
	// nextQueuedLocked returns nil while paused, so pop with it directly).
	h.coord.mu.Lock()
	h.coord.paused = false
	var order []string
	for {
		j := h.coord.nextQueuedLocked()
		if j == nil {
			break
		}
		order = append(order, j.Tenant)
		j.State = fDispatching // keep it out of the FIFO
	}
	h.coord.paused = true
	h.coord.mu.Unlock()
	if len(order) != 12 {
		t.Fatalf("drained %d jobs, want 12", len(order))
	}
	// Both vip jobs are served before any starvation window: with weights
	// 4:1 the vip tenant wins the first two dispatch slots even though its
	// jobs were submitted last.
	if order[0] != "vip" || order[1] != "vip" {
		t.Fatalf("dequeue order %v: vip jobs not served first", order[:4])
	}

	// End to end: un-park everything and require 100%% completion.
	h.coord.mu.Lock()
	for _, id := range h.coord.order {
		j := h.coord.jobs[id]
		if j.State == fDispatching {
			j.State = fQueued
			tq := h.coord.tenant(j.Tenant)
			tq.fifo = append(tq.fifo, j)
		}
	}
	h.coord.paused = false
	h.coord.kickDispatch()
	h.coord.mu.Unlock()
	for _, id := range vipIDs {
		h.waitJob(t, id, "completed", 60*time.Second)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		h.coord.mu.Lock()
		done := 0
		for _, id := range h.coord.order {
			if h.coord.jobs[id].State == fCompleted {
				done++
			}
		}
		total := len(h.coord.order)
		h.coord.mu.Unlock()
		if done == total {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d jobs completed", done, total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEnsembleDeterminism: the same seeded ensemble fans into the same
// member set — member finals are bitwise-reproducible across submissions
// and mutually distinct within one ensemble.
func TestEnsembleDeterminism(t *testing.T) {
	h := newFleetHarness(t, 1, 2, 16, func(cfg *Config) { cfg.DefaultQuota = 16 })
	es := EnsembleSpec{
		Job:     server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 2},
		Members: 3,
		Seed:    7,
	}
	waitEnsemble := func(id string) EnsembleStatus {
		deadline := time.Now().Add(60 * time.Second)
		for {
			resp, err := http.Get(h.cts.URL + "/ensembles/" + id)
			if err != nil {
				t.Fatalf("GET ensemble: %v", err)
			}
			var st EnsembleStatus
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatalf("decode ensemble: %v", err)
			}
			resp.Body.Close()
			if st.State == "completed" {
				return st
			}
			if st.State == "failed" || time.Now().After(deadline) {
				t.Fatalf("ensemble %s state %s (completed %d, failed %d)", id, st.State, st.Completed, st.Failed)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	resp := h.postJSON(t, "/ensembles", es, "acme")
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit ensemble: %d: %s", resp.StatusCode, b)
	}
	var first EnsembleStatus
	json.NewDecoder(resp.Body).Decode(&first)
	resp.Body.Close()
	st1 := waitEnsemble(first.ID)

	// Aggregated diagnostics cover all members and are internally coherent.
	if len(st1.Diagnostics) == 0 {
		t.Fatal("completed ensemble has no aggregated diagnostics")
	}
	ke, ok := st1.Diagnostics["kinetic_energy"]
	if !ok || ke.Count != 3 {
		t.Fatalf("kinetic_energy aggregate missing or wrong count: %+v", ke)
	}
	if !(ke.Min <= ke.Mean && ke.Mean <= ke.Max) {
		t.Fatalf("aggregate not ordered: %+v", ke)
	}
	if ke.Min == ke.Max {
		t.Fatal("perturbed members produced identical kinetic energy (no spread)")
	}

	finals1 := make([]*checkpoint.Global, 3)
	for m := 0; m < 3; m++ {
		gl, step, err := h.store.Latest(fmt.Sprintf("%s-m%02d", first.ID, m))
		if err != nil || step != es.Job.Steps {
			t.Fatalf("member %d final: step %d err %v", m, step, err)
		}
		finals1[m] = gl
	}
	for a := 0; a < 3; a++ {
		for b := a + 1; b < 3; b++ {
			if finals1[a].Equal(finals1[b]) {
				t.Fatalf("members %d and %d are bitwise identical — perturbation did not differentiate them", a, b)
			}
		}
	}

	// Resubmit the identical ensemble: same member set, bitwise.
	resp = h.postJSON(t, "/ensembles", es, "acme")
	var second EnsembleStatus
	json.NewDecoder(resp.Body).Decode(&second)
	resp.Body.Close()
	waitEnsemble(second.ID)
	for m := 0; m < 3; m++ {
		gl, _, err := h.store.Latest(fmt.Sprintf("%s-m%02d", second.ID, m))
		if err != nil {
			t.Fatalf("second ensemble member %d: %v", m, err)
		}
		if !gl.Equal(finals1[m]) {
			t.Fatalf("member %d differs across identically-seeded ensembles", m)
		}
	}
}

// TestCoordinatorRestartReconciliation: a new coordinator over the same
// store adopts completed jobs as completed and running jobs in place —
// without dispatching them a second time.
func TestCoordinatorRestartReconciliation(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil)

	quick := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	resp := h.postJSON(t, "/jobs", quick, "acme")
	qinfo := decodeInfo(t, resp)
	h.waitJob(t, qinfo.ID, "completed", 30*time.Second)

	long := server.JobSpec{Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2, Steps: 40, CheckpointEvery: 2}
	resp = h.postJSON(t, "/jobs", long, "acme")
	linfo := decodeInfo(t, resp)
	deadline := time.Now().Add(30 * time.Second)
	for {
		cur, _ := h.coord.GetJob(linfo.ID)
		h.coord.mu.Lock()
		running := cur.State == fRunning && cur.stepsDone >= 1
		terminal := cur.State.terminal()
		h.coord.mu.Unlock()
		if running {
			break
		}
		if terminal || time.Now().After(deadline) {
			t.Fatal("long job did not reach a mid-run running state")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Stop the coordinator (NOT the backend: its copy keeps running).
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	h.coord.Shutdown(ctx)
	cancel()
	h.cts.Close()

	// A new coordinator over the same store and backends reconciles.
	cfg := Config{
		Backends:      []string{h.backends[0].ts.URL},
		StoreDir:      h.storeDir,
		ProbeInterval: 20 * time.Millisecond,
		WatchInterval: 20 * time.Millisecond,
		DispatchRetry: 10 * time.Millisecond,
	}
	coord2, err := New(cfg)
	if err != nil {
		t.Fatalf("restart fleet.New: %v", err)
	}
	h.coord = coord2
	h.cts = httptest.NewServer(coord2)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		coord2.Shutdown(ctx)
		h.cts.Close()
	})

	// The completed job survived as completed.
	resp2, err := http.Get(h.cts.URL + "/jobs/" + qinfo.ID)
	if err != nil {
		t.Fatalf("GET recovered job: %v", err)
	}
	if got := decodeInfo(t, resp2); got.State != "completed" {
		t.Fatalf("recovered quick job state %s, want completed", got.State)
	}

	// The running job was adopted, finishes, and was not double-dispatched.
	final := h.waitJob(t, linfo.ID, "completed", 60*time.Second)
	if final.Migrations != 0 {
		t.Fatalf("adopted job migrated %d times during a clean restart", final.Migrations)
	}
	bresp, err := http.Get(h.backends[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("backend metrics: %v", err)
	}
	b, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	if v := metricValue(t, string(b), "cady_jobs_submitted_total"); v != 2 {
		t.Fatalf("backend saw %g submissions, want 2 (no re-dispatch on reconcile)", v)
	}
	met := h.metricsText(t)
	if metricValue(t, met, "cady_fleet_jobs_completed_total") < 2 {
		t.Fatal("completed counter not rebuilt after restart")
	}
}

// TestScrapeAggregates: the coordinator's scrape-and-sum backend aggregates
// appear and count the fleet's work.
func TestScrapeAggregates(t *testing.T) {
	h := newFleetHarness(t, 2, 1, 4, nil)
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 2}
	var ids []string
	for i := 0; i < 4; i++ {
		resp := h.postJSON(t, "/jobs", spec, fmt.Sprintf("t%d", i%2))
		ids = append(ids, decodeInfo(t, resp).ID)
	}
	for _, id := range ids {
		h.waitJob(t, id, "completed", 60*time.Second)
	}
	// Force a scrape after completion so the sums are current.
	for _, b := range h.backends {
		h.coord.probeBackend(b.ts.URL)
	}
	met := h.metricsText(t)
	if v := metricValue(t, met, "cady_fleet_agg_jobs_completed_total"); v != 4 {
		t.Fatalf("cady_fleet_agg_jobs_completed_total = %g, want 4", v)
	}
	if v := metricValue(t, met, "cady_fleet_agg_steps_total"); v < 8 {
		t.Fatalf("cady_fleet_agg_steps_total = %g, want >= 8", v)
	}
}

// TestSharedKeyRejected: clients cannot forge the coordinator-owned key.
func TestSharedKeyRejected(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil)
	spec := server.JobSpec{Alg: "yz", SharedKey: "sneaky"}
	resp := h.postJSON(t, "/jobs", spec, "acme")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("forged shared_key accepted: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestSubmitRejectsUnknownFields: both submission endpoints refuse a body
// carrying a retired or misspelled field with a 400 that names it. The
// bodies live in testdata/unknown_fields.json.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil)
	raw, err := os.ReadFile(filepath.Join("testdata", "unknown_fields.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Path  string          `json:"path"`
		Field string          `json:"field"`
		Body  json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("bad fixture (%d cases): %v", len(cases), err)
	}
	for _, tc := range cases {
		resp := h.postJSON(t, tc.Path, tc.Body, "acme")
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.Field) {
			t.Errorf("POST %s with %q: status %d body %s, want 400 naming the field",
				tc.Path, tc.Field, resp.StatusCode, msg)
		}
	}
}

// TestRendezvousStability: routing is consistent by job ID and covers all
// backends across many IDs.
func TestRendezvousStability(t *testing.T) {
	urls := []string{"http://a:1", "http://b:2", "http://c:3"}
	counts := map[string]int{}
	for i := 0; i < 300; i++ {
		id := fmt.Sprintf("f-%06d", i)
		best, bestScore := "", uint64(0)
		for _, u := range urls {
			if s := rendezvousScore(id, u); best == "" || s > bestScore {
				best, bestScore = u, s
			}
		}
		// Stable on recomputation.
		again, againScore := "", uint64(0)
		for _, u := range urls {
			if s := rendezvousScore(id, u); again == "" || s > againScore {
				again, againScore = u, s
			}
		}
		if best != again {
			t.Fatalf("routing for %s unstable", id)
		}
		counts[best]++
	}
	for _, u := range urls {
		if counts[u] < 50 {
			t.Fatalf("backend %s got %d/300 jobs — rendezvous spread badly skewed: %v", u, counts[u], counts)
		}
	}
}

// TestDispatcherRetryTimer: the dispatcher must wake on its retry timer
// alone — repeatedly, without any kick. Regression test for the reused
// time.NewTimer in dispatcher(): a hoisted timer that is never Reset fires
// once and then parks the dispatcher forever, so two back-to-back
// kick-free rounds are required to pass.
func TestDispatcherRetryTimer(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil)
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	for round := 0; round < 2; round++ {
		h.coord.mu.Lock()
		h.coord.paused = true
		h.coord.mu.Unlock()
		resp := h.postJSON(t, "/jobs", spec, "acme")
		id := decodeInfo(t, resp).ID
		// Unpause without kickDispatch: only the retry timer can wake the
		// dispatcher now (any kick from submission was consumed while the
		// queue looked empty under pause).
		time.Sleep(50 * time.Millisecond)
		h.coord.mu.Lock()
		h.coord.paused = false
		h.coord.mu.Unlock()
		h.waitJob(t, id, "completed", 30*time.Second)
	}
}

// parkingTransport is the backend client of TestWatcherSparesDispatchingJob:
// it parks the answer to POST /jobs — the backend has admitted the job, the
// dispatcher has not learned its ID yet — until release is closed, and counts
// the cancel requests the coordinator sends.
type parkingTransport struct {
	posted  chan struct{} // one send per parked POST /jobs; the test submits one job
	release chan struct{}
	cancels atomic.Int32
}

func (p *parkingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(req)
	if req.Method == http.MethodPost {
		switch {
		case strings.HasSuffix(req.URL.Path, "/cancel"):
			p.cancels.Add(1)
		case req.URL.Path == "/jobs":
			p.posted <- struct{}{}
			<-p.release
		}
	}
	return resp, err
}

// TestWatcherSparesDispatchingJob: a watcher pass that lands between a
// backend's answer to POST /jobs and the dispatcher committing Backend and
// BackendID must not take the fresh copy for a zombie — cancelling it costs
// the job a migration it never needed.
func TestWatcherSparesDispatchingJob(t *testing.T) {
	park := &parkingTransport{posted: make(chan struct{}, 1), release: make(chan struct{})}
	h := newFleetHarness(t, 1, 1, 4, func(c *Config) { c.Client = &http.Client{Transport: park} })
	spec := server.JobSpec{Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2, Steps: 100}
	id := decodeInfo(t, h.postJSON(t, "/jobs", spec, "acme")).ID

	<-park.posted
	h.coord.watchOnce()
	cancels := park.cancels.Load()
	close(park.release)
	if cancels != 0 {
		t.Errorf("watcher sent %d cancel(s) for the copy of a job still in dispatch", cancels)
	}
	h.waitJob(t, id, "completed", 60*time.Second)
	h.coord.mu.Lock()
	migrations := h.coord.met.migrations
	h.coord.mu.Unlock()
	if migrations != 0 {
		t.Errorf("job dispatched once to a healthy backend was migrated %d time(s)", migrations)
	}
}

var _ = filepath.Join // keep import if helpers change
