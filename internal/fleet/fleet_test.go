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
	"reflect"
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

func newFleetHarness(t *testing.T, nBackends, workersEach, queueEach int, mut func(*server.Config), client *http.Client) *fleetHarness {
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
		scfg := server.Config{Workers: workersEach, QueueCap: queueEach, Shared: bs}
		if mut != nil {
			mut(&scfg)
		}
		srv, err := server.New(scfg)
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
		FailThreshold: 2,
		Client:        client,
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

// getJob is one GET /jobs/{id}: the coordinator folds in the owning
// backend's live status.
func (h *fleetHarness) getJob(t *testing.T, id string) JobInfo {
	t.Helper()
	resp, err := http.Get(h.cts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	return decodeInfo(t, resp)
}

// waitProgress polls until the job runs on a backend with at least steps
// steps done, and returns its view.
func (h *fleetHarness) waitProgress(t *testing.T, id string, steps int) JobInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		info := h.getJob(t, id)
		if info.State != "queued" && info.State != "running" {
			t.Fatalf("job %s finished before reaching step %d (%s); raise Steps", id, steps, info.State)
		}
		if info.StepsDone >= steps && info.Backend != "" {
			return info
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached step %d", id, steps)
	return JobInfo{}
}

// waitJob polls GET /jobs/{id} until the public state matches.
func (h *fleetHarness) waitJob(t *testing.T, id, want string, timeout time.Duration) JobInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last JobInfo
	for time.Now().Before(deadline) {
		last = h.getJob(t, id)
		if last.State == want {
			return last
		}
		if last.State == string(server.JFailed) && want != string(server.JFailed) {
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
			h := newFleetHarness(t, 2, 1, 4, nil, nil)
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
			owner := h.waitProgress(t, info.ID, 2).Backend

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

// TestBlownUpJobCompletes: a backend job whose state went non-finite is
// read by the coordinator like any other — completed, all_finite 0 — and
// the coordinator's job list still decodes that backend.
func TestBlownUpJobCompletes(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
	spec := server.JobSpec{Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2, Steps: 4, Dt1: 3000, Dt2: 18000}
	resp := h.postJSON(t, "/jobs", spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	info := h.waitJob(t, decodeInfo(t, resp).ID, string(server.JCompleted), 60*time.Second)
	if d := info.Diagnostics; d["all_finite"] != 0 || len(d) == 0 {
		t.Fatalf("coordinator's diagnostics = %v, want all_finite 0", d)
	}
	lresp, err := http.Get(h.cts.URL + "/jobs")
	if err != nil || lresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs: %v status %d", err, lresp.StatusCode)
	}
	var list struct {
		Jobs []JobInfo `json:"jobs"`
	}
	err = json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].State != string(server.JCompleted) {
		t.Fatalf("coordinator job list: %v %+v", err, list.Jobs)
	}
}

// TestListStatusFilter: the coordinator's GET /jobs?status= filters by a
// backend's job states and, like a backend, answers an unknown one with a
// 400 that names it.
func TestListStatusFilter(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
	spec := server.JobSpec{Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2, Steps: 1}
	resp := h.postJSON(t, "/jobs", spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	h.waitJob(t, decodeInfo(t, resp).ID, string(server.JCompleted), 60*time.Second)
	for filter, want := range map[string]int{"completed": 1, "failed": 0} {
		lresp, err := http.Get(h.cts.URL + "/jobs?status=" + filter)
		if err != nil {
			t.Fatal(err)
		}
		var page struct {
			Total int `json:"total"`
		}
		err = json.NewDecoder(lresp.Body).Decode(&page)
		lresp.Body.Close()
		if err != nil || lresp.StatusCode != http.StatusOK || page.Total != want {
			t.Errorf("status=%s: %d, total %d (%v); want 200, %d", filter, lresp.StatusCode, page.Total, err, want)
		}
	}
	lresp, err := http.Get(h.cts.URL + "/jobs?status=bogus")
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(lresp.Body)
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "bogus") {
		t.Errorf("status=bogus: %d %s, want 400 naming it", lresp.StatusCode, msg)
	}
}

// TestTenantQuotaRejects: the backends' tenant quota is the fleet's. Over a
// one-backend coordinator, a submission over quota gets the backend's 429 +
// Retry-After passed through, another tenant is admitted, and an ensemble
// that does not fit whole is refused with every member it placed cancelled.
func TestTenantQuotaRejects(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 8, func(cfg *server.Config) {
		cfg.Quotas = map[string]int{"greedy": 2, "bystander": 3}
	}, nil)
	// Long enough to hold its quota slot for the whole test.
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 100000}
	var ids []string
	for i := 0; i < 2; i++ {
		resp := h.postJSON(t, "/jobs", spec, "greedy")
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		ids = append(ids, decodeInfo(t, resp).ID)
	}
	resp := h.postJSON(t, "/jobs", spec, "greedy")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-quota submit: %d (Retry-After %q), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp = h.postJSON(t, "/jobs", spec, "bystander")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bystander submit: %d", resp.StatusCode)
	}
	ids = append(ids, decodeInfo(t, resp).ID)
	es := EnsembleSpec{Job: spec, Members: 3, Seed: 7}
	resp = h.postJSON(t, "/ensembles", es, "bystander")
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("ensemble over the bystander's quota room: %d, want 429", resp.StatusCode)
	}
	bresp, err := http.Get(h.backends[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("backend metrics: %v", err)
	}
	b, _ := io.ReadAll(bresp.Body)
	bresp.Body.Close()
	for _, want := range []string{
		`cady_tenant_rejected_total{tenant="greedy"} 1`,
		`cady_tenant_inflight{tenant="greedy"} 2`,
		`cady_tenant_rejected_total{tenant="bystander"} 1`,
		`cady_tenant_inflight{tenant="bystander"} 1`, // the two placed members were cancelled
	} {
		if !strings.Contains(string(b), want) {
			t.Errorf("backend metrics missing %q", want)
		}
	}
	for _, id := range ids {
		resp := h.postJSON(t, "/jobs/"+id+"/cancel", nil, "")
		resp.Body.Close()
	}
}

// TestEnsembleDeterminism: the same seeded ensemble fans into the same
// member set — member finals are bitwise-reproducible across submissions
// and mutually distinct within one ensemble.
func TestEnsembleDeterminism(t *testing.T) {
	h := newFleetHarness(t, 1, 2, 16, nil, nil)
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
	h := newFleetHarness(t, 1, 1, 4, nil, nil)

	quick := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	resp := h.postJSON(t, "/jobs", quick, "acme")
	qinfo := decodeInfo(t, resp)
	h.waitJob(t, qinfo.ID, "completed", 30*time.Second)

	long := server.JobSpec{Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 2, PB: 2, M: 2, Steps: 40, CheckpointEvery: 2}
	resp = h.postJSON(t, "/jobs", long, "acme")
	linfo := decodeInfo(t, resp)
	h.waitProgress(t, linfo.ID, 1)

	h.restart(t)

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

// restart stops the coordinator (not the backends: their copies keep
// running) and starts a new one over the same store and backends, which
// reconciles; the harness's cleanup stops the new one.
func (h *fleetHarness) restart(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	h.coord.Shutdown(ctx)
	cancel()
	h.cts.Close()
	var urls []string
	for _, b := range h.backends {
		urls = append(urls, b.ts.URL)
	}
	coord, err := New(Config{Backends: urls, StoreDir: h.storeDir, ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("restart fleet.New: %v", err)
	}
	h.coord = coord
	h.cts = httptest.NewServer(coord)
}

// TestSubmittedAtSurvivesCoordinatorRestart: a fleet job's and an
// ensemble's submission times, and a finished job's finish time and final
// diagnostics, are committed with their fleet.json records, so a restarted
// coordinator reports what the first one did: the whole JobInfo of a
// completed job, of a cancelled one and of each ensemble member, and the
// ensemble's submission time and diagnostic aggregate.
func TestSubmittedAtSurvivesCoordinatorRestart(t *testing.T) {
	h := newFleetHarness(t, 1, 2, 8, nil, nil)
	quick := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1}
	job := decodeInfo(t, h.postJSON(t, "/jobs", quick, "acme"))
	resp := h.postJSON(t, "/ensembles", EnsembleSpec{Job: quick, Members: 2}, "acme")
	var ens EnsembleStatus
	if err := json.NewDecoder(resp.Body).Decode(&ens); err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit ensemble: %d, %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	long := quick
	long.Steps = 100000
	stopped := h.waitProgress(t, decodeInfo(t, h.postJSON(t, "/jobs", long, "acme")).ID, 1)
	resp = h.postJSON(t, "/jobs/"+stopped.ID+"/cancel", nil, "")
	resp.Body.Close()
	h.waitJob(t, stopped.ID, "cancelled", 30*time.Second)
	ensemble := func() EnsembleStatus {
		resp, err := http.Get(h.cts.URL + "/ensembles/" + ens.ID)
		if err != nil {
			t.Fatalf("GET ensemble: %v", err)
		}
		defer resp.Body.Close()
		var st EnsembleStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode ensemble: %v", err)
		}
		return st
	}
	h.waitJob(t, job.ID, "completed", 30*time.Second)
	for _, m := range ens.MemberJobs {
		h.waitJob(t, m.ID, "completed", 30*time.Second)
	}
	// What a restart must keep: the completed job, the cancelled one and
	// each member, whole.
	snapshot := func() ([]JobInfo, string, map[string]DiagAggregate) {
		e := ensemble()
		infos := append([]JobInfo{h.getJob(t, job.ID), h.getJob(t, stopped.ID)}, e.MemberJobs...)
		return infos, e.SubmittedAt, e.Diagnostics
	}
	before, ensBefore, aggBefore := snapshot()
	for _, info := range before {
		if info.FinishedAt == "" || (info.State == "completed") != (len(info.Diagnostics) > 0) {
			t.Fatalf("job %s is %s with finished_at %q and %d diagnostics before the restart",
				info.ID, info.State, info.FinishedAt, len(info.Diagnostics))
		}
	}
	if before[1].State != "cancelled" || before[1].Backend == "" {
		t.Fatalf("cancelled job before the restart: %+v", before[1])
	}
	h.restart(t)
	after, ensAfter, aggAfter := snapshot()
	for i := range before {
		if !reflect.DeepEqual(after[i], before[i]) {
			t.Errorf("after a coordinator restart job %s reports\n%+v\nbefore it\n%+v", before[i].ID, after[i], before[i])
		}
	}
	if ensAfter != ensBefore || !reflect.DeepEqual(aggAfter, aggBefore) {
		t.Errorf("after a coordinator restart the ensemble reports submitted_at %q and diagnostics %v, before it %q and %v",
			ensAfter, aggAfter, ensBefore, aggBefore)
	}
}

// partitionTransport is the coordinator's client in
// TestRecoveredBackendZombieCancelledOnce: while down is set, every request
// to host fails as if the backend were unreachable, and it counts the
// cancels the coordinator sends to host.
type partitionTransport struct {
	host    atomic.Value // string
	down    atomic.Bool
	cancels atomic.Int32
}

func (p *partitionTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if host, _ := p.host.Load().(string); req.URL.Host == host {
		if p.down.Load() {
			return nil, fmt.Errorf("partitioned from %s", host)
		}
		if req.Method == http.MethodPost && strings.HasSuffix(req.URL.Path, "/cancel") {
			p.cancels.Add(1)
		}
	}
	return http.DefaultTransport.RoundTrip(req)
}

// TestRecoveredBackendZombieCancelledOnce: a backend cut off long enough to
// be declared dead keeps running its copy of a job that migrated away; when
// it comes back, that zombie copy is cancelled exactly once.
func TestRecoveredBackendZombieCancelledOnce(t *testing.T) {
	part := &partitionTransport{}
	h := newFleetHarness(t, 2, 1, 4, nil, &http.Client{Transport: part})
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 100000, CheckpointEvery: 10}
	first := h.waitProgress(t, decodeInfo(t, h.postJSON(t, "/jobs", spec, "acme")).ID, 1)
	part.host.Store(strings.TrimPrefix(first.Backend, "http://"))
	part.down.Store(true)

	deadline := time.Now().Add(30 * time.Second)
	for h.getJob(t, first.ID).Backend == first.Backend {
		if time.Now().After(deadline) {
			t.Fatal("job never migrated off the partitioned backend")
		}
		time.Sleep(5 * time.Millisecond)
	}
	part.down.Store(false)
	zombie := func() server.JobStatus {
		resp, err := http.Get(first.Backend + "/jobs/" + first.BackendJobID)
		if err != nil {
			t.Fatalf("GET zombie copy: %v", err)
		}
		defer resp.Body.Close()
		var st server.JobStatus
		json.NewDecoder(resp.Body).Decode(&st)
		return st
	}
	for !zombie().State.Terminal() {
		if time.Now().After(deadline) {
			t.Fatal("zombie copy still live after its backend came back")
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // several more probe rounds
	if n := part.cancels.Load(); n != 1 {
		t.Errorf("recovered backend got %d cancels, want exactly 1", n)
	}
	if st := zombie(); st.State != server.JCancelled {
		t.Errorf("zombie copy is %s, want cancelled", st.State)
	}
	if info := h.getJob(t, first.ID); info.State != "running" || info.Migrations != 1 {
		t.Errorf("migrated job: %s after %d migrations, want running after 1", info.State, info.Migrations)
	}
	resp := h.postJSON(t, "/jobs/"+first.ID+"/cancel", nil, "")
	resp.Body.Close()
}

// TestBackendEndpointsRejectBadURL: registering or draining a backend needs
// an absolute http(s) URL; anything else is a 400, and nothing registers.
func TestBackendEndpointsRejectBadURL(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
	bodies := []map[string]any{
		{"url": ""}, {"url": "localhost:8081"}, {"url": "ftp://h:1"}, {"url": "http://"},
		// A valid URL beside an unknown field is refused like every other
		// request body with one (server.DecodeStrict).
		{"url": "http://127.0.0.1:1", "weight": 3},
	}
	for _, path := range []string{"/backends", "/backends/drain"} {
		for _, body := range bodies {
			resp := h.postJSON(t, path, body, "")
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST %s %v: %d, want 400", path, body, resp.StatusCode)
			}
		}
	}
	if v := metricValue(t, h.metricsText(t), "cady_fleet_backends"); v != 1 {
		t.Errorf("cady_fleet_backends = %g after bad registrations, want 1", v)
	}
	resp := h.postJSON(t, "/backends", map[string]string{"url": "http://127.0.0.1:1"}, "")
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("registering a valid URL: %d, want 201", resp.StatusCode)
	}
}

// TestSharedKeyRejected: clients cannot forge the coordinator-owned key.
func TestSharedKeyRejected(t *testing.T) {
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
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
	h := newFleetHarness(t, 1, 1, 4, nil, nil)
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
