package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

// TestSharedStoreResumeAcrossServers is the migration substrate in
// miniature: a job checkpointing into the shared store is interrupted on one
// server, and a *different* server process (fresh state directory, same
// store) resumes it through the shared snapshot to a bitwise-identical
// final state.
func TestSharedStoreResumeAcrossServers(t *testing.T) {
	storeDir := t.TempDir()
	storeA, err := checkpoint.NewDirStore(storeDir)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	a := newTestServer(t, Config{Workers: 1, QueueCap: 4, Shared: storeA})
	tsA := httptest.NewServer(a)
	defer tsA.Close()

	spec := smallSpec(150)
	spec.CheckpointEvery = 1
	spec.SharedKey = "mig-001"
	resp := postJSON(t, tsA, "/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	st := decodeStatus(t, resp)

	// Let it checkpoint a few steps, then tear server A down mid-run.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, step, err := storeA.Latest("mig-001"); err == nil && step >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no shared checkpoint appeared")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancelShutdown(t, a)
	tsA.Close()
	if j, ok := a.Get(st.ID); ok {
		if s := j.Status(); s.State == JCompleted {
			t.Skip("job completed before the interrupt; machine too fast for this window")
		}
	}

	// Server B: fresh process, no local snapshots, same shared store.
	storeB, err := checkpoint.NewDirStore(storeDir)
	if err != nil {
		t.Fatalf("NewDirStore B: %v", err)
	}
	b := newTestServer(t, Config{Workers: 1, QueueCap: 4, Shared: storeB})
	tsB := httptest.NewServer(b)
	defer tsB.Close()
	resp = postJSON(t, tsB, "/jobs", spec)
	st2 := decodeStatus(t, resp)
	final := waitState(t, b, st2.ID, JCompleted)
	if final.StepsDone != spec.Steps {
		t.Fatalf("resumed job steps_done = %d, want %d", final.StepsDone, spec.Steps)
	}

	// It must actually have resumed (not recomputed from step 0) ...
	mresp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	mb, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !containsLine(string(mb), "cady_shared_resumes_total 1") {
		t.Fatal("server B did not count a shared-store resume")
	}

	// ... and the final state is bitwise what an uninterrupted run gives.
	gl, step, err := storeB.Latest("mig-001")
	if err != nil || step != spec.Steps {
		t.Fatalf("final shared snapshot: step %d err %v", step, err)
	}
	if !gl.Equal(refFinal(spec)) {
		t.Fatal("cross-server resumed final differs from uninterrupted run")
	}
}

// TestFinalSnapshotResumeKeepsDiagnostics: a job that arrives to find its
// final-step snapshot in the shared store (a completed job migrated again)
// completes with the diagnostics of the uninterrupted run, not with none.
func TestFinalSnapshotResumeKeepsDiagnostics(t *testing.T) {
	storeDir := t.TempDir()
	spec := smallSpec(3)
	spec.SharedKey = "done-001"
	var diags []map[string]float64
	for i := 0; i < 2; i++ {
		store, err := checkpoint.NewDirStore(storeDir)
		if err != nil {
			t.Fatalf("NewDirStore: %v", err)
		}
		s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Shared: store})
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit on server %d: %v", i, err)
		}
		st := waitState(t, s, j.ID, JCompleted)
		if st.StepsDone != spec.Steps {
			t.Fatalf("server %d: steps_done %d, want %d", i, st.StepsDone, spec.Steps)
		}
		diags = append(diags, st.Diagnostics)
	}
	if len(diags[1]) == 0 || len(diags[1]) != len(diags[0]) {
		t.Fatalf("diagnostics after a final-snapshot resume: %v, want %v", diags[1], diags[0])
	}
	//cadyvet:unordered element-wise comparison
	for k, v := range diags[0] {
		if diags[1][k] != v {
			t.Errorf("diagnostic %s: %v after a final-snapshot resume, %v uninterrupted", k, diags[1][k], v)
		}
	}
}

// TestCompletedDiagnosticsSurviveRestart: a completed job's diagnostics are
// committed with its meta.json, so a server restarted over the same
// directory reports them unchanged.
func TestCompletedDiagnosticsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	before := waitState(t, s, j.ID, JCompleted).Diagnostics
	cancelShutdown(t, s)

	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	r, ok := s2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	after := r.Status()
	if after.State != JCompleted || len(before) == 0 || !maps.Equal(after.Diagnostics, before) {
		t.Fatalf("recovered %s job with diagnostics %v, want completed with %v", after.State, after.Diagnostics, before)
	}
}

// TestCompletedStatusSurvivesRestart: a completed job's submission time (in
// spec.json), run times, whole-job communication statistics and operation
// counts (in meta.json) are committed, so GET /jobs/{id} on a server
// restarted over the same directory reports them as the first server did,
// wall_sec included.
func TestCompletedStatusSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	get := func(s *Server, id string) JobStatus {
		t.Helper()
		ts := httptest.NewServer(s)
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		return decodeStatus(t, resp)
	}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, j.ID, JCompleted)
	before := get(s, j.ID)
	cancelShutdown(t, s)
	if before.StartedAt == nil || before.FinishedAt == nil || before.Comm == nil || before.Counters == nil {
		t.Fatalf("completed job reports started_at %v, finished_at %v, comm %v, counters %v",
			before.StartedAt, before.FinishedAt, before.Comm, before.Counters)
	}

	after := get(newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir}), j.ID)
	if after.SubmittedAt != before.SubmittedAt || after.StartedAt == nil || after.FinishedAt == nil ||
		!after.StartedAt.Equal(*before.StartedAt) || !after.FinishedAt.Equal(*before.FinishedAt) {
		t.Errorf("recovered submitted_at %q, started_at %v, finished_at %v; before the restart %q, %v, %v",
			after.SubmittedAt, after.StartedAt, after.FinishedAt, before.SubmittedAt, before.StartedAt, before.FinishedAt)
	}
	if after.WallSec != before.WallSec {
		t.Errorf("recovered wall_sec %v, before the restart %v", after.WallSec, before.WallSec)
	}
	if !reflect.DeepEqual(after.Comm, before.Comm) {
		t.Errorf("recovered comm %+v, before the restart %+v", after.Comm, before.Comm)
	}
	if !reflect.DeepEqual(after.Counters, before.Counters) {
		t.Errorf("recovered counters %+v, before the restart %+v", after.Counters, before.Counters)
	}
}

func cancelShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}

func containsLine(text, line string) bool {
	for len(text) > 0 {
		i := 0
		for i < len(text) && text[i] != '\n' {
			i++
		}
		if text[:i] == line {
			return true
		}
		if i == len(text) {
			break
		}
		text = text[i+1:]
	}
	return false
}

// TestListPaginationAndFilter covers GET /jobs ?status= / ?offset= /
// ?limit= and the paged response envelope.
func TestListPaginationAndFilter(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 16})
	ts := httptest.NewServer(s)
	defer ts.Close()

	var ids []string
	for i := 0; i < 5; i++ {
		resp := postJSON(t, ts, "/jobs", smallSpec(1))
		ids = append(ids, decodeStatus(t, resp).ID)
	}
	for _, id := range ids {
		waitState(t, s, id, JCompleted)
	}

	type page struct {
		Jobs   []JobStatus `json:"jobs"`
		Total  int         `json:"total"`
		Offset int         `json:"offset"`
		Count  int         `json:"count"`
	}
	get := func(q string) page {
		resp, err := http.Get(ts.URL + "/jobs" + q)
		if err != nil {
			t.Fatalf("GET /jobs%s: %v", q, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs%s: %d", q, resp.StatusCode)
		}
		var pg page
		if err := json.NewDecoder(resp.Body).Decode(&pg); err != nil {
			t.Fatalf("decode page: %v", err)
		}
		return pg
	}

	all := get("")
	if all.Total != 5 || all.Count != 5 || len(all.Jobs) != 5 {
		t.Fatalf("unfiltered list: total %d count %d len %d", all.Total, all.Count, len(all.Jobs))
	}
	pg := get("?offset=1&limit=2")
	if pg.Total != 5 || pg.Offset != 1 || pg.Count != 2 {
		t.Fatalf("page: %+v", pg)
	}
	if pg.Jobs[0].ID != all.Jobs[1].ID || pg.Jobs[1].ID != all.Jobs[2].ID {
		t.Fatal("page window does not match the unpaged order")
	}
	if pg := get("?offset=99"); pg.Count != 0 || pg.Total != 5 {
		t.Fatalf("past-the-end page: %+v", pg)
	}
	if pg := get("?status=completed"); pg.Total != 5 {
		t.Fatalf("status=completed total %d, want 5", pg.Total)
	}
	if pg := get("?status=failed"); pg.Total != 0 {
		t.Fatalf("status=failed total %d, want 0", pg.Total)
	}
	resp, err := http.Get(ts.URL + "/jobs?status=bogus")
	if err != nil {
		t.Fatalf("GET bogus status: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status=bogus: %d, want 400", resp.StatusCode)
	}
}

// TestPerturbInitLayoutIndependent: the ensemble perturbation is a function
// of global coordinates only, so every decomposition of the same (seed, amp)
// yields the bitwise-identical global state, polar V rows stay exactly zero,
// and different seeds genuinely differ.
func TestPerturbInitLayoutIndependent(t *testing.T) {
	const nx, ny, nz = 48, 24, 8
	run := func(pa, pb int, seed int64, amp float64) *checkpoint.Global {
		g := grid.New(nx, ny, nz)
		cfg := dycore.DefaultConfig()
		set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: pa, PB: pb, Cfg: cfg}
		init := perturbInit(heldsuarez.InitialState, seed, amp)
		// 0 steps: the gathered finals ARE the perturbed initial state, so
		// the comparison isolates the perturbation from the dynamics.
		res := dycore.RunWithHook(set, g, comm.TianheLike(), init, 0, nil)
		return checkpoint.Gather(g, res.Finals)
	}
	a := run(2, 2, 42, 1e-4)
	b := run(1, 4, 42, 1e-4)
	c := run(4, 1, 42, 1e-4)
	if !a.Equal(b) || !a.Equal(c) {
		t.Fatal("perturbed state depends on the process decomposition")
	}
	if d := run(2, 2, 43, 1e-4); a.Equal(d) {
		t.Fatal("different seeds produced identical perturbations")
	}
	// Polar V rows are exactly zero in the base state; multiplicative noise
	// must preserve that invariant bitwise.
	for k := 0; k < nz; k++ {
		for i := 0; i < nx; i++ {
			if v := a.V[(k*ny+0)*nx+i]; v != 0 {
				t.Fatalf("south-pole V[%d,%d] = %g after perturbation", i, k, v)
			}
			if v := a.V[(k*ny+ny-1)*nx+i]; v != 0 {
				t.Fatalf("north-pole V[%d,%d] = %g after perturbation", i, k, v)
			}
		}
	}
}

// TestSpecSharedKeyValidation: shared-store keys and tenants are validated
// at admission.
func TestSpecSharedKeyValidation(t *testing.T) {
	bad := []JobSpec{
		func() JobSpec { s := smallSpec(1); s.SharedKey = "has/slash"; return s }(),
		func() JobSpec { s := smallSpec(1); s.Tenant = "white space"; return s }(),
		func() JobSpec { s := smallSpec(1); s.PerturbAmp = 0.5; return s }(),
		func() JobSpec { s := smallSpec(1); s.Kind = "bench"; s.SharedKey = "k"; return s }(),
	}
	for i := range bad {
		if err := bad[i].Normalize(); err == nil {
			t.Fatalf("case %d: invalid spec accepted: %+v", i, bad[i])
		}
	}
	ok := smallSpec(1)
	ok.SharedKey = "fleet.job-001"
	ok.Tenant = "acme_corp"
	ok.PerturbAmp = 1e-4
	ok.PerturbSeed = 9
	if err := ok.Normalize(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

var _ = fmt.Sprintf // placate imports if assertions change
