package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

func autoSpec(steps int) JobSpec {
	return JobSpec{
		Layout: "auto", Procs: 4,
		Nx: 32, Ny: 16, Nz: 4, M: 2, Steps: steps,
	}
}

func TestAutoLayoutJobRunsAndSurfacesPlan(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, Dir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts, "/jobs", autoSpec(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	final := waitState(t, s, st.ID, JCompleted)

	if final.Plan == nil {
		t.Fatal("completed auto job has no plan in its status")
	}
	p := final.Plan
	if got := p.PA * p.PB; got != 4 {
		t.Errorf("planned grid %dx%d uses %d ranks, want 4", p.PA, p.PB, got)
	}
	if p.Scheme != dycore.AlgCommAvoid && p.Scheme != dycore.AlgBaselineYZ {
		t.Errorf("unknown planned scheme %q", p.Scheme)
	}
	if p.ProfileHash == "" || p.PredictedStep <= 0 {
		t.Errorf("plan missing evidence: %+v", p)
	}
	if final.StepsDone != 2 {
		t.Errorf("steps done = %d, want 2", final.StepsDone)
	}

	// The plan must also reach the status endpoint as JSON and the
	// persisted metadata (so resumes reuse the decomposition).
	hresp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil {
		t.Fatal(err)
	}
	hst := decodeStatus(t, hresp)
	if hst.Plan == nil || hst.Plan.Scheme != p.Scheme {
		t.Errorf("HTTP status lost the plan: %+v", hst.Plan)
	}
	metaB, err := os.ReadFile(filepath.Join(dir, st.ID, "meta.json"))
	if err != nil {
		t.Fatalf("reading persisted meta: %v", err)
	}
	var meta struct {
		Plan *tune.Plan `json:"plan"`
	}
	if err := json.Unmarshal(metaB, &meta); err != nil || meta.Plan == nil {
		t.Errorf("persisted meta has no plan: %s", metaB)
	}
}

func TestAutoLayoutSpecValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, spec := range map[string]JobSpec{
		"auto with alg":         {Layout: "auto", Alg: "ca"},
		"auto with grid":        {Layout: "auto", PA: 2, PB: 2},
		"unknown layout":        {Layout: "dynamic"},
		"procs without auto":    {Alg: "yz", PA: 2, PB: 2, Procs: 4},
		"procs beyond the cap":  {Layout: "auto", Procs: 4096},
		"auto on a figures job": {Kind: "figures", Layout: "auto"},
	} {
		resp := postJSON(t, ts, "/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestAutoLayoutInfeasibleBudgetFailsAfterPlanning(t *testing.T) {
	// 97 is prime and exceeds every per-axis cap of the default mesh, so no
	// factorization is feasible: submission is accepted (the budget alone
	// is not invalid) but planning must fail the job with a clear error.
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	spec := JobSpec{Layout: "auto", Procs: 97, Steps: 1}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	final := waitState(t, s, j.ID, JFailed)
	if !strings.Contains(final.Error, "autotune") {
		t.Errorf("error %q does not mention autotuning", final.Error)
	}
	if final.Resumable {
		t.Error("an unplannable job must not be resumable")
	}
}

// recoverFixture plants testdata/<fixture> — an earlier release's spec.json
// and meta.json for job j-000001 — in a fresh service directory and starts a
// server over it, returning the recovered job.
func recoverFixture(t *testing.T, fixture string) (*Server, *Job) {
	t.Helper()
	dir := t.TempDir()
	jdir := filepath.Join(dir, "j-000001")
	//cadyvet:volatile a test fixture's job directory, planted for recovery to load; it never needs to survive a power loss
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"spec.json", "meta.json"} {
		body, err := os.ReadFile(filepath.Join("testdata", fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		//cadyvet:volatile plants an older release's on-disk state for recovery to load; it must not be durably committed
		if err := os.WriteFile(filepath.Join(jdir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, ok := s.Get("j-000001")
	if !ok {
		t.Fatalf("job of %s was not recovered", fixture)
	}
	return s, j
}

// matchesExplicitRun reports whether the job's final checkpoint is bitwise
// that of an explicit H-S run of set over the job's mesh and steps.
func matchesExplicitRun(t *testing.T, s *Server, j *Job, set dycore.Setup) bool {
	spec := j.Spec
	g := grid.New(spec.Nx, spec.Ny, spec.Nz)
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, spec.Dt2) }
	res := dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, spec.Steps, hook)
	return homeSnap(t, s, j).Equal(checkpoint.Gather(g, res.Finals))
}

// TestRecoverHonoursVersion3PlanMeta: job metadata persisted by the release
// that still planned a smoothing-path axis and latitude-weighted rows (plan
// version 3) must keep loading. testdata/v3-job holds that release's files
// for an auto job on the benchmark's `auto` class, as left by a process that
// died right after planning. The layout is honoured — rows included — and
// the smoothing runs on the stencil, the one remaining implementation (the
// deferred-smoothing resume contract is path-independent).
func TestRecoverHonoursVersion3PlanMeta(t *testing.T) {
	s, j := recoverFixture(t, "v3-job")
	st := j.Status()
	wantRows := []int{0, 5, 12, 19, 24}
	if st.State != JInterrupted || !st.Resumable || st.Plan == nil || !reflect.DeepEqual(st.Plan.RowStarts, wantRows) {
		t.Fatalf("recovered %s resumable=%v plan %v, want interrupted/resumable on rows %v", st.State, st.Resumable, st.Plan, wantRows)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fin := waitState(t, s, j.ID, JCompleted)
	if fin.StepsDone != 4 || !reflect.DeepEqual(fin.Plan.RowStarts, wantRows) {
		t.Fatalf("resumed job finished at %d steps on rows %v, want 4 on %v", fin.StepsDone, fin.Plan.RowStarts, wantRows)
	}
	// Bitwise the explicit stencil run of the same layout.
	if !matchesExplicitRun(t, s, j, fin.Plan.Setup(j.Spec.config())) {
		t.Error("recovered run differs from the explicit stencil run on the planned rows")
	}
}

// TestRecoverResumesXYPlanMeta: the planner no longer searches the X-Y
// scheme, but an X-Y plan an earlier release persisted still runs as
// planned. testdata/xy-job holds that release's files for an auto job
// planned `xy 1x4` on 48×24×8, as left by a process that died right after
// planning.
func TestRecoverResumesXYPlanMeta(t *testing.T) {
	s, j := recoverFixture(t, "xy-job")
	st := j.Status()
	if st.State != JInterrupted || !st.Resumable || st.Plan == nil || tune.Key(st.Plan.Setup(j.Spec.config())) != "xy-1x4-m2" {
		t.Fatalf("recovered %s resumable=%v plan %v, want interrupted/resumable on xy 1x4", st.State, st.Resumable, st.Plan)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if fin := waitState(t, s, j.ID, JCompleted); fin.StepsDone != 4 || fin.Plan.Scheme != dycore.AlgBaselineXY {
		t.Fatalf("resumed job finished at %d steps on %v, want 4 on xy 1x4", fin.StepsDone, fin.Plan)
	}
	if !matchesExplicitRun(t, s, j, dycore.Setup{Alg: dycore.AlgBaselineXY, PA: 1, PB: 4, Cfg: j.Spec.config()}) {
		t.Error("recovered run differs from the explicit xy 1x4 run")
	}
}

// TestRecoverSpecOnlyJob: a submit commits spec.json and nothing else, so a
// crash right after its 202 leaves a job directory holding only spec.json. It
// recovers as the queued, all-zero job a missing meta.json stands for —
// surfaced as interrupted and resumable — and, resumed, ends bitwise equal
// to an uninterrupted run. This spec.json is an earlier release's, without
// the submission time, so the job is dated by the file's modification time.
func TestRecoverSpecOnlyJob(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "j-000001")
	spec := smallSpec(3)
	spec.Alg = "ca"
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	b, _ := json.MarshalIndent(spec, "", "  ")
	if err := checkpoint.MkdirDurable(jdir); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(jdir, "spec.json"), b); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, ok := s.Get("j-000001")
	if !ok {
		t.Fatal("spec-only job was not recovered")
	}
	if st := j.Status(); st.State != JInterrupted || !st.Resumable || st.StepsDone != 0 || st.CkptStep != 0 || st.Attempts != 0 {
		t.Fatalf("recovered %+v, want interrupted, resumable and all zero", st)
	}
	fi, err := os.Stat(filepath.Join(jdir, "spec.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := j.Status().SubmittedAt, fi.ModTime().UTC().Format(time.RFC3339Nano); got != want {
		t.Errorf("recovered submitted_at %s, want spec.json's modification time %s", got, want)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if fin := waitState(t, s, j.ID, JCompleted); fin.StepsDone != 3 {
		t.Fatalf("resumed job finished at step %d, want 3", fin.StepsDone)
	}
	if !matchesExplicitRun(t, s, j, j.Spec.setup()) {
		t.Error("resumed spec-only job differs from the uninterrupted run")
	}
}
