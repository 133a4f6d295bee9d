package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/fault"
	"cadycore/internal/testutil"
)

// soakPlan crashes two ranks at different steps, slows one rank and adds
// message jitter — every run job gets its own injector over this plan.
func soakPlan() *fault.Plan {
	return &fault.Plan{
		Seed: 11,
		Crashes: []fault.Crash{
			{Rank: 1, Step: 2},
			{Rank: 0, Step: 4},
		},
		Stragglers: []fault.Straggler{{Rank: 2, Scale: 2}},
		Jitter:     &fault.Jitter{Prob: 0.2, MaxDelay: 1e-4},
	}
}

func fastRestart() RestartPolicy {
	return RestartPolicy{Backoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

// maxDiffGlobal is the element-wise max absolute ξ difference between two
// snapshots, for reporting how far a failed bitwise comparison is off.
func maxDiffGlobal(a, b *checkpoint.Global) float64 {
	if a == nil || b == nil {
		return math.Inf(1)
	}
	d := 0.0
	for _, pair := range [][2][]float64{{a.U, b.U}, {a.V, b.V}, {a.Phi, b.Phi}, {a.Psa, b.Psa}} {
		x, y := pair[0], pair[1]
		if len(x) != len(y) {
			return math.Inf(1)
		}
		for i := range x {
			if dd := math.Abs(x[i] - y[i]); dd > d {
				d = dd
			}
		}
	}
	return d
}

// TestChaosSoakYZ is the tentpole acceptance test: several jobs submitted
// under a crash+straggler+jitter plan all complete through automatic
// checkpoint restarts, bitwise identical to a fault-free run.
func TestChaosSoakYZ(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 2, QueueCap: 8,
		Dir:     t.TempDir(),
		Chaos:   soakPlan(),
		Restart: fastRestart(),
	})
	spec := smallSpec(5)
	spec.CheckpointEvery = 1

	const njobs = 4
	var jobs []*Job
	for i := 0; i < njobs; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}

	g, clean := refRun(spec)
	ref := checkpoint.Gather(g, clean.Finals)
	for _, j := range jobs {
		st := waitState(t, s, j.ID, JCompleted)
		if st.StepsDone != 5 {
			t.Errorf("job %s completed at steps_done %d, want 5", j.ID, st.StepsDone)
		}
		// Both planned crashes fire in every job, so every job restarted.
		if st.Restarts != 2 {
			t.Errorf("job %s restarts = %d, want 2 (one per planned crash)", j.ID, st.Restarts)
		}
		if st.Error != "" {
			t.Errorf("job %s completed with residual error %q", j.ID, st.Error)
		}
		if !homeSnap(t, s, j).Equal(ref) {
			t.Errorf("job %s final state differs from fault-free run (YZ restarts must be bitwise-exact)", j.ID)
		}
		// A restarted job re-executes steps, so its counters cover at least
		// the fault-free run's work, and they describe the same segments as
		// its comm statistics: measured against the fault-free run, the two
		// agree to within the step each of the two aborted segments can leave
		// rank 0 and its peers apart.
		c := st.Counters
		if c.HaloExchanges < clean.Count.HaloExchanges || c.CEvaluations < clean.Count.CEvaluations ||
			c.FilterCalls < clean.Count.FilterCalls {
			t.Errorf("job %s counters %+v omit its aborted segments: below the fault-free run's %+v", j.ID, *c, clean.Count)
		}
		commWork := float64(st.Comm.Collectives) / float64(clean.Agg.Collectives)
		countWork := float64(c.CEvaluations) / float64(clean.Count.CEvaluations)
		if math.Abs(commWork-countWork) > 2/float64(spec.Steps) {
			t.Errorf("job %s comm statistics cover %.2fx the fault-free run's collectives, its counters %.2fx the Ĉ evaluations",
				j.ID, commWork, countWork)
		}
	}

	if got := s.met.rankFailures.Load(); got != 2*njobs {
		t.Errorf("rank failure counter = %d, want %d", got, 2*njobs)
	}
	if got := s.met.restarts.Load(); got != 2*njobs {
		t.Errorf("restart counter = %d, want %d", got, 2*njobs)
	}
}

// TestChaosSoakCA: the communication-avoiding scheme under the same plan.
// Its snapshots carry the lagged Ĉ and the pending smoothing, so restarts are
// bitwise for it too.
func TestChaosSoakCA(t *testing.T) {
	store, err := checkpoint.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		Shared:  store,
		Chaos:   soakPlan(),
		Restart: fastRestart(),
	})
	spec := smallSpec(5)
	spec.Alg = "ca"
	spec.CheckpointEvery = 1
	spec.SharedKey = "soak-ca"

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCompleted)
	if st.Restarts == 0 {
		t.Errorf("CA job completed without restarting under a crash plan")
	}
	if snap, ref := homeSnap(t, s, j), refFinal(spec); !snap.Equal(ref) {
		t.Errorf("CA chaos run differs from fault-free run by %g, want bitwise", maxDiffGlobal(snap, ref))
	}
}

// TestChaosRestartBudgetExhausted: a crash that re-fires on every attempt
// exhausts the per-job restart budget and fails the job with a clear error.
func TestChaosRestartBudgetExhausted(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		Chaos:   &fault.Plan{Crashes: []fault.Crash{{Rank: 0, Step: 1, Count: 99}}},
		Restart: fastRestart(),
	})
	spec := smallSpec(3)
	budget := 1
	spec.MaxRestarts = &budget

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JFailed)
	if !strings.Contains(st.Error, "restart budget") {
		t.Errorf("failed job error = %q, want a restart-budget message", st.Error)
	}
	if st.Restarts != budget {
		t.Errorf("restarts = %d, want %d", st.Restarts, budget)
	}
	if !st.Resumable {
		t.Errorf("budget-exhausted job not resumable (its checkpoint is still valid)")
	}
}

// TestCancelDuringRetry: a job parked in its backoff window can be
// cancelled; the retry timer is stopped and the job stays resumable.
func TestCancelDuringRetry(t *testing.T) {
	s := newTestServer(t, Config{
		Workers: 1, QueueCap: 4,
		Chaos:   &fault.Plan{Crashes: []fault.Crash{{Rank: 0, Step: 1, Count: 99}}},
		Restart: RestartPolicy{Backoff: time.Hour, MaxBackoff: time.Hour},
	})
	spec := smallSpec(3)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, j.ID, JRetrying)
	if err := s.Cancel(j.ID); err != nil {
		t.Fatalf("Cancel during retry backoff: %v", err)
	}
	st := waitState(t, s, j.ID, JCancelled)
	if !st.Resumable {
		t.Errorf("cancelled-while-retrying job not resumable")
	}
}

// TestShutdownDuringRetry: draining converts a backing-off job to
// interrupted + resumable instead of leaving a timer racing the exit.
func TestShutdownDuringRetry(t *testing.T) {
	s, err := New(Config{
		Workers: 1, QueueCap: 4,
		Chaos:   &fault.Plan{Crashes: []fault.Crash{{Rank: 0, Step: 1, Count: 99}}},
		Restart: RestartPolicy{Backoff: time.Hour, MaxBackoff: time.Hour},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	j, err := s.Submit(smallSpec(3))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	waitState(t, s, j.ID, JRetrying)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	st := j.Status()
	if st.State != JInterrupted || !st.Resumable {
		t.Errorf("retrying job after drain: %s resumable=%v, want interrupted/resumable", st.State, st.Resumable)
	}
}

// TestChaosRejectsBadPlan: New validates the plan up front.
func TestChaosRejectsBadPlan(t *testing.T) {
	_, err := New(Config{Chaos: &fault.Plan{Crashes: []fault.Crash{{Rank: 0, Step: 0}}}})
	if err == nil {
		t.Fatal("New accepted an invalid chaos plan")
	}
}

// TestChaosMetricsExposition: the new counters appear on /metrics.
func TestChaosMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, name := range []string{
		"cady_rank_failures_total",
		"cady_job_restarts_total",
		"cady_persist_errors_total",
		`cady_jobs{state="retrying"}`,
	} {
		if !strings.Contains(string(body), name) {
			t.Errorf("/metrics missing %s", name)
		}
	}
}

// TestRecoverIgnoresStaleTmp simulates a process killed between the temp
// write and the rename of a durable update: the stale *.tmp files next to
// the last complete checkpoint must be swept on startup and never loaded,
// and the job must come back interrupted with the previous valid checkpoint.
func TestRecoverIgnoresStaleTmp(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueCap: 4, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := smallSpec(4)
	spec.CheckpointEvery = 2
	s.testStep = func(j *Job, done int) {
		j.mu.Lock()
		attempt := j.rec.Attempts
		j.mu.Unlock()
		if attempt == 1 && done == 2 {
			s.Cancel(j.ID)
		}
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCancelled)
	if st.CkptStep != 2 {
		t.Fatalf("checkpoint at %d, want 2", st.CkptStep)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Simulate the crash mid-persist: a half-written checkpoint and meta
	// temp file (named as checkpoint's commit helper names them) that never
	// reached their rename, and an on-disk state
	// claiming the job was still running when the process died.
	jdir := filepath.Join(dir, j.ID)
	//cadyvet:volatile simulates the torn tmp a crash leaves behind; durability is exactly what is under test
	if err := os.WriteFile(filepath.Join(jdir, j.ID+"@00000004.ck.3141592.tmp"), []byte("torn checkpoint bytes"), 0o644); err != nil {
		t.Fatal(err)
	}
	//cadyvet:volatile simulates the torn tmp a crash leaves behind; durability is exactly what is under test
	if err := os.WriteFile(filepath.Join(jdir, "meta.json.2718281.tmp"), []byte(`{"state": "torn`), 0o644); err != nil {
		t.Fatal(err)
	}
	meta, _ := json.Marshal(record{State: JRunning, StepsDone: 3, Resumable: false, Attempts: 1})
	//cadyvet:volatile forges the pre-crash on-disk state for recovery to chew on; it must not be durably committed
	if err := os.WriteFile(filepath.Join(jdir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	r, ok := s2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	rst := r.Status()
	if rst.State != JInterrupted || !rst.Resumable {
		t.Fatalf("recovered mid-flight job: %s resumable=%v, want interrupted/resumable", rst.State, rst.Resumable)
	}
	snap, step := s2.loadSnap(r)
	if snap == nil || step != 2 {
		t.Fatalf("recovered checkpoint at step %d, want the previous valid one at 2", step)
	}
	for _, name := range []string{j.ID + "@00000004.ck.3141592.tmp", "meta.json.2718281.tmp"} {
		if _, err := os.Stat(filepath.Join(jdir, name)); !os.IsNotExist(err) {
			t.Errorf("stale %s not swept on startup", name)
		}
	}

	if _, err := s2.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fin := waitState(t, s2, j.ID, JCompleted)
	if fin.StepsDone != 4 {
		t.Fatalf("resumed job finished at %d steps, want 4", fin.StepsDone)
	}
	if !homeSnap(t, s2, r).Equal(refFinal(spec)) {
		t.Fatalf("recovered run differs from uninterrupted run")
	}
}

// TestRecoverStepFromCheckpointFile: a checkpoint commits as one file whose
// name carries its step, and meta.json is rewritten only at other times, so a
// crash can leave the step-3 checkpoint next to a meta.json that still says
// running at step 2. Recovery takes the step from the file: the job comes
// back interrupted with checkpoint_step and steps_done 3, and, resumed, runs
// the one remaining step to bitwise the uninterrupted 4-step state.
func TestRecoverStepFromCheckpointFile(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueCap: 4, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	spec := smallSpec(4)
	spec.Alg = "ca"
	spec.CheckpointEvery = 1
	s.testStep = func(j *Job, done int) {
		if done == 3 {
			s.Cancel(j.ID)
		}
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st := waitState(t, s, j.ID, JCancelled); st.CkptStep != 3 {
		t.Fatalf("checkpoint at %d, want 3", st.CkptStep)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	jdir := filepath.Join(dir, j.ID)
	if files, _ := filepath.Glob(filepath.Join(jdir, "*.ck")); len(files) != 1 || filepath.Base(files[0]) != j.ID+"@00000003.ck" {
		t.Fatalf("checkpoint files %v, want the one of step 3", files)
	}
	meta, _ := json.Marshal(record{State: JRunning, StepsDone: 2, Attempts: 1})
	//cadyvet:volatile forges the meta.json the step-2 boundary left before the crash; it must not be durably committed
	if err := os.WriteFile(filepath.Join(jdir, "meta.json"), meta, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	r, ok := s2.Get(j.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j.ID)
	}
	if st := r.Status(); st.State != JInterrupted || !st.Resumable || st.CkptStep != 3 || st.StepsDone != 3 {
		t.Fatalf("recovered %s resumable=%v checkpoint_step %d steps_done %d, want interrupted/resumable at 3 and 3",
			st.State, st.Resumable, st.CkptStep, st.StepsDone)
	}
	if _, err := s2.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fin := waitState(t, s2, j.ID, JCompleted)
	if fin.StepsDone != 4 || fin.Counters.Steps != 1 {
		t.Fatalf("resumed job finished at %d steps after running %d, want 4 after 1", fin.StepsDone, fin.Counters.Steps)
	}
	if !homeSnap(t, s2, r).Equal(refFinal(spec)) {
		t.Fatal("run resumed from the step-3 file differs from the uninterrupted 4-step run")
	}
}

// TestRecoverVersion1Snapshot: a job directory holding a version-1 checkpoint
// (testdata of internal/checkpoint, verbatim, under the job's store name) recovers
// without its snapshot — the format cannot say whether ξ owes a smoothing, so
// nothing is guessed — and the resumed job reruns from step 0, bitwise the
// uninterrupted run.
func TestRecoverVersion1Snapshot(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "j-000001")
	//cadyvet:volatile a test fixture's job directory, planted for recovery to load; it never needs to survive a power loss
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(4)
	spec.Alg = "ca"
	specB, _ := json.Marshal(spec)
	meta, _ := json.Marshal(record{State: JRunning, StepsDone: 2, Attempts: 1})
	v1, err := os.ReadFile(filepath.Join("..", "checkpoint", "testdata", "snap-v1.ck"))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"spec.json": specB, "meta.json": meta, "j-000001@00000002.ck": v1} {
		//cadyvet:volatile plants an older release's on-disk state for recovery to load; it must not be durably committed
		if err := os.WriteFile(filepath.Join(jdir, name), body, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	j, ok := s.Get("j-000001")
	if !ok {
		t.Fatal("job with a version-1 snapshot was not recovered")
	}
	st := j.Status()
	if snap, _ := s.loadSnap(j); st.State != JInterrupted || !st.Resumable || snap != nil || st.CkptStep != 0 {
		t.Fatalf("recovered %s resumable=%v snapshot loaded=%v checkpoint_step=%d, want interrupted/resumable without a snapshot or a checkpoint step",
			st.State, st.Resumable, snap != nil, st.CkptStep)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	fin := waitState(t, s, j.ID, JCompleted)
	if fin.StepsDone != 4 || !homeSnap(t, s, j).Equal(refFinal(spec)) {
		t.Fatalf("resumed job finished at %d steps, want 4 and bitwise the uninterrupted run", fin.StepsDone)
	}
}

// TestRecoverKeepsUnloadableJobID: a job directory recovery cannot load (its spec
// names no algorithm) still holds its ID, so the next submit gets a fresh
// directory rather than the old job's files.
func TestRecoverKeepsUnloadableJobID(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "j-000001")
	if err := checkpoint.MkdirDurable(jdir); err != nil {
		t.Fatal(err)
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(jdir, "spec.json"), []byte(`{"alg":"zz"}`)); err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	if _, ok := s.Get("j-000001"); ok {
		t.Fatal("job with an unloadable spec was recovered")
	}
	j, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.ID != "j-000002" {
		t.Fatalf("next job ID %s, want j-000002", j.ID)
	}
}

// TestMissingJobDirKeepsDiskHome: a job whose directory cannot be created
// (a file holds its name) keeps the directory as its checkpoint home. Every
// checkpoint fails into persist_error; none moves to memory, and nothing
// replaces the file with a directory.
func TestMissingJobDirKeepsDiskHome(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	squat := filepath.Join(dir, "j-000001")
	if err := checkpoint.WriteFileAtomic(squat, []byte("not a directory")); err != nil {
		t.Fatal(err)
	}
	spec := smallSpec(4)
	spec.CheckpointEvery = 1
	s.testStep = func(j *Job, done int) {
		if done == 2 {
			s.Cancel(j.ID)
		}
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCancelled)
	if st.CkptStep != 0 || st.PersistError == "" || holdsGlobal(j) {
		t.Fatalf("checkpoint_step %d persist_error %q memory snapshot %v, want 0, an error and none",
			st.CkptStep, st.PersistError, holdsGlobal(j))
	}
	if fi, err := os.Stat(squat); err != nil || fi.IsDir() {
		t.Fatalf("%s re-created as a directory (%v)", squat, err)
	}
}

// TestPersistErrorSurfaced: a durable-write failure lands in the job status
// and the persist-error counter instead of vanishing.
func TestPersistErrorSurfaced(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueCap: 4, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		os.Chmod(dir, 0o755)
		s.Shutdown(ctx)
	})
	spec := smallSpec(2)
	spec.CheckpointEvery = 1
	// Make every job directory unwritable so the first durable write fails.
	if err := os.Chmod(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Geteuid() == 0 {
		t.Skip("running as root: read-only directory does not fail writes")
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCompleted)
	if st.PersistError == "" {
		t.Errorf("persist failure not surfaced in job status")
	}
	if s.met.persistErrors.Load() == 0 {
		t.Errorf("persist-error counter not incremented")
	}
}
