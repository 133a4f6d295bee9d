package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/testutil"
)

// smallSpec is a fast baseline-YZ run job.
func smallSpec(steps int) JobSpec {
	return JobSpec{
		Alg: "yz", Nx: 48, Ny: 24, Nz: 8,
		PA: 2, PB: 2, M: 2, Steps: steps,
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	// Leak check first: cleanups run in reverse order, so the Shutdown
	// below finishes before the goroutine snapshot is compared.
	testutil.VerifyNoLeaks(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) *http.Response {
	t.Helper()
	b, _ := json.Marshal(body)
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp
}

func decodeStatus(t *testing.T, resp *http.Response) JobStatus {
	t.Helper()
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding status: %v", err)
	}
	return st
}

func waitState(t *testing.T, s *Server, id string, want JState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		st := j.Status()
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (err %q), want %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timeout waiting for job %s to reach %s", id, want)
	return JobStatus{}
}

// refRun runs the same configuration uninterrupted through dycore.
func refRun(spec JobSpec) (*grid.Grid, dycore.RunResult) {
	if err := spec.Normalize(); err != nil {
		panic(err)
	}
	g := grid.New(spec.Nx, spec.Ny, spec.Nz)
	set := spec.setup()
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, spec.Dt2) }
	return g, dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, spec.Steps, hook)
}

// refFinal is the gathered final snapshot of refRun.
func refFinal(spec JobSpec) *checkpoint.Global {
	g, res := refRun(spec)
	return checkpoint.Gather(g, res.Finals)
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp := postJSON(t, ts, "/jobs", smallSpec(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	if st.ID == "" || st.State != JQueued && st.State != JRunning {
		t.Fatalf("unexpected submit response: %+v", st)
	}

	final := waitState(t, s, st.ID, JCompleted)
	if final.StepsDone != 2 || final.Progress != 1 {
		t.Fatalf("completed job has steps_done %d progress %g", final.StepsDone, final.Progress)
	}
	if final.Comm == nil || final.Comm.MsgsSent == 0 {
		t.Fatalf("completed job missing comm stats: %+v", final.Comm)
	}
	if final.Counters == nil || final.Counters.HaloExchanges == 0 {
		t.Fatalf("completed job missing counters: %+v", final.Counters)
	}
	if final.Diagnostics["all_finite"] != 1 {
		t.Fatalf("diagnostics = %v, want all_finite 1", final.Diagnostics)
	}
	if p := final.Diagnostics["mean_surface_pressure_hpa"]; p < 900 || p > 1100 {
		t.Fatalf("mean surface pressure %.1f hPa implausible", p)
	}

	// GET /jobs/{id} and /jobs agree.
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job: %v status %d", err, resp.StatusCode)
	}
	got := decodeStatus(t, resp)
	if got.State != JCompleted {
		t.Fatalf("GET job state = %s", got.State)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET jobs: %v", err)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if len(list.Jobs) != 1 {
		t.Fatalf("job list has %d entries, want 1", len(list.Jobs))
	}

	// Metrics and health.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET metrics: %v", err)
	}
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	resp.Body.Close()
	met := sb.String()
	for _, want := range []string{
		"cady_jobs_submitted_total 1",
		"cady_jobs_completed_total 1",
		`cady_jobs{state="completed"} 1`,
		"cady_queue_capacity 8",
		"cady_workers 2",
		"cady_steps_total 2",
		"cady_comm_exposed_seconds_total",
		"cady_comm_hidden_seconds_total",
		"cady_comm_overlap_fraction",
		"cady_exchanger_begins_total{exchanger=",
		"cady_exchanger_finishes_total{exchanger=",
		"cady_exchanger_hidden_seconds_total{exchanger=",
		"cady_exchanger_exposed_seconds_total{exchanger=",
	} {
		if !strings.Contains(met, want) {
			t.Fatalf("metrics missing %q:\n%s", want, met)
		}
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET healthz: %v status %d", err, resp.StatusCode)
	}
	resp.Body.Close()
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	for name, spec := range map[string]JobSpec{
		"bad alg":                            {Alg: "mpi"},
		"bad kind":                           {Kind: "train"},
		"infeasible grid":                    {Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 20, PB: 20},
		"negative mesh":                      {Nx: -4},
		"mesh too narrow":                    {Nx: 4, Ny: 24, Nz: 8},
		"mesh too short":                     {Nx: 48, Ny: 4, Nz: 8},
		"auto tiny mesh":                     {Layout: "auto", Nx: 48, Ny: 24, Nz: 1},
		"negative dt1":                       {Dt1: -5},
		"negative dt2":                       {Dt2: -5},
		"too many ranks":                     {Alg: "yz", Nx: 4096, Ny: 2048, Nz: 2, PA: 2048, PB: 1},
		"deadline overflows a time.Duration": {DeadlineSec: 1e12},
	} {
		resp := postJSON(t, ts, "/jobs", spec)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/jobs/nope")
	if err != nil {
		t.Fatalf("GET missing job: %v", err)
	}
	resp.Body.Close() // an unclosed body pins the transport's conn goroutines
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET missing job: %d, want 404", resp.StatusCode)
	}
}

// TestDrainEndpoint: POST /drain starts the graceful shutdown in the
// background and answers at once, /healthz flips to 503, a repeated drain
// reports already_draining, and the background shutdown goroutine exits with
// the workers (newTestServer's leak check).
func TestDrainEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	drain := func() map[string]bool {
		t.Helper()
		resp := postJSON(t, ts, "/drain", nil)
		defer resp.Body.Close()
		var body map[string]bool
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("POST /drain: status %d, decode %v", resp.StatusCode, err)
		}
		return body
	}
	if b := drain(); !b["draining"] {
		t.Fatalf("POST /drain = %v, want draining", b)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatalf("GET healthz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healthz still %d after drain, want 503", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if b := drain(); !b["already_draining"] {
		t.Fatalf("second POST /drain = %v, want already_draining", b)
	}
}

// TestSubmitRejectsUnknownFields: a retired or misspelled field in a
// submission is a 400 naming it, not a silently applied default. The bodies
// live in testdata/unknown_fields.json.
func TestSubmitRejectsUnknownFields(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()

	raw, err := os.ReadFile(filepath.Join("testdata", "unknown_fields.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cases []struct {
		Field string          `json:"field"`
		Body  json.RawMessage `json:"body"`
	}
	if err := json.Unmarshal(raw, &cases); err != nil || len(cases) == 0 {
		t.Fatalf("bad fixture (%d cases): %v", len(cases), err)
	}
	for _, tc := range cases {
		resp := postJSON(t, ts, "/jobs", tc.Body)
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.Field) {
			t.Errorf("%s: status %d body %s, want 400 naming the field", tc.Field, resp.StatusCode, msg)
		}
	}
	if n := len(s.List()); n != 0 {
		t.Errorf("%d rejected submissions were admitted", n)
	}
}

func TestQueueFullRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 1})
	hold := make(chan struct{})
	s.testHold = hold
	ts := httptest.NewServer(s)
	defer ts.Close()

	// First job: picked up by the worker, parked on the hold gate.
	st1 := decodeStatus(t, postJSON(t, ts, "/jobs", smallSpec(1)))
	waitQueueDrained(t, s)
	// Second job: sits in the queue (capacity 1).
	st2 := decodeStatus(t, postJSON(t, ts, "/jobs", smallSpec(1)))
	// Third: the bounded queue rejects it.
	resp := postJSON(t, ts, "/jobs", smallSpec(1))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Fatalf("429 response missing Retry-After")
	}
	resp.Body.Close()

	hold <- struct{}{}
	hold <- struct{}{}
	waitState(t, s, st1.ID, JCompleted)
	waitState(t, s, st2.ID, JCompleted)

	if got := s.met.rejected.Load(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
}

func queueDepth(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

func waitQueueDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if queueDepth(s) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never drained to the worker")
}

// TestCancelResumeEquivalence is the acceptance test: a job killed mid-run
// is checkpointed at its stop boundary, and resuming it reaches a final
// state bitwise identical to an uninterrupted run — for every scheme, in
// every checkpoint home. The checkpoint lives in its home only: a shared-key
// job on a server with both a directory and a shared store writes no
// checkpoint file into its job directory, only the memory home puts a Global
// on the job, and no completed job holds one.
func TestCancelResumeEquivalence(t *testing.T) {
	for _, alg := range []string{"yz", "ca"} {
		t.Run(alg, func(t *testing.T) {
			for _, h := range []string{"memory", "dir", "shared"} {
				t.Run(h, func(t *testing.T) { testCancelResumeEquivalence(t, alg, h) })
			}
		})
	}
}

func testCancelResumeEquivalence(t *testing.T, alg, h string) {
	cfg := Config{Workers: 1, QueueCap: 4}
	spec := smallSpec(4)
	spec.Alg = alg
	spec.CheckpointEvery = 1
	if h != "memory" {
		cfg.Dir = t.TempDir()
	}
	if h == "shared" {
		store, err := checkpoint.NewDirStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Shared, spec.SharedKey = store, "cancel-resume"
	}
	s := newTestServer(t, cfg)
	// Cancel exactly at boundary 2 of the first segment, from inside the
	// quiesced step barrier (deterministic: the stop decision is sampled
	// right after this hook at the same boundary).
	s.testStep = func(j *Job, done int) {
		j.mu.Lock()
		attempt := j.attempts
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
	if st.StepsDone != 2 || st.CkptStep != 2 {
		t.Fatalf("cancelled at steps_done %d ckpt %d, want 2/2", st.StepsDone, st.CkptStep)
	}
	if !st.Resumable {
		t.Fatalf("cancelled job not resumable")
	}
	if snap, step := s.loadSnap(j); step != 2 || snap == nil {
		t.Fatalf("stop checkpoint at step %d (loaded %v), want 2 in the job's home", step, snap != nil)
	}
	if held := holdsGlobal(j); held != (h == "memory") {
		t.Fatalf("cancelled job holds a Global: %v, want only in the memory home", held)
	}
	if cfg.Dir != "" {
		files, _ := filepath.Glob(filepath.Join(cfg.Dir, j.ID, "*.ck"))
		want := []string{filepath.Join(cfg.Dir, j.ID, j.ID+"@00000002.ck")}
		if h == "shared" {
			want = nil
		}
		if !slices.Equal(files, want) {
			t.Fatalf("checkpoint files in the job directory %v, want %v", files, want)
		}
	}

	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	st = waitState(t, s, j.ID, JCompleted)
	if st.StepsDone != 4 || st.Attempts != 2 {
		t.Fatalf("resumed job finished with steps_done %d attempts %d", st.StepsDone, st.Attempts)
	}
	// Cumulative counters cover both segments: the second started at 2.
	if st.Counters.Steps != 4 {
		t.Fatalf("cumulative counter steps = %d, want 4", st.Counters.Steps)
	}
	if n := s.met.sharedResumes.Load(); n != 0 {
		t.Fatalf("cady_shared_resumes_total = %d after a resume on the same server, want 0", n)
	}
	if holdsGlobal(j) {
		t.Fatal("completed job still holds a Global")
	}
	if h == "memory" {
		// Nothing can resume a completed job, so the memory home keeps no
		// final state; the diagnostics of the final state stand in for it.
		g, ref := refRun(spec)
		if want := diagnostics(g, ref.Finals); !maps.Equal(st.Diagnostics, want) {
			t.Fatalf("resumed diagnostics %v, uninterrupted %v (restarts must be bitwise-exact)", st.Diagnostics, want)
		}
		return
	}
	if !homeSnap(t, s, j).Equal(refFinal(spec)) {
		t.Fatalf("resumed final state differs from uninterrupted run (restarts must be bitwise-exact)")
	}
}

// holdsGlobal reports whether the job keeps a snapshot in memory.
func holdsGlobal(j *Job) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap != nil
}

// homeSnap is the completed job's final checkpoint, read from its home.
func homeSnap(t *testing.T, s *Server, j *Job) *checkpoint.Global {
	t.Helper()
	snap, step := s.loadSnap(j)
	if snap == nil || step != j.Spec.Steps {
		t.Fatalf("job %s: final checkpoint at step %d (loaded %v), want %d", j.ID, step, snap != nil, j.Spec.Steps)
	}
	return snap
}

// TestFailedWriteResumesFromDurableCheckpoint: a checkpoint that does not
// reach the job directory leaves the job at its last durable checkpoint —
// checkpoint_step, the resume point and the final state all follow the
// disk, and persist_error names the failure.
func TestFailedWriteResumesFromDurableCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	spec := smallSpec(4)
	spec.CheckpointEvery = 1
	// At boundary 2 the job directory goes away (so the step-2 checkpoint
	// fails; step 1's is on disk) and the job is cancelled.
	s.testStep = func(j *Job, done int) {
		j.mu.Lock()
		attempt := j.attempts
		j.mu.Unlock()
		if attempt == 1 && done == 2 {
			//cadyvet:volatile moves the job directory away to make the next checkpoint write fail
			if err := os.Rename(filepath.Join(dir, j.ID), filepath.Join(dir, "away")); err != nil {
				t.Error(err)
			}
			s.Cancel(j.ID)
		}
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCancelled)
	if st.StepsDone != 2 || st.CkptStep != 1 || st.PersistError == "" {
		t.Fatalf("after a failed step-2 checkpoint: steps_done %d checkpoint_step %d persist_error %q, want 2, 1 and an error",
			st.StepsDone, st.CkptStep, st.PersistError)
	}
	//cadyvet:volatile puts the job directory back with its durable step-1 checkpoint
	if err := os.Rename(filepath.Join(dir, "away"), filepath.Join(dir, j.ID)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	st = waitState(t, s, j.ID, JCompleted)
	// 2 steps before the cancel, 3 after the resume from step 1.
	if st.Counters.Steps != 5 || st.PersistError != "" {
		t.Fatalf("resumed job: counter steps %d persist_error %q, want 5 and none", st.Counters.Steps, st.PersistError)
	}
	if !homeSnap(t, s, j).Equal(refFinal(spec)) {
		t.Fatal("run resumed from the durable checkpoint differs from the uninterrupted run")
	}
}

// TestGracefulDrain checks Shutdown semantics: the running job stops at a
// step boundary and is checkpointed as interrupted, the queued job stays
// queued, both are persisted, and a fresh server over the same directory
// recovers and finishes them.
func TestGracefulDrain(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, QueueCap: 4, Dir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	running := make(chan string, 1)
	s.testStep = func(j *Job, done int) {
		if done == 1 {
			select {
			case running <- j.ID:
			default:
			}
		}
	}
	long := smallSpec(50)
	j1, err := s.Submit(long)
	if err != nil {
		t.Fatalf("Submit 1: %v", err)
	}
	j2, err := s.Submit(smallSpec(2))
	if err != nil {
		t.Fatalf("Submit 2: %v", err)
	}
	<-running
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	st1, st2 := j1.Status(), j2.Status()
	if st1.State != JInterrupted || !st1.Resumable {
		t.Fatalf("running job after drain: %s resumable=%v, want interrupted/resumable", st1.State, st1.Resumable)
	}
	if st1.CkptStep == 0 || st1.CkptStep != st1.StepsDone {
		t.Fatalf("interrupted job ckpt %d steps_done %d, want equal and > 0", st1.CkptStep, st1.StepsDone)
	}
	if st1.StepsDone >= 50 {
		t.Fatalf("drain did not stop the running job early (did %d steps)", st1.StepsDone)
	}
	if st2.State != JQueued {
		t.Fatalf("queued job after drain: %s, want still queued", st2.State)
	}
	if _, err := s.Submit(smallSpec(1)); err != ErrDraining {
		t.Fatalf("submit during drain: %v, want ErrDraining", err)
	}

	// A fresh server over the same directory recovers both jobs and can
	// run them to completion from their checkpoints.
	s2 := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	r1, ok := s2.Get(j1.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j1.ID)
	}
	rst := r1.Status()
	if rst.State != JInterrupted || !rst.Resumable || rst.StepsDone != st1.StepsDone {
		t.Fatalf("recovered job: %+v, want interrupted at %d steps", rst, st1.StepsDone)
	}
	snap, step := s2.loadSnap(r1)
	if snap == nil || step != st1.CkptStep {
		t.Fatalf("recovered snapshot at %d, want %d", step, st1.CkptStep)
	}
	r2, ok := s2.Get(j2.ID)
	if !ok {
		t.Fatalf("job %s not recovered", j2.ID)
	}
	if r2.Status().State != JInterrupted {
		t.Fatalf("recovered queued job state %s, want interrupted", r2.Status().State)
	}
	if _, err := s2.Resume(j1.ID); err != nil {
		t.Fatalf("resume recovered job: %v", err)
	}
	if _, err := s2.Resume(j2.ID); err != nil {
		t.Fatalf("resume recovered queued job: %v", err)
	}
	f1 := waitState(t, s2, j1.ID, JCompleted)
	if f1.StepsDone != 50 {
		t.Fatalf("recovered job finished at %d steps, want 50", f1.StepsDone)
	}
	waitState(t, s2, j2.ID, JCompleted)

	// The interrupted-and-recovered run matches an uninterrupted one.
	if !homeSnap(t, s2, r1).Equal(refFinal(long)) {
		t.Fatalf("recovered run differs from uninterrupted run")
	}
}

func TestDeadlineInterrupts(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	spec := smallSpec(100000)
	spec.DeadlineSec = 0.05
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JFailed)
	if st.Error != "deadline exceeded" {
		t.Fatalf("error = %q, want deadline exceeded", st.Error)
	}
	if !st.Resumable || st.CkptStep == 0 {
		t.Fatalf("deadline-stopped job should be resumable with a checkpoint, got %+v", st)
	}
}

func TestFiguresJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	j, err := s.Submit(JobSpec{Kind: "figures", Nx: 48, Ny: 24, Nz: 8, M: 2, Steps: 1, Ps: []int{4, 8}})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	st := waitState(t, s, j.ID, JCompleted)
	if len(st.Figures) != 4 {
		t.Fatalf("figures job returned %d figures, want 4", len(st.Figures))
	}
	for _, f := range st.Figures {
		if !strings.Contains(f, "==") {
			t.Fatalf("figure output missing table header: %q", f)
		}
	}
}

// TestCancelQueuedJob: a job cancelled while queued gives its queue slot
// back at once — a queue full of cancelled jobs must not answer 429 — and a
// resume queues it exactly once.
func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	hold := make(chan struct{})
	s.testHold = hold
	blocker, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitQueueDrained(t, s)
	var queued []*Job
	for i := 0; i < 2; i++ {
		j, err := s.Submit(smallSpec(1))
		if err != nil {
			t.Fatalf("Submit queued %d: %v", i, err)
		}
		if err := s.Cancel(j.ID); err != nil {
			t.Fatalf("Cancel queued %d: %v", i, err)
		}
		queued = append(queued, j)
	}
	if d := queueDepth(s); d != 0 {
		t.Fatalf("queue depth %d after cancelling every queued job, want 0", d)
	}
	late, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit after cancelling the queue: %v", err)
	}
	// Resuming a never-started job restarts it from scratch, queued once.
	if _, err := s.Resume(queued[0].ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if d := queueDepth(s); d != 2 {
		t.Fatalf("queue depth %d after one submit and one resume, want 2", d)
	}
	close(hold)
	waitState(t, s, blocker.ID, JCompleted)
	waitState(t, s, late.ID, JCompleted)
	if st := queued[1].Status(); st.State != JCancelled || st.StepsDone != 0 {
		t.Fatalf("queued-cancelled job: %s steps %d", st.State, st.StepsDone)
	}
	if fs := waitState(t, s, queued[0].ID, JCompleted); fs.StepsDone != 1 || fs.Attempts != 1 {
		t.Fatalf("resumed-from-scratch job steps_done %d attempts %d, want 1 and 1", fs.StepsDone, fs.Attempts)
	}
}

// tinySpec is a one-step 1×1 run for admission-order tests.
func tinySpec(tenant string) JobSpec {
	return JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 1, Tenant: tenant}
}

// TestWeightedFairDequeue pins the smooth-WRR start order: a greedy low-class
// tenant's backlog cannot starve a high-class tenant. With one worker parked
// on a blocker, 10 batch (low) jobs queue before 2 vip (high) ones; both vip
// jobs start before any batch job.
func TestWeightedFairDequeue(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 16,
		Classes: map[string]string{"vip": "high", "batch": "low"}})
	hold := make(chan struct{})
	s.testHold = hold
	blocker, err := s.Submit(tinySpec("blocker"))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitQueueDrained(t, s)
	jobs := []*Job{blocker}
	for _, tenant := range []string{"batch", "batch", "batch", "batch", "batch",
		"batch", "batch", "batch", "batch", "batch", "vip", "vip"} {
		j, err := s.Submit(tinySpec(tenant))
		if err != nil {
			t.Fatalf("Submit %s: %v", tenant, err)
		}
		jobs = append(jobs, j)
	}
	close(hold)
	started := map[string]string{}
	var times []string
	for _, j := range jobs {
		st := waitState(t, s, j.ID, JCompleted)
		started[st.StartedAt] = j.Spec.Tenant
		times = append(times, st.StartedAt)
	}
	sort.Strings(times) // RFC 3339 UTC with nanoseconds: lexical is chronological
	var order []string
	for _, ts := range times {
		order = append(order, started[ts])
	}
	want := []string{"blocker", "vip", "vip", "batch"}
	if len(order) != len(jobs) || strings.Join(order[:4], ",") != strings.Join(want, ",") {
		t.Fatalf("start order %v, want %v then batch", order, want)
	}
}

// TestTenantQuotaRejects: a tenant over its in-flight quota gets 429 +
// Retry-After while another tenant is admitted, the rejection is counted per
// tenant, and a finished job gives its slot back.
func TestTenantQuotaRejects(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 8, Quotas: map[string]int{"greedy": 2}})
	hold := make(chan struct{})
	s.testHold = hold
	ts := httptest.NewServer(s)
	defer ts.Close()

	var greedy []JobStatus
	for i := 0; i < 2; i++ {
		resp := postJSON(t, ts, "/jobs", tinySpec("greedy"))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d", i, resp.StatusCode)
		}
		greedy = append(greedy, decodeStatus(t, resp))
	}
	resp := postJSON(t, ts, "/jobs", tinySpec("greedy"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("over-quota submit: %d (Retry-After %q), want 429 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp = postJSON(t, ts, "/jobs", tinySpec("bystander"))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("bystander submit: %d", resp.StatusCode)
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	met, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		`cady_tenant_rejected_total{tenant="greedy"} 1`,
		`cady_tenant_admitted_total{tenant="greedy"} 2`,
		`cady_tenant_inflight{tenant="greedy"} 2`,
		`cady_tenant_admitted_total{tenant="bystander"} 1`,
	} {
		if !strings.Contains(string(met), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	close(hold)
	waitState(t, s, greedy[0].ID, JCompleted)
	if _, err := s.Submit(tinySpec("greedy")); err != nil {
		t.Fatalf("submit after a greedy job finished: %v", err)
	}
}

func TestMetricsEndpointShape(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	var lines int
	buf := new(strings.Builder)
	b := make([]byte, 16<<10)
	for {
		n, rerr := resp.Body.Read(b)
		buf.Write(b[:n])
		if rerr != nil {
			break
		}
	}
	for _, ln := range strings.Split(buf.String(), "\n") {
		if ln == "" || strings.HasPrefix(ln, "#") {
			continue
		}
		lines++
		if !strings.Contains(ln, " ") {
			t.Fatalf("malformed metric line %q", ln)
		}
		if !strings.HasPrefix(ln, "cady_") {
			t.Fatalf("metric %q missing cady_ namespace", ln)
		}
	}
	if lines < 10 {
		t.Fatalf("only %d metric samples, want >= 10", lines)
	}
}
