package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
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

// blowUpSpec is a job whose state goes non-finite within its few steps: a
// baseline-YZ run at ten times the default time steps.
func blowUpSpec() JobSpec {
	spec := smallSpec(4)
	spec.Dt1, spec.Dt2 = 3000, 18000
	return spec
}

// TestBlownUpJobStatusReadable: a job that completes with a non-finite
// state reports all_finite 0 and drops the non-finite diagnostics, so its
// status and every job list holding it still encode (200, not 500).
func TestBlownUpJobStatusReadable(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	ts := httptest.NewServer(s)
	defer ts.Close()
	st := decodeStatus(t, postJSON(t, ts, "/jobs", blowUpSpec()))
	waitState(t, s, st.ID, JCompleted)

	resp, err := http.Get(ts.URL + "/jobs/" + st.ID)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job of a blown-up run: %v status %d", err, resp.StatusCode)
	}
	got := decodeStatus(t, resp)
	if d := got.Diagnostics; d["all_finite"] != 0 || len(d) == 0 {
		t.Fatalf("diagnostics = %v, want all_finite 0", d)
	}
	if _, ok := got.Diagnostics["kinetic_energy"]; ok {
		t.Errorf("non-finite kinetic_energy reported: %v", got.Diagnostics)
	}
	resp, err = http.Get(ts.URL + "/jobs")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET jobs holding a blown-up run: %v status %d", err, resp.StatusCode)
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) != 1 || list.Jobs[0].State != JCompleted {
		t.Fatalf("job list: %v %+v", err, list.Jobs)
	}
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
		attempt := j.rec.Attempts
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
	// It never started, so it reports no start and no run time.
	if st := queued[1].Status(); st.State != JCancelled || st.StepsDone != 0 || st.StartedAt != nil || st.WallSec != 0 {
		t.Fatalf("queued-cancelled job: %s steps %d started_at %v wall_sec %v, want cancelled, 0, none, none",
			st.State, st.StepsDone, st.StartedAt, st.WallSec)
	}
	if fs := waitState(t, s, queued[0].ID, JCompleted); fs.StepsDone != 1 || fs.Attempts != 1 {
		t.Fatalf("resumed-from-scratch job steps_done %d attempts %d, want 1 and 1", fs.StepsDone, fs.Attempts)
	}
}

// getStatus decodes GET /jobs/{id} as generic JSON, so that a comparison
// sees every key the server sends.
func getStatus(t *testing.T, s *Server, id string) map[string]any {
	t.Helper()
	ts := httptest.NewServer(s)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /jobs/%s: %d, %v", id, resp.StatusCode, err)
	}
	return st
}

// sortedKeys lists the keys of m in order.
func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestRestartRoundTrip: GET /jobs/{id} on a server restarted over the same
// directory reads as it did before the restart, whole, for a job of each
// terminal shape. Each row also names keys its status must carry (has) or
// must not (lacks) before the restart, so a key lost on both sides cannot
// pass unseen.
func TestRestartRoundTrip(t *testing.T) {
	deadline := smallSpec(100000)
	deadline.DeadlineSec = 0.05
	rows := []struct {
		name       string
		spec       JobSpec
		want       JState
		has, lacks []string
	}{
		{"completed explicit run", smallSpec(2), JCompleted,
			[]string{"submitted_at", "started_at", "finished_at", "wall_sec", "comm", "counters", "diagnostics", "checkpoint_step"},
			[]string{"error", "plan", "figures"}},
		{"cancelled while queued", smallSpec(2), JCancelled,
			[]string{"submitted_at", "finished_at"},
			[]string{"started_at", "wall_sec", "comm", "counters", "checkpoint_step"}},
		{"completed auto job", autoSpec(2), JCompleted,
			[]string{"plan", "wall_sec", "comm", "counters", "diagnostics"}, nil},
		{"completed figures job", JobSpec{Kind: "figures", Nx: 48, Ny: 24, Nz: 8, M: 2, Steps: 1, Ps: []int{4, 8}}, JCompleted,
			[]string{"figures", "wall_sec"}, []string{"comm", "checkpoint_step"}},
		{"deadline-failed checkpointed job", deadline, JFailed,
			[]string{"error", "checkpoint_step", "wall_sec", "comm", "counters"}, []string{"diagnostics"}},
	}
	dir := t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: len(rows), Dir: dir})
	// The worker holds the first job until every row is queued, so the
	// second is cancelled while queued.
	hold := make(chan struct{})
	s.testHold = hold
	ids := make([]string, len(rows))
	for i, row := range rows {
		j, err := s.Submit(row.spec)
		if err != nil {
			t.Fatalf("%s: Submit: %v", row.name, err)
		}
		ids[i] = j.ID
		if row.want == JCancelled {
			if err := s.Cancel(j.ID); err != nil {
				t.Fatalf("%s: Cancel: %v", row.name, err)
			}
		}
	}
	close(hold)
	before := make([]map[string]any, len(rows))
	for i, row := range rows {
		waitState(t, s, ids[i], row.want)
		before[i] = getStatus(t, s, ids[i])
		for _, k := range row.has {
			if _, ok := before[i][k]; !ok {
				t.Errorf("%s: status has no %q: %v", row.name, k, sortedKeys(before[i]))
			}
		}
		for _, k := range row.lacks {
			if v, ok := before[i][k]; ok {
				t.Errorf("%s: status has %q: %v", row.name, k, v)
			}
		}
	}
	cancelShutdown(t, s)

	s2 := newTestServer(t, Config{Workers: 1, QueueCap: len(rows), Dir: dir})
	for i, row := range rows {
		after := getStatus(t, s2, ids[i])
		for _, k := range sortedKeys(before[i]) {
			if !reflect.DeepEqual(after[k], before[i][k]) {
				t.Errorf("%s: %q is %v after a restart, %v before it", row.name, k, after[k], before[i][k])
			}
		}
		for _, k := range sortedKeys(after) {
			if _, ok := before[i][k]; !ok {
				t.Errorf("%s: %q appears after a restart: %v", row.name, k, after[k])
			}
		}
	}
}

// TestRecoverJobMetaFormat: job directories written before the job record
// keep loading. testdata/jobmeta-job holds a meta.json in that release's
// format with every key it wrote (no one job carries them all: the file puts
// a failed job's error and restarts beside a completed auto job's values), and
// GET /jobs/{id} on the recovered job serves each key as written, the comm
// view derived from the aggregate.
func TestRecoverJobMetaFormat(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "jobmeta-job", "meta.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta map[string]any
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	keys := []string{"attempts", "comm", "counters", "diagnostics", "error", "finished_at", "migrations",
		"plan", "restarts", "resumable", "started_at", "state", "steps_done"}
	if got := sortedKeys(meta); !slices.Equal(got, keys) {
		t.Fatalf("fixture keys %v, want %v", got, keys)
	}
	s, j := recoverFixture(t, "jobmeta-job")
	st := getStatus(t, s, j.ID)
	for _, k := range keys {
		if k != "comm" && !reflect.DeepEqual(st[k], meta[k]) {
			t.Errorf("recovered %s = %v, meta.json has %v", k, st[k], meta[k])
		}
	}
	var file struct {
		Comm comm.Aggregate `json:"comm"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	a := file.Comm
	want := CommStats{
		MsgsSent: a.MsgsSent, BytesSent: a.BytesSent, Collectives: a.Collectives,
		SimTimeS: a.SimTime, CompTimeS: a.CompTimeMax,
		StencilTimeS: a.StencilTime(), CollectiveTime: a.CollectiveTime(),
	}
	if got := j.Status().Comm; got == nil || *got != want || a.MsgsSent == 0 {
		t.Errorf("recovered comm %+v, want %+v", got, want)
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
	type start struct {
		at     time.Time
		tenant string
	}
	var starts []start
	for _, j := range jobs {
		st := waitState(t, s, j.ID, JCompleted)
		starts = append(starts, start{*st.StartedAt, j.Spec.Tenant})
	}
	sort.SliceStable(starts, func(a, b int) bool { return starts[a].at.Before(starts[b].at) })
	var order []string
	for _, st := range starts {
		order = append(order, st.tenant)
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

// TestKilledSegmentKeepsItsStatistics: a worker commits the job's record when
// a segment starts, and ahead of each checkpoint the job's statistics up to
// it, which recovery takes only once that checkpoint reads back. A daemon
// killed after the checkpoint at step 4 landed, between that fold's commit
// and the checkpoint's, or after the final checkpoint (the completed path's,
// behind its own fold) but before the job read as completed, recovers the
// attempt and the statistics of exactly the steps its newest checkpoint
// holds; resumed, the job ends with every step counted once.
func TestKilledSegmentKeepsItsStatistics(t *testing.T) {
	dir, snaps := t.TempDir(), t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	// The job directory as a kill at step 3 or 5 would leave it: the
	// checkpoint at step 2 or 4 and the fold committed ahead of it.
	s.testStep = func(j *Job, done int) {
		if done == 3 || done == 5 {
			if err := copyDir(filepath.Join(snaps, fmt.Sprint(done)), s.jobDir(j)); err != nil {
				t.Error(err)
			}
		}
	}
	s.testSaved = func(j *Job, step int) {
		if step == 6 {
			if err := copyDir(filepath.Join(snaps, "final"), s.jobDir(j)); err != nil {
				t.Error(err)
			}
		}
	}
	spec := smallSpec(6)
	spec.CheckpointEvery = 2
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, j.ID, JCompleted)

	for _, tc := range []struct {
		name     string
		ck, meta string // the snapshots the checkpoint and meta.json come from
		steps    int    // statistics the recovered job holds
	}{
		{"after the checkpoint at step 4", "5", "5", 4},
		{"between the fold of step 4 and its checkpoint", "3", "5", 2},
		{"after the final checkpoint", "final", "final", 6},
	} {
		root := t.TempDir()
		jdir := filepath.Join(root, j.ID)
		if err := copyDir(jdir, filepath.Join(snaps, tc.ck)); err != nil {
			t.Fatal(err)
		}
		meta, err := os.ReadFile(filepath.Join(snaps, tc.meta, "meta.json"))
		if err == nil {
			err = checkpoint.WriteFileAtomic(filepath.Join(jdir, "meta.json"), meta)
		}
		if err != nil {
			t.Fatal(err)
		}
		r := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: root})
		rj, ok := r.Get(j.ID)
		if !ok {
			t.Fatalf("%s: job not recovered", tc.name)
		}
		st := rj.Status()
		if st.CkptStep != tc.steps || st.Attempts != 1 || st.Counters == nil || st.Counters.Steps != tc.steps {
			t.Errorf("%s: recovered checkpoint_step %d, attempts %d, counters %+v; want %d, 1 and %d steps",
				tc.name, st.CkptStep, st.Attempts, st.Counters, tc.steps, tc.steps)
		}
		if _, err := r.Resume(j.ID); err != nil {
			t.Fatalf("%s: Resume: %v", tc.name, err)
		}
		if fin := waitState(t, r, j.ID, JCompleted); fin.Attempts != 2 || fin.Counters.Steps != spec.Steps {
			t.Errorf("%s: resumed job ends with attempts %d and counters %+v, want 2 and %d steps",
				tc.name, fin.Attempts, fin.Counters, spec.Steps)
		}
	}
}

// TestTerminalStateDurableBeforeVisible: a job's outcome is committed to
// meta.json before any client can read it, so a daemon killed the moment a
// worker leaves the job recovers it as it was seen — completed, with the
// statistics of every step — not as an interrupted job.
func TestTerminalStateDurableBeforeVisible(t *testing.T) {
	dir, kill := t.TempDir(), t.TempDir()
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir})
	var seen JobStatus
	left := make(chan struct{})
	s.testSeen = func(j *Job) {
		seen = j.Status()
		if err := copyDir(filepath.Join(kill, j.ID), s.jobDir(j)); err != nil {
			t.Error(err)
		}
		close(left)
	}
	spec := smallSpec(4)
	spec.CheckpointEvery = 2
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-left:
	case <-time.After(30 * time.Second):
		t.Fatal("the worker never left the job")
	}
	r := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: kill})
	rj, ok := r.Get(j.ID)
	if !ok {
		t.Fatal("job not recovered")
	}
	if st := rj.Status(); st.State != seen.State || st.State != JCompleted || st.Counters == nil || st.Counters.Steps != spec.Steps {
		t.Errorf("recovered state %s with counters %+v; seen %s, want completed with %d steps",
			st.State, st.Counters, seen.State, spec.Steps)
	}
}

// copyDir copies the files of directory src into dst, creating dst.
func copyDir(dst, src string) error {
	ents, err := os.ReadDir(src)
	if err == nil {
		err = checkpoint.MkdirDurable(dst)
	}
	for _, e := range ents {
		var b []byte
		if b, err = os.ReadFile(filepath.Join(src, e.Name())); err == nil {
			err = checkpoint.WriteFileAtomic(filepath.Join(dst, e.Name()), b)
		}
		if err != nil {
			break
		}
	}
	return err
}
