package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
		"bad alg":         {Alg: "mpi"},
		"bad kind":        {Kind: "train"},
		"infeasible grid": {Alg: "yz", Nx: 48, Ny: 24, Nz: 8, PA: 20, PB: 20},
		"negative mesh":   {Nx: -4},
		"negative dt1":    {Dt1: -5},
		"negative dt2":    {Dt2: -5},
		"too many ranks":  {Alg: "yz", Nx: 4096, Ny: 2048, Nz: 2, PA: 2048, PB: 1},
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

func waitQueueDrained(t *testing.T, s *Server) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if len(s.queue) == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("queue never drained to the worker")
}

// TestCancelResumeEquivalence is the acceptance test: a job killed mid-run
// is checkpointed at its stop boundary, and resuming it reaches a final
// state bitwise identical to an uninterrupted run — for every scheme.
func TestCancelResumeEquivalence(t *testing.T) {
	for _, alg := range []string{"yz", "ca"} {
		t.Run(alg, func(t *testing.T) { testCancelResumeEquivalence(t, alg) })
	}
}

func testCancelResumeEquivalence(t *testing.T, alg string) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	spec := smallSpec(4)
	spec.Alg = alg
	spec.CheckpointEvery = 1
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

	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	st = waitState(t, s, j.ID, JCompleted)
	if st.StepsDone != 4 || st.Attempts != 2 {
		t.Fatalf("resumed job finished with steps_done %d attempts %d", st.StepsDone, st.Attempts)
	}

	snap, step := j.latestSnapshot()
	if step != 4 || snap == nil {
		t.Fatalf("final snapshot at step %d, want 4", step)
	}
	spec.Steps = 4
	if !snap.Equal(refFinal(spec)) {
		t.Fatalf("resumed final state differs from uninterrupted run (restarts must be bitwise-exact)")
	}
	// Cumulative counters cover both segments.
	if st.Counters.Steps != 4 {
		t.Fatalf("cumulative counter steps = %d, want 4", st.Counters.Steps)
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
	snap, step := r1.latestSnapshot()
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
	fsnap, _ := r1.latestSnapshot()
	if !fsnap.Equal(refFinal(long)) {
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

func TestCancelQueuedJob(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	hold := make(chan struct{})
	s.testHold = hold
	blocker, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	waitQueueDrained(t, s)
	queued, err := s.Submit(smallSpec(1))
	if err != nil {
		t.Fatalf("Submit queued: %v", err)
	}
	if err := s.Cancel(queued.ID); err != nil {
		t.Fatalf("Cancel queued: %v", err)
	}
	hold <- struct{}{}
	close(hold)
	waitState(t, s, blocker.ID, JCompleted)
	st := queued.Status()
	if st.State != JCancelled || st.StepsDone != 0 {
		t.Fatalf("queued-cancelled job: %s steps %d", st.State, st.StepsDone)
	}
	// Resuming a never-started job restarts it from scratch.
	if _, err := s.Resume(queued.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	if fs := waitState(t, s, queued.ID, JCompleted); fs.StepsDone != 1 {
		t.Fatalf("resumed-from-scratch job steps_done %d, want 1", fs.StepsDone)
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
