package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/server"
)

// TestPersistLandsInMarshalOrder: two persists of one job's record that
// marshal in one order must land in that order. The first write is held back
// until the second persist has written — or, once persists are serialised
// and the second cannot write first, for 300 ms — so an unserialised persist
// renames the older record over the newer one, and a restarted coordinator
// reads back a state the job had already left.
func TestPersistLandsInMarshalOrder(t *testing.T) {
	dir := t.TempDir()
	coord := func() *Coordinator {
		c, err := New(Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c.Shutdown(ctx)
		})
		return c
	}
	c := coord()
	j := &job{ID: "f-000001", Tenant: "acme", State: server.JQueued}
	c.mu.Lock()
	c.ids.Seq++
	c.addLocked(j)
	c.mu.Unlock()

	var calls atomic.Int32
	entered, written := make(chan struct{}), make(chan struct{})
	writeState = func(path string, b []byte) error {
		switch calls.Add(1) {
		case 1:
			close(entered)
			select {
			case <-written:
			case <-time.After(300 * time.Millisecond):
			}
		case 2:
			defer close(written)
		}
		return checkpoint.WriteFileAtomic(path, b)
	}
	t.Cleanup(func() { writeState = checkpoint.WriteFileAtomic })

	first := make(chan struct{})
	go func() {
		c.persist(j) // the record of the queued job
		close(first)
	}()
	<-entered
	// The job is cancelled after the first record was marshalled; the second
	// persist is the one its cancel made.
	c.mu.Lock()
	c.finalizeLocked(j, server.JCancelled, "")
	c.mu.Unlock()
	c.persist(j)
	<-first

	// Restart: a coordinator over the same store reloads the records.
	got, ok := coord().GetJob(j.ID)
	if !ok || got.State != server.JCancelled {
		t.Fatalf("job %s was cancelled and persisted, but a restarted coordinator reads %+v: an older record was written last", j.ID, got)
	}
}

// read returns a file's bytes or fails the test.
func read(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// legacyStore returns a store holding only testdata/fleet-jstate.json as its
// fleet.json: a whole-state file written by the coordinator while it had a
// state type of its own, with one job in each state a fleet job can hold.
// Its records predate their submitted_at key, so they are dated by the
// file's modification time, 2026-01-02T03:04:05Z.
func legacyStore(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")
	if err := checkpoint.WriteFileAtomic(path, read(t, filepath.Join("testdata", "fleet-jstate.json"))); err != nil {
		t.Fatal(err)
	}
	written := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(path, written, written); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestLoadFleetJSONOfOwnStateType: a legacy fleet.json loads into the same
// states (the running job's backend is gone, so it migrates back to queued),
// and is migrated into one record per job, each, field for field, the job
// that coordinator rewrote at start and at shutdown
// (testdata/fleet-jstate.reloaded.json); the ID counters carry over into
// their own record and the file is gone.
func TestLoadFleetJSONOfOwnStateType(t *testing.T) {
	dir := legacyStore(t)
	c, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for id, want := range map[string]server.JState{
		"f-000001": server.JQueued, "f-000002": server.JQueued, "f-000003": server.JCompleted,
		"f-000004": server.JFailed, "f-000005": server.JCancelled,
	} {
		j, ok := c.GetJob(id)
		if !ok {
			t.Fatalf("job %s not loaded", id)
		}
		c.mu.Lock()
		got := j.State
		c.mu.Unlock()
		if got != want {
			t.Errorf("job %s loaded as %s, want %s", id, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	var want struct {
		Seq, ESeq       int
		Jobs, Ensembles []json.RawMessage
	}
	if err := json.Unmarshal(read(t, filepath.Join("testdata", "fleet-jstate.reloaded.json")), &want); err != nil {
		t.Fatal(err)
	}
	compact := func(b []byte) string {
		var out bytes.Buffer
		if err := json.Compact(&out, b); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	var names []string
	for _, raw := range want.Jobs {
		var rec struct{ ID string }
		if err := json.Unmarshal(raw, &rec); err != nil {
			t.Fatal(err)
		}
		names = append(names, "job-"+rec.ID+".json")
		if got := read(t, filepath.Join(dir, "fleet", names[len(names)-1])); compact(got) != compact(raw) {
			t.Errorf("migrated record of %s:\n%s\nwant:\n%s", rec.ID, got, raw)
		}
	}
	ids := fmt.Sprintf(`{"seq":%d,"eseq":%d}`, want.Seq, want.ESeq)
	if got := read(t, filepath.Join(dir, "fleet", "ids.json")); compact(got) != ids {
		t.Errorf("migrated ID counters %s, want %s", got, ids)
	}
	names = append([]string{"ids.json"}, names...)
	ents, err := os.ReadDir(filepath.Join(dir, "fleet"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range ents {
		got = append(got, e.Name())
	}
	if len(want.Ensembles) != 0 || !reflect.DeepEqual(got, names) {
		t.Errorf("migrated records %v, want %v", got, names)
	}
	c.mu.Lock()
	seq, eseq := c.ids.Seq, c.ids.ESeq
	c.mu.Unlock()
	if seq != want.Seq || eseq != want.ESeq {
		t.Errorf("ID counters %d, %d after the migration, want %d, %d", seq, eseq, want.Seq, want.ESeq)
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("fleet.json still there after the migration: %v", err)
	}
}

// TestLegacyStoreRoundTrip: over a legacy fleet.json the coordinator serves
// every job's JobInfo as the coordinator that wrote such files served it
// after a reload (testdata/fleet-jstate.jobinfo.json); a second restart, over
// the migrated records, serves the same again; and neither would mint an ID
// the store already holds.
func TestLegacyStoreRoundTrip(t *testing.T) {
	dir := legacyStore(t)
	var want []JobInfo
	if err := json.Unmarshal(read(t, filepath.Join("testdata", "fleet-jstate.jobinfo.json")), &want); err != nil {
		t.Fatal(err)
	}
	for _, over := range []string{"the legacy fleet.json", "the migrated records"} {
		c, err := New(Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("fleet.New over %s: %v", over, err)
		}
		for _, w := range want {
			rec := httptest.NewRecorder()
			c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+w.ID, nil))
			var got JobInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || rec.Code != http.StatusOK {
				t.Fatalf("over %s GET %s: %d %s", over, w.ID, rec.Code, rec.Body.Bytes())
			}
			if !reflect.DeepEqual(got, w) {
				t.Errorf("over %s job %s reads\n%+v\nwant\n%+v", over, w.ID, got, w)
			}
		}
		c.mu.Lock()
		next := c.ids.Seq + 1
		c.mu.Unlock()
		if last := want[len(want)-1].ID; fmt.Sprintf("f-%06d", next) <= last {
			t.Errorf("over %s the next job would be f-%06d, but %s exists", over, next, last)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c.Shutdown(ctx)
		cancel()
	}
}

// fakeBackend stands in for cadyserved where only the coordinator is under
// test: it runs nothing, admits every job as running (up to limit jobs in
// all, when limit is set) two steps in, and reports each in the state the
// test sets.
type fakeBackend struct {
	mu    sync.Mutex
	jobs  map[string]server.JState // backend job ID → state
	limit int
}

func (f *fakeBackend) set(id string, st server.JState) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.jobs[id] = st
}

func (f *fakeBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	defer f.mu.Unlock()
	status := func(id string) map[string]any {
		st := map[string]any{"id": id, "state": f.jobs[id]}
		switch f.jobs[id] {
		case server.JCompleted:
			st["steps_done"], st["diagnostics"] = 4, map[string]float64{"ke": 1.5}
		case server.JRunning:
			st["steps_done"] = 2
		}
		return st
	}
	switch id := strings.TrimPrefix(r.URL.Path, "/jobs/"); {
	case r.URL.Path == "/healthz":
		w.Write([]byte("ok\n"))
	case r.Method == http.MethodPost && r.URL.Path == "/jobs" && f.limit > 0 && len(f.jobs) >= f.limit:
		w.Header().Set("Retry-After", "1")
		server.WriteError(w, http.StatusTooManyRequests, "full")
	case r.Method == http.MethodPost && r.URL.Path == "/jobs":
		id = fmt.Sprintf("j-%06d", len(f.jobs)+1)
		f.jobs[id] = server.JRunning
		server.WriteJSON(w, http.StatusAccepted, status(id))
	case r.URL.Path == "/jobs":
		server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": []any{}, "total": 0})
	case f.jobs[id] != "":
		server.WriteJSON(w, http.StatusOK, status(id))
	default:
		http.NotFound(w, r)
	}
}

// TestPersistCostFlatInJobCount: what the coordinator writes for one submit
// and for one completion does not grow with the jobs it holds — the bytes
// after 40 finished jobs and after 400 are the same but for their digits
// (IDs, times, ports) — and a finished job keeps no backend status.
func TestPersistCostFlatInJobCount(t *testing.T) {
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 4}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var written bytes.Buffer
	writeState = func(path string, b []byte) error {
		mu.Lock()
		written.Write(b)
		mu.Unlock()
		return checkpoint.WriteFileAtomic(path, b)
	}
	t.Cleanup(func() { writeState = checkpoint.WriteFileAtomic })
	digits := regexp.MustCompile(`[0-9]+`)
	take := func() string {
		mu.Lock()
		defer mu.Unlock()
		s := digits.ReplaceAllString(written.String(), "0")
		written.Reset()
		return s
	}

	// perEvent returns what one submit and one completion write after n
	// finished jobs.
	perEvent := func(n int) (submit, complete string) {
		fb := &fakeBackend{jobs: map[string]server.JState{}}
		ts := httptest.NewServer(fb)
		defer ts.Close()
		c, err := New(Config{Backends: []string{ts.URL}, StoreDir: t.TempDir()})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c.Shutdown(ctx)
		}()
		c.mu.Lock()
		for range n {
			c.ids.Seq++
			c.addLocked(&job{ID: fmt.Sprintf("f-%06d", c.ids.Seq), Tenant: "acme", Spec: spec,
				State: server.JCompleted, Submitted: wallNow(), Diagnostics: map[string]float64{"ke": 1.5}})
		}
		c.mu.Unlock()
		take()
		j, err := c.SubmitJob(spec, "acme")
		if err != nil {
			t.Fatalf("submit after %d jobs: %v", n, err)
		}
		submit = take()
		fb.set(j.BackendID, server.JCompleted)
		c.refresh(j)
		complete = take()
		c.mu.Lock()
		state, remote := j.State, j.remote
		c.mu.Unlock()
		if state != server.JCompleted || remote != nil {
			t.Errorf("after %d jobs the finished job is %s and keeps its backend status: %t", n, state, remote != nil)
		}
		return submit, complete
	}
	s40, c40 := perEvent(40)
	s400, c400 := perEvent(400)
	if s40 == "" || c40 == "" {
		t.Fatalf("a submit wrote %d bytes and a completion %d: nothing persisted", len(s40), len(c40))
	}
	if s400 != s40 {
		t.Errorf("a submit writes %d bytes after 400 jobs, %d after 40", len(s400), len(s40))
	}
	if c400 != c40 {
		t.Errorf("a completion writes %d bytes after 400 jobs, %d after 40", len(c400), len(c40))
	}
}

// fakeFleet starts a fake backend and returns it with a function that boots
// a coordinator over it and store, shut down when the test ends.
func fakeFleet(t *testing.T, store string) (*fakeBackend, *httptest.Server, func() *Coordinator) {
	fb := &fakeBackend{jobs: map[string]server.JState{}}
	ts := httptest.NewServer(fb)
	t.Cleanup(ts.Close)
	return fb, ts, func() *Coordinator {
		c, err := New(Config{Backends: []string{ts.URL}, StoreDir: store})
		if err != nil {
			t.Fatalf("fleet.New: %v", err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			c.Shutdown(ctx)
		})
		return c
	}
}

// testSpec is a small run job, normalized.
func testSpec(t *testing.T) server.JobSpec {
	spec := server.JobSpec{Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: 4}
	if err := spec.Normalize(); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestFailedSubmitsBurnTheirIDs: an ensemble rejected after its first member
// was placed (and withdrawn: that copy may have checkpointed under its key)
// and a rejected job keep their IDs across a restart that follows them at
// once — the coordinator's last act was the failed submit — so the next
// ensemble and job get fresh ones.
func TestFailedSubmitsBurnTheirIDs(t *testing.T) {
	store := t.TempDir()
	fb, _, boot := fakeFleet(t, store)
	fb.limit = 1
	c := boot()
	if _, err := c.SubmitEnsemble(EnsembleSpec{Job: testSpec(t), Members: 2}, "acme"); err == nil {
		t.Fatal("an ensemble of 2 was placed on a backend admitting 1 job")
	}
	fb.mu.Lock()
	placed := len(fb.jobs)
	fb.mu.Unlock()
	if placed != 1 {
		t.Fatalf("backend saw %d member copies before the rejection, want 1", placed)
	}
	if _, err := c.SubmitJob(testSpec(t), "acme"); err == nil {
		t.Fatal("a job was placed on a full backend")
	}
	c.Shutdown(context.Background())

	fb.mu.Lock()
	fb.limit = 0
	fb.mu.Unlock()
	c = boot()
	e, err := c.SubmitEnsemble(EnsembleSpec{Job: testSpec(t), Members: 2}, "acme")
	if err != nil {
		t.Fatal(err)
	}
	j, err := c.SubmitJob(testSpec(t), "acme")
	if err != nil {
		t.Fatal(err)
	}
	if e.ID != "e-000002" || j.ID != "f-000002" {
		t.Errorf("after a restart the next ensemble is %s and job %s, want e-000002 and f-000002: an ID of a failed submit was handed out again", e.ID, j.ID)
	}
}

// TestRestartKeepsSubmissionOrder: jobs and ensemble members submitted in
// turn list in that order, and still do after a restart, when records load
// in whatever order the store names them.
func TestRestartKeepsSubmissionOrder(t *testing.T) {
	store := t.TempDir()
	_, _, boot := fakeFleet(t, store)
	c := boot()
	for _, submit := range []func() error{
		func() error { _, err := c.SubmitJob(testSpec(t), "acme"); return err },
		func() error {
			_, err := c.SubmitEnsemble(EnsembleSpec{Job: testSpec(t), Members: 2}, "acme")
			return err
		},
		func() error { _, err := c.SubmitJob(testSpec(t), "acme"); return err },
	} {
		if err := submit(); err != nil {
			t.Fatal(err)
		}
	}
	list := func(c *Coordinator) (ids []string) {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs", nil))
		var page struct{ Jobs []JobInfo }
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("GET /jobs: %d %s", rec.Code, rec.Body.Bytes())
		}
		for _, info := range page.Jobs {
			ids = append(ids, info.ID)
		}
		return ids
	}
	want := []string{"f-000001", "e-000001-m00", "e-000001-m01", "f-000002"}
	if got := list(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("GET /jobs lists %v, want %v", got, want)
	}
	c.Shutdown(context.Background())
	if got := list(boot()); !reflect.DeepEqual(got, want) {
		t.Errorf("after a restart GET /jobs lists %v, want %v", got, want)
	}
}

// TestRunningProgressSurvivesRestart: the progress a running job's backend
// copy reported is written at shutdown, so a coordinator restarted after that
// backend is gone still reports it.
func TestRunningProgressSurvivesRestart(t *testing.T) {
	store := t.TempDir()
	_, ts, boot := fakeFleet(t, store)
	c := boot()
	j, err := c.SubmitJob(testSpec(t), "acme")
	if err != nil {
		t.Fatal(err)
	}
	c.refresh(j)
	c.Shutdown(context.Background())
	ts.Close()
	c = boot()
	got, ok := c.GetJob(j.ID)
	if !ok {
		t.Fatalf("job %s lost across the restart", j.ID)
	}
	c.mu.Lock()
	steps := got.StepsDone
	c.mu.Unlock()
	if steps != 2 {
		t.Errorf("after a restart without its backend %s reads steps_done %d, want 2", j.ID, steps)
	}
}
