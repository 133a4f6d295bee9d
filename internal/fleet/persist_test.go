package fleet

import (
	"bytes"
	"cmp"
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
	"slices"
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
		Seq  int
		Jobs []json.RawMessage
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
	ids := fmt.Sprintf(`{"seq":%d}`, want.Seq)
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
	if !reflect.DeepEqual(got, names) {
		t.Errorf("migrated records %v, want %v", got, names)
	}
	c.mu.Lock()
	seq := c.ids.Seq
	c.mu.Unlock()
	if seq != want.Seq {
		t.Errorf("ID counter %d after the migration, want %d", seq, want.Seq)
	}
	if _, err := os.Stat(filepath.Join(dir, "fleet.json")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("fleet.json still there after the migration: %v", err)
	}
}

// TestLegacyStoreRoundTrip: over a legacy fleet.json the coordinator serves
// every job byte for byte as the coordinator that wrote such files served it
// after a reload (testdata/fleet-jstate.jobinfo.json, the view it declared
// apart from the record); a second restart, over the migrated records,
// serves the same again; and neither would mint an ID the store already
// holds.
func TestLegacyStoreRoundTrip(t *testing.T) {
	dir := legacyStore(t)
	var want []json.RawMessage
	if err := json.Unmarshal(read(t, filepath.Join("testdata", "fleet-jstate.jobinfo.json")), &want); err != nil {
		t.Fatal(err)
	}
	for _, over := range []string{"the legacy fleet.json", "the migrated records"} {
		c, err := New(Config{StoreDir: dir})
		if err != nil {
			t.Fatalf("fleet.New over %s: %v", over, err)
		}
		var last string
		for _, w := range want {
			var rec struct{ ID string }
			if err := json.Unmarshal(w, &rec); err != nil {
				t.Fatal(err)
			}
			last = rec.ID
			rr := httptest.NewRecorder()
			c.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs/"+rec.ID, nil))
			var got, exp bytes.Buffer
			if err := cmp.Or(json.Compact(&got, rr.Body.Bytes()), json.Compact(&exp, w)); err != nil || rr.Code != http.StatusOK {
				t.Fatalf("over %s GET %s: %d %s (%v)", over, rec.ID, rr.Code, rr.Body.Bytes(), err)
			}
			if got.String() != exp.String() {
				t.Errorf("over %s job %s reads\n%s\nwant\n%s", over, rec.ID, got.String(), exp.String())
			}
		}
		c.mu.Lock()
		next := c.ids.Seq + 1
		c.mu.Unlock()
		if fmt.Sprintf("f-%06d", next) <= last {
			t.Errorf("over %s the next job would be f-%06d, but %s exists", over, next, last)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		c.Shutdown(ctx)
		cancel()
	}
}

// TestOldRecordsLoad: records of a coordinator that ran ensembles itself
// load into this one — a job record keyed backend_id is adopted on its
// backend under that ID, not migrated, an ensemble-*.json record is not
// read, and its member's job record finishes as a plain job.
func TestOldRecordsLoad(t *testing.T) {
	var j job
	if err := json.Unmarshal([]byte(`{"id":"f-000001","backend_id":"j-000009","spec":{"steps":3}}`), &j); err != nil ||
		j.BackendJobID != "j-000009" || j.StepsTotal != 3 {
		t.Fatalf("an old record reads backend_job_id %q and steps_total %d (%v), want j-000009 and 3", j.BackendJobID, j.StepsTotal, err)
	}
	store := t.TempDir()
	fb, ts, boot := fakeFleet(t, store)
	fb.set("j-000001", server.JRunning)
	fb.keys["j-000001"] = "e-000001-m00"
	dir := filepath.Join(store, "fleet")
	if err := checkpoint.MkdirDurable(dir); err != nil {
		t.Fatal(err)
	}
	for name, rec := range map[string]string{
		"job-e-000001-m00.json": `{"id":"e-000001-m00","tenant":"acme","spec":{"kind":"run","steps":4,"shared_key":"e-000001-m00","perturb_amp":0.0001,"perturb_seed":5},` +
			`"ensemble":"e-000001","state":"running","backend":"` + ts.URL + `","backend_id":"j-000001","submitted_at":"2026-01-02T03:04:05Z"}`,
		"ensemble-e-000001.json": `{"id":"e-000001","tenant":"acme","spec":{"job":{"steps":4},"members":1},"members":["e-000001-m00"],"submitted_at":"2026-01-02T03:04:05Z"}`,
		"ids.json":               `{"seq":0,"eseq":1}`,
	} {
		if err := checkpoint.WriteFileAtomic(filepath.Join(dir, name), []byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	c := boot()
	get := func(path string) (int, job) {
		rr := httptest.NewRecorder()
		c.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		var j job
		json.Unmarshal(rr.Body.Bytes(), &j)
		return rr.Code, j
	}
	if code, j := get("/jobs/e-000001-m00"); code != http.StatusOK || j.State != server.JRunning || j.BackendJobID != "j-000001" || j.Migrations != 0 {
		t.Fatalf("old member record reads %d %+v, want running on j-000001 without a migration", code, j)
	}
	fb.set("j-000001", server.JCompleted)
	if _, j := get("/jobs/e-000001-m00"); j.State != server.JCompleted || j.Diagnostics["ke"] != 1.5 {
		t.Fatalf("old member finishes as %+v, want completed with its diagnostics", j)
	}
	if code, _ := get("/ensembles/e-000001"); code != http.StatusNotFound {
		t.Errorf("GET /ensembles/e-000001: %d, want 404", code)
	}
	rr := httptest.NewRecorder()
	c.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/jobs", nil))
	if !strings.Contains(rr.Body.String(), `"total": 1`) {
		t.Errorf("GET /jobs lists %s, want the member alone", rr.Body.String())
	}
}

// fakeBackend stands in for cadyserved where only the coordinator is under
// test: it runs nothing, admits every job as running (up to limit jobs in
// all, when limit is set) two steps in, reports each in the state the test
// sets, and lists them under their shared keys.
type fakeBackend struct {
	mu    sync.Mutex
	jobs  map[string]server.JState // backend job ID → state
	keys  map[string]string        // backend job ID → shared_key
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
		st := map[string]any{"id": id, "state": f.jobs[id], "spec": map[string]string{"shared_key": f.keys[id]}}
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
		var spec server.JobSpec
		json.NewDecoder(r.Body).Decode(&spec)
		id = fmt.Sprintf("j-%06d", len(f.jobs)+1)
		f.jobs[id], f.keys[id] = server.JRunning, spec.SharedKey
		server.WriteJSON(w, http.StatusAccepted, status(id))
	case r.URL.Path == "/jobs":
		var list []any
		var ids []string
		for id := range f.jobs {
			ids = append(ids, id)
		}
		slices.Sort(ids)
		for _, id := range ids {
			list = append(list, status(id))
		}
		server.WriteJSON(w, http.StatusOK, map[string]any{"jobs": list, "total": len(list)})
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
		fb := &fakeBackend{jobs: map[string]server.JState{}, keys: map[string]string{}}
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
		fb.set(j.BackendJobID, server.JCompleted)
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
	fb := &fakeBackend{jobs: map[string]server.JState{}, keys: map[string]string{}}
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

// TestFailedSubmitsBurnTheirIDs: a rejected job keeps its ID across a
// restart that follows it at once — the coordinator's last act was the
// failed submit, and a copy may have checkpointed under the ID — so the
// next job gets a fresh one.
func TestFailedSubmitsBurnTheirIDs(t *testing.T) {
	store := t.TempDir()
	fb, _, boot := fakeFleet(t, store)
	fb.limit = 1
	c := boot()
	if _, err := c.SubmitJob(testSpec(t), "acme"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SubmitJob(testSpec(t), "acme"); err == nil {
		t.Fatal("a job was placed on a full backend")
	}
	c.Shutdown(context.Background())

	fb.mu.Lock()
	fb.limit = 0
	fb.mu.Unlock()
	c = boot()
	j, err := c.SubmitJob(testSpec(t), "acme")
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "f-000003" {
		t.Errorf("after a restart the next job is %s, want f-000003: the ID of a failed submit was handed out again", j.ID)
	}
}

// TestRestartKeepsSubmissionOrder: jobs and ensembles submitted in turn list
// in that order, and still do after a restart, when records load in
// whatever order the store names them.
func TestRestartKeepsSubmissionOrder(t *testing.T) {
	store := t.TempDir()
	_, _, boot := fakeFleet(t, store)
	c := boot()
	ens := testSpec(t)
	ens.Kind, ens.Members = "ensemble", 2
	for _, spec := range []server.JobSpec{testSpec(t), ens, testSpec(t)} {
		if _, err := c.SubmitJob(spec, "acme"); err != nil {
			t.Fatal(err)
		}
	}
	list := func(c *Coordinator) (ids []string) {
		rec := httptest.NewRecorder()
		c.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs", nil))
		var page struct{ Jobs []job }
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatalf("GET /jobs: %d %s", rec.Code, rec.Body.Bytes())
		}
		for _, info := range page.Jobs {
			ids = append(ids, info.ID)
		}
		return ids
	}
	want := []string{"f-000001", "f-000002", "f-000003"}
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
