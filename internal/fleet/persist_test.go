package fleet

import (
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/server"
)

// TestPersistLandsInMarshalOrder: two persists that take their snapshots in
// one order must reach fleet.json in that order. The first write is held back
// until the second persist has written — or, once persists are serialised
// and the second cannot write first, for 300 ms — so an unserialised persist
// renames the older snapshot over the newer one, and the job only the newer
// snapshot holds is gone after a restart (GET would be a 404).
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
		c.persist() // snapshot without the job
		close(first)
	}()
	<-entered
	// The job is acknowledged after the first snapshot was taken; the second
	// persist is the one its submit made.
	c.mu.Lock()
	c.seq++
	c.addLocked(&job{ID: "f-1", Tenant: "acme", State: server.JCompleted})
	c.mu.Unlock()
	c.persist()
	<-first

	// Restart: a coordinator over the same store reloads fleet.json.
	if _, ok := coord().GetJob("f-1"); !ok {
		t.Fatal("job f-1 was acknowledged and persisted, but a restarted coordinator does not know it: an older snapshot was written last")
	}
}

// TestLoadFleetJSONOfOwnStateType: testdata/fleet-jstate.json is a fleet.json
// written by the coordinator while it had a state type of its own, with one
// job in each state a fleet job can hold. It loads into the same states
// (the running job's backend is gone, so it migrates back to queued), and the
// state file the coordinator rewrites at start and at shutdown is, byte for
// byte, the one that coordinator wrote, each record now dated by the file's
// modification time (testdata/fleet-jstate.reloaded.json).
func TestLoadFleetJSONOfOwnStateType(t *testing.T) {
	dir := t.TempDir()
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if err := checkpoint.WriteFileAtomic(filepath.Join(dir, "fleet.json"), read(filepath.Join("testdata", "fleet-jstate.json"))); err != nil {
		t.Fatal(err)
	}
	// The fixture's records predate their submitted_at key, so they are dated
	// by the file's modification time, which the rewrite then records.
	written := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	if err := os.Chtimes(filepath.Join(dir, "fleet.json"), written, written); err != nil {
		t.Fatal(err)
	}
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
	if got, want := read(filepath.Join(dir, "fleet.json")), read(filepath.Join("testdata", "fleet-jstate.reloaded.json")); string(got) != string(want) {
		t.Errorf("rewritten fleet.json:\n%s\nwant:\n%s", got, want)
	}
}
