package fleet

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
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
	c.addLocked(&job{ID: "f-1", Tenant: "acme", State: fCompleted})
	c.mu.Unlock()
	c.persist()
	<-first

	// Restart: a coordinator over the same store reloads fleet.json.
	if _, ok := coord().GetJob("f-1"); !ok {
		t.Fatal("job f-1 was acknowledged and persisted, but a restarted coordinator does not know it: an older snapshot was written last")
	}
}
