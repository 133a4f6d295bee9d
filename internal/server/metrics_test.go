package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/testutil"
)

// TestMetricsGolden pins the /metrics exposition byte for byte, its uptime
// masked: a tenant quota rejection, an explicit job checkpointing into a
// shared store and an auto-layout job run to completion on one worker in a
// fixed order, so every counter, per-tenant family, plan and exchanger
// sample is deterministic (the seconds are simulated).
func TestMetricsGolden(t *testing.T) {
	store, err := checkpoint.NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Quotas: map[string]int{"acme": 1}, Shared: store})
	hold := make(chan struct{})
	s.testHold = hold
	explicit := smallSpec(2)
	explicit.Tenant = "acme"
	explicit.SharedKey = "golden"
	explicit.CheckpointEvery = 1
	j1, err := s.Submit(explicit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := s.Submit(explicit); err == nil {
		t.Fatal("second acme job admitted over its quota of 1")
	}
	// The worker takes the explicit job before the auto one is queued.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		queued := s.queued
		s.mu.Unlock()
		if queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never took the first job")
		}
	}
	j2, err := s.Submit(JobSpec{Layout: "auto", Procs: 2, M: 2, Steps: 2, Tenant: "batch"})
	if err != nil {
		t.Fatalf("Submit auto: %v", err)
	}
	close(hold)
	waitState(t, s, j1.ID, JCompleted)
	waitState(t, s, j2.ID, JCompleted)
	cancelShutdown(t, s) // the worker has left its job: cady_workers_busy reads 0

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	got := regexp.MustCompile(`(?m)^cady_uptime_seconds .*$`).ReplaceAllString(rec.Body.String(), "cady_uptime_seconds <uptime>")
	testutil.Golden(t, filepath.Join("testdata", "metrics.golden"), got)
}
