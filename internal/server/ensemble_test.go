package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/testutil"
)

// ensembleSpec is a small seeded ensemble of the 16×8×4 baseline.
func ensembleSpec(members, steps int) JobSpec {
	return JobSpec{
		Kind: "ensemble", Members: members, PerturbSeed: 7,
		Alg: "yz", Nx: 16, Ny: 8, Nz: 4, PA: 1, PB: 1, M: 1, Steps: steps,
	}
}

// memberFinals are the final checkpoints of a completed ensemble's members,
// in member order.
func memberFinals(t *testing.T, s *Server, e *Job) []*checkpoint.Global {
	t.Helper()
	var finals []*checkpoint.Global
	for _, m := range e.members {
		finals = append(finals, homeSnap(t, s, m))
	}
	return finals
}

// TestEnsembleDeterminism: the same seeded ensemble runs the same member set
// — member finals are bitwise-reproducible across submissions, mutually
// distinct within one ensemble, and each the plain run job of the member's
// seed — and its derived status covers every member: summed steps and an
// ordered min/max/mean aggregate with a spread.
func TestEnsembleDeterminism(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2, QueueCap: 16, Dir: t.TempDir()})
	ts := httptest.NewServer(s)
	defer ts.Close()
	spec := ensembleSpec(3, 2)

	resp := postJSON(t, ts, "/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit ensemble: %d", resp.StatusCode)
	}
	first := decodeStatus(t, resp)
	if first.Kind != "ensemble" || len(first.Members) != 3 || first.Members[1] != first.ID+"-m01" {
		t.Fatalf("submitted ensemble reads kind %q, members %v", first.Kind, first.Members)
	}
	st := waitState(t, s, first.ID, JCompleted)
	if st.StepsDone != 6 || st.StepsWant != 6 || st.Progress != 1 {
		t.Fatalf("completed ensemble: steps %d of %d, progress %g; want 6 of 6", st.StepsDone, st.StepsWant, st.Progress)
	}

	// The aggregate covers every member and is internally coherent.
	var kes []float64
	for _, id := range st.Members {
		m, _ := s.Get(id)
		kes = append(kes, m.Status().Diagnostics["kinetic_energy"])
	}
	lo, hi, sum := kes[0], kes[0], 0.0
	for _, v := range kes {
		lo, hi, sum = min(lo, v), max(hi, v), sum+v
	}
	d := st.Diagnostics
	if d["kinetic_energy.min"] != lo || d["kinetic_energy.max"] != hi || d["kinetic_energy.mean"] != sum/3 {
		t.Fatalf("kinetic_energy aggregate %v, want min %g max %g mean %g over the members %v", d, lo, hi, sum/3, kes)
	}
	if !(lo <= sum/3 && sum/3 <= hi) {
		t.Fatalf("aggregate not ordered: %v", d)
	}
	if lo == hi {
		t.Fatal("perturbed members produced identical kinetic energy (no spread)")
	}

	e1, _ := s.Get(first.ID)
	finals1 := memberFinals(t, s, e1)
	for a := range finals1 {
		for b := a + 1; b < len(finals1); b++ {
			if finals1[a].Equal(finals1[b]) {
				t.Fatalf("members %d and %d are bitwise identical — perturbation did not differentiate them", a, b)
			}
		}
	}

	// Resubmit the identical ensemble: same member set, bitwise.
	e2, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, e2.ID, JCompleted)
	for m, gl := range memberFinals(t, s, e2) {
		if !gl.Equal(finals1[m]) {
			t.Fatalf("member %d differs across identically-seeded ensembles", m)
		}
	}

	// Member m is the plain run job of its seed.
	for m := range finals1 {
		plain := spec
		plain.Kind, plain.Members = "run", 0
		plain.PerturbSeed, plain.PerturbAmp = memberSeed(7, m), 1e-4
		j, err := s.Submit(plain)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, s, j.ID, JCompleted)
		if !homeSnap(t, s, j).Equal(finals1[m]) {
			t.Fatalf("member %d differs from the plain run job with perturb_seed %d", m, plain.PerturbSeed)
		}
	}
}

// TestEnsembleRestartOverDir: a server shut down mid-ensemble recovers the
// ensemble from Dir with its members linked, interrupted and resumable; one
// resume of the ensemble runs every member to the finals of an uninterrupted
// ensemble, bitwise.
func TestEnsembleRestartOverDir(t *testing.T) {
	testutil.VerifyNoLeaks(t)
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, QueueCap: 8, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Both members park at step 3 until the drain has begun.
	reached, release := make(chan struct{}, 2), make(chan struct{})
	s.testStep = func(j *Job, done int) {
		if done == 3 {
			reached <- struct{}{}
			<-release
		}
	}
	spec := ensembleSpec(2, 12)
	spec.CheckpointEvery = 1
	e, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	<-reached
	stopped := make(chan error)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		stopped <- s.Shutdown(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if err := <-stopped; err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, Config{Workers: 2, QueueCap: 8, Dir: dir})
	r, ok := s2.Get(e.ID)
	if !ok {
		t.Fatalf("ensemble %s not recovered", e.ID)
	}
	st := r.Status()
	if st.State != JInterrupted || !st.Resumable || st.StepsDone != 6 || len(st.Members) != 2 {
		t.Fatalf("recovered ensemble: %s resumable %v at %d steps with members %v; want interrupted and resumable at 6 with 2",
			st.State, st.Resumable, st.StepsDone, st.Members)
	}
	if _, err := s2.Resume(e.ID); err != nil {
		t.Fatalf("resume recovered ensemble: %v", err)
	}
	waitState(t, s2, e.ID, JCompleted)

	ref, err := s2.Submit(ensembleSpec(2, 12))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s2, ref.ID, JCompleted)
	want := memberFinals(t, s2, ref)
	for m, gl := range memberFinals(t, s2, r) {
		if !gl.Equal(want[m]) {
			t.Fatalf("member %d resumed across a restart differs from the uninterrupted ensemble", m)
		}
	}
}

// TestEnsembleAdmission: an ensemble's spec follows the run rules plus its
// own; its members are admitted all or none; cancel reaches every live
// member and resume every stopped one.
func TestEnsembleAdmission(t *testing.T) {
	for _, sp := range []JobSpec{
		ensembleSpec(1, 2), ensembleSpec(65, 2),
		func() JobSpec { sp := ensembleSpec(2, 2); sp.PerturbAmp = 0.5; return sp }(),
		func() JobSpec { sp := ensembleSpec(2, 2); sp.Nx = 5; return sp }(),
		func() JobSpec { sp := smallSpec(2); sp.Members = 2; return sp }(),
	} {
		if err := sp.Normalize(); err == nil {
			t.Errorf("invalid spec accepted: %+v", sp)
		}
	}
	def := JobSpec{Kind: "ensemble", Members: 2}
	if err := def.Normalize(); err != nil || def.PerturbSeed != 1 || def.PerturbAmp != 1e-4 || def.Steps != 4 {
		t.Fatalf("defaults: %v, %+v", err, def)
	}

	s := newTestServer(t, Config{Workers: 1, QueueCap: 3, DefaultQuota: 3})
	if _, err := s.Submit(ensembleSpec(4, 2)); err == nil || !strings.Contains(err.Error(), "queue capacity of 3") {
		t.Fatalf("an ensemble larger than the queue: %v, want an error naming the cap", err)
	}
	long, err := s.Submit(smallSpec(100000))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, long.ID, JRunning)
	if _, err := s.Submit(ensembleSpec(3, 100000)); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("an ensemble over the quota's room: %v, want ErrQuotaExceeded", err)
	}
	if n := queueDepth(s); n > 1 {
		t.Fatalf("%d jobs queued after a refused ensemble: members were admitted", n)
	}
	e, err := s.Submit(ensembleSpec(2, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Cancel(e.ID); err != nil {
		t.Fatal(err)
	}
	if st := waitState(t, s, e.ID, JCancelled); !st.Resumable {
		t.Fatalf("cancelled ensemble: %+v", st)
	}
	if err := s.Cancel(e.ID); err == nil {
		t.Fatal("a cancelled ensemble cancelled again")
	}
	if _, err := s.Resume(e.ID); err != nil {
		t.Fatal(err)
	}
	for _, m := range e.members {
		if st := m.Status().State; st != JQueued && st != JRunning {
			t.Errorf("member %s is %s after the ensemble's resume", m.ID, st)
		}
	}
	for _, id := range []string{e.ID, long.ID} {
		if err := s.Cancel(id); err != nil {
			t.Fatal(err)
		}
	}
}
