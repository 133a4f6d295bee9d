package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/fault"
	"cadycore/internal/tune"
)

func TestRebalanceSpecValidation(t *testing.T) {
	auto := func(on *struct{}) JobSpec {
		return JobSpec{
			Layout: "auto", Procs: 4,
			Nx: 32, Ny: 16, Nz: 4, M: 2, Steps: 4,
			Rebalance: on,
		}
	}
	valid := map[string]JobSpec{
		"rebalance on":  auto(&struct{}{}),
		"rebalance off": auto(nil),
	}
	for name, spec := range valid {
		if err := spec.Normalize(); err != nil {
			t.Errorf("%s: Normalize() = %v, want nil", name, err)
		}
	}

	// Submissions as the API decodes them: strictly, then Normalize.
	invalid := map[string]struct {
		body string
		want string
	}{
		"explicit layout": {`{"alg":"yz","pa":2,"pb":2,"rebalance":{}}`, "layout"},
		"figures job":     {`{"kind":"figures","rebalance":{}}`, "run jobs"},
		"retired field":   {`{"layout":"auto","procs":4,"rebalance":{"threshold":2}}`, "threshold"},
	}
	for name, tc := range invalid {
		var spec JobSpec
		err := DecodeStrict(strings.NewReader(tc.body), &spec)
		if err == nil {
			err = spec.Normalize()
		}
		if err == nil {
			t.Errorf("%s: accepted, want error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestRebalanceJobMigrates is the service-level rebalance soak: a chaos
// straggler slows one rank 10x, and an auto-layout job with rebalancing on
// must detect it, migrate at least once, surface the
// migration log and the updated plan in its status, and bump the /metrics
// rebalance counters.
func TestRebalanceJobMigrates(t *testing.T) {
	chaos := &fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 3, Scale: 10}}}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Chaos: chaos})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := JobSpec{
		Layout: "auto", Procs: 4,
		Nx: 48, Ny: 24, Nz: 8, M: 2, Steps: 24,
		Rebalance: &struct{}{},
	}
	resp := postJSON(t, ts, "/jobs", spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	st := decodeStatus(t, resp)
	final := waitState(t, s, st.ID, JCompleted)

	if final.StepsDone != 24 {
		t.Errorf("steps done = %d, want 24", final.StepsDone)
	}
	if len(final.Migrations) < 1 {
		t.Fatalf("no migrations executed under a 10x straggler; status %+v", final)
	}
	last := final.Migrations[len(final.Migrations)-1]
	if last.To == last.From {
		t.Errorf("migration %+v did not change the layout", last)
	}
	if final.Plan == nil {
		t.Fatal("completed rebalanced job has no plan in its status")
	}
	if key := tune.Key(final.Plan.Setup(final.Spec.config())); key != last.To {
		t.Errorf("final plan %q != last migration target %q", key, last.To)
	}
	for _, mg := range final.Migrations {
		if mg.PredictedGain <= mg.Cost {
			t.Errorf("migration %+v accepted without clearing the cost gate", mg)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"cady_rebalance_decisions_total",
		"cady_rebalance_migrations_total " + strconv.Itoa(len(final.Migrations)),
		"cady_plan_info{job=\"" + final.ID + "\",plan=\"" + last.To + "\"} 1",
		"cady_comp_imbalance",
		"cady_rank_comp_seconds_total{rank=\"3\"}",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestRebalanceQuietJobDoesNotMigrate: without a straggler the controller
// must leave the plan alone over several windows.
func TestRebalanceQuietJobDoesNotMigrate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := JobSpec{
		Layout: "auto", Procs: 4,
		Nx: 48, Ny: 24, Nz: 8, M: 2, Steps: 16,
		Rebalance: &struct{}{},
	}
	st := decodeStatus(t, postJSON(t, ts, "/jobs", spec))
	final := waitState(t, s, st.ID, JCompleted)
	if len(final.Migrations) != 0 {
		t.Errorf("quiet job migrated: %+v", final.Migrations)
	}
	if final.StepsDone != 16 {
		t.Errorf("steps done = %d, want 16", final.StepsDone)
	}
}

// TestRecoverRetiredRebalancePolicy: a spec.json an older release wrote with
// policy fields under "rebalance" (a fast-reacting window 4, patience 1,
// cooldown 1) still recovers, because recovery decodes leniently, and the
// resumed job rebalances at the fixed policy: under a 10x straggler its first
// migration is at step 8, where patience 1 would have moved at step 4.
func TestRecoverRetiredRebalancePolicy(t *testing.T) {
	dir := t.TempDir()
	jdir := filepath.Join(dir, "j-000001")
	if err := checkpoint.MkdirDurable(jdir); err != nil {
		t.Fatal(err)
	}
	old := `{
  "kind": "run",
  "layout": "auto",
  "procs": 4,
  "nx": 48,
  "ny": 24,
  "nz": 8,
  "m": 3,
  "steps": 24,
  "dt1": 30,
  "dt2": 180,
  "rebalance": {
    "window": 4,
    "patience": 1,
    "cooldown": 1
  }
}`
	if err := checkpoint.WriteFileAtomic(filepath.Join(jdir, "spec.json"), []byte(old)); err != nil {
		t.Fatal(err)
	}

	chaos := &fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 3, Scale: 10}}}
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4, Dir: dir, Chaos: chaos})
	j, ok := s.Get("j-000001")
	if !ok {
		t.Fatal("job with a retired rebalance policy was not recovered")
	}
	if st := j.Status(); st.State != JInterrupted || !st.Resumable || st.Spec.Rebalance == nil {
		t.Fatalf("recovered %s resumable=%v rebalance=%v, want interrupted, resumable, rebalance on",
			st.State, st.Resumable, st.Spec.Rebalance != nil)
	}
	if _, err := s.Resume(j.ID); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	final := waitState(t, s, j.ID, JCompleted)
	if final.StepsDone != 24 || len(final.Migrations) == 0 {
		t.Fatalf("resumed job: %d steps, migrations %+v; want 24 and at least one", final.StepsDone, final.Migrations)
	}
	if mg := final.Migrations[0]; mg.Step != 8 || mg.To == mg.From {
		t.Errorf("first migration %+v, want a layout change at step 8", mg)
	}
}
