package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"cadycore/internal/balance"
	"cadycore/internal/fault"
	"cadycore/internal/tune"
)

func TestRebalanceSpecValidation(t *testing.T) {
	auto := func(pol *balance.Policy) JobSpec {
		return JobSpec{
			Layout: "auto", Procs: 4,
			Nx: 32, Ny: 16, Nz: 4, M: 2, Steps: 4,
			Rebalance: pol,
		}
	}
	valid := map[string]JobSpec{
		"zero policy":     auto(&balance.Policy{}),
		"explicit policy": auto(&balance.Policy{Window: 4, Threshold: 2, Patience: 1}),
		"no policy":       auto(nil),
	}
	for name, spec := range valid {
		if err := spec.Normalize(); err != nil {
			t.Errorf("%s: Normalize() = %v, want nil", name, err)
		}
	}

	explicit := smallSpec(4)
	explicit.Rebalance = &balance.Policy{}
	figures := JobSpec{Kind: "figures", Rebalance: &balance.Policy{}}
	invalid := map[string]struct {
		spec JobSpec
		want string
	}{
		"explicit layout": {explicit, "layout"},
		"figures job":     {figures, "run jobs"},
		"bad threshold":   {auto(&balance.Policy{Threshold: 0.5}), "threshold"},
		"bad window":      {auto(&balance.Policy{Window: -1}), "window"},
		"bad patience":    {auto(&balance.Policy{Patience: -1}), "patience"},
		"bad smoothing":   {auto(&balance.Policy{Smoothing: 2}), "smoothing"},
	}
	for name, tc := range invalid {
		err := tc.spec.Normalize()
		if err == nil {
			t.Errorf("%s: Normalize() = nil, want error", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.want)
		}
	}
}

// TestRebalanceJobMigrates is the service-level rebalance soak: a chaos
// straggler slows one rank 10x, and an auto-layout job with the rebalancing
// policy enabled must detect it, migrate at least once, surface the
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
		Rebalance: &balance.Policy{Window: 4, Patience: 1, Cooldown: 1},
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

// TestRebalanceQuietJobDoesNotMigrate: without a straggler the same policy
// must leave the plan alone.
func TestRebalanceQuietJobDoesNotMigrate(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	ts := httptest.NewServer(s)
	defer ts.Close()

	spec := JobSpec{
		Layout: "auto", Procs: 4,
		Nx: 48, Ny: 24, Nz: 8, M: 2, Steps: 8,
		Rebalance: &balance.Policy{Window: 4, Patience: 1, Cooldown: 1},
	}
	st := decodeStatus(t, postJSON(t, ts, "/jobs", spec))
	final := waitState(t, s, st.ID, JCompleted)
	if len(final.Migrations) != 0 {
		t.Errorf("quiet job migrated: %+v", final.Migrations)
	}
	if final.StepsDone != 8 {
		t.Errorf("steps done = %d, want 8", final.StepsDone)
	}
}
