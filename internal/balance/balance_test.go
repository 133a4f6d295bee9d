package balance

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/tune"
)

// soakPolicy reacts within one window so the soak tests stay fast; the
// defaults (window 4, patience 2) are tuned for long production runs.
func soakPolicy() Policy {
	return Policy{Window: 4, Patience: 1, Cooldown: 1}
}

func stragglerPlan(scale float64) fault.Plan {
	return fault.Plan{Seed: 1, Stragglers: []fault.Straggler{{Rank: 3, Scale: scale}}}
}

// TestRebalanceUnderStragglerYZ is the headline soak: a rank slowed 10x by
// fault injection, a rebalancing run that must (a) actually migrate, (b)
// beat the static layout's simulated wall-clock by >= 15% including the
// modeled migration cost, and (c) finish in a state bitwise identical to an
// unperturbed static reference — a straggler changes timing, never numerics,
// and the YZ scheme is decomposition-independent. The 10x scale puts the
// step firmly in the compute-dominated regime: a milder straggler's extra
// compute mostly hides message flight time behind itself (the overlap
// engine), so there is little for a repartition to win back.
func TestRebalanceUnderStragglerYZ(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 24
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	model := comm.TianheLike()

	ref := dycore.Run(set, g, model, heldsuarez.InitialState, steps)

	// Static run under the straggler: same numerics, inflated clock.
	static, _ := dycore.RunWithOpts(set, g, model, heldsuarez.InitialState, steps, dycore.RunOpts{
		Faults: fault.New(stragglerPlan(10)).CommFaults(set.Procs()),
	})
	refGl := checkpoint.Gather(g, ref.Finals)
	if !refGl.Equal(checkpoint.Gather(g, static.Finals)) {
		t.Fatalf("straggler changed the numerics of the static run")
	}
	if static.Agg.SimTime <= ref.Agg.SimTime {
		t.Fatalf("straggler did not slow the static run: %g <= %g", static.Agg.SimTime, ref.Agg.SimTime)
	}

	cand, err := CandidateOf(set)
	if err != nil {
		t.Fatalf("CandidateOf: %v", err)
	}
	ctl, err := NewController(soakPolicy(), g, cfg, tune.ProfileFromModel(model), steps, cand)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Controller: ctl, Faults: fault.New(stragglerPlan(10)), MaxRestarts: 2})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if out.StepsDone != steps {
		t.Fatalf("rebalanced run completed %d of %d steps", out.StepsDone, steps)
	}
	if len(out.Migrations) == 0 {
		t.Fatalf("no migration under a 10x straggler (last ratio %.3f)", ctl.Snapshot().LastRatio)
	}
	for _, m := range out.Migrations {
		if m.PredictedGain <= m.Cost {
			t.Errorf("migration at step %d accepted without clearing its cost: gain %g <= cost %g",
				m.Step, m.PredictedGain, m.Cost)
		}
	}
	if want := 0.85 * static.Agg.SimTime; out.Agg.SimTime > want {
		t.Errorf("rebalanced SimTime %.4gs not >= 15%% faster than static %.4gs (want <= %.4gs; %d migrations)",
			out.Agg.SimTime, static.Agg.SimTime, want, len(out.Migrations))
	}
	if !refGl.Equal(checkpoint.Gather(g, out.Finals)) {
		t.Errorf("rebalanced finals not bitwise identical to the unperturbed reference")
	}
	t.Logf("static %.4gs, rebalanced %.4gs (%.1f%% faster), %d migration(s): %+v",
		static.Agg.SimTime, out.Agg.SimTime,
		100*(1-out.Agg.SimTime/static.Agg.SimTime), len(out.Migrations), out.Migrations)
}

// TestRebalanceUnderStragglerCA runs the same soak on the comm-avoiding
// scheme. A CA snapshot restores bitwise in its own layout, but a migration
// changes the rows each rank owns, and with them availY — the window the
// former smoothing may read before the exchange, hence where the
// former/latter split falls. The split is exact algebra in a different
// association, so layouts agree to rounding, as uninterrupted CA runs in
// different layouts already do; that is why this bound is not ==.
func TestRebalanceUnderStragglerCA(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 24
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 4, PB: 1, Cfg: cfg}
	model := comm.TianheLike()

	ref := dycore.Run(set, g, model, heldsuarez.InitialState, steps)

	cand, err := CandidateOf(set)
	if err != nil {
		t.Fatalf("CandidateOf: %v", err)
	}
	ctl, err := NewController(soakPolicy(), g, cfg, tune.ProfileFromModel(model), steps, cand)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Controller: ctl, Faults: fault.New(stragglerPlan(3)), MaxRestarts: 2})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if out.StepsDone != steps {
		t.Fatalf("rebalanced run completed %d of %d steps", out.StepsDone, steps)
	}
	if len(out.Migrations) == 0 {
		t.Fatalf("no migration under a 3x straggler (last ratio %.3f)", ctl.Snapshot().LastRatio)
	}
	scale := 0.0
	for _, v := range dycore.FlattenState(g, ref.Finals) {
		scale = math.Max(scale, math.Abs(v))
	}
	if d, tol := dycore.MaxDiffGlobal(g, ref.Finals, out.Finals), 1e-12*(1+scale); d > tol {
		t.Errorf("rebalanced CA finals diverged from reference: max diff %g > %g", d, tol)
	}
}

// TestNoImbalanceNoMigration pins the quiet path: without faults the
// controller must never migrate (the modeled polar-filter skew stays under
// the threshold) and the run must stay bitwise identical to a plain one.
func TestNoImbalanceNoMigration(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 16
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	model := comm.TianheLike()

	ref := dycore.Run(set, g, model, heldsuarez.InitialState, steps)

	cand, err := CandidateOf(set)
	if err != nil {
		t.Fatalf("CandidateOf: %v", err)
	}
	ctl, err := NewController(soakPolicy(), g, cfg, tune.ProfileFromModel(model), steps, cand)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Controller: ctl})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out.Migrations) != 0 {
		t.Fatalf("balanced run migrated: %+v (last ratio %.3f)", out.Migrations, ctl.Snapshot().LastRatio)
	}
	st := ctl.Snapshot()
	if st.Decisions != 0 {
		t.Errorf("balanced run reached the re-planner %d times (last ratio %.3f)", st.Decisions, st.LastRatio)
	}
	if !checkpoint.Gather(g, ref.Finals).Equal(checkpoint.Gather(g, out.Finals)) {
		t.Errorf("controlled run not bitwise identical to plain run")
	}
	if out.Agg.SimTime != ref.Agg.SimTime {
		t.Errorf("telemetry perturbed the simulated clock: %g != %g", out.Agg.SimTime, ref.Agg.SimTime)
	}
}

// TestRunWithoutControllerRestartsBitwise pins the loop every CLI mode and
// every service job runs through: no controller, a periodic snapshot cadence
// with a sink, and an injected crash that restarts from the latest snapshot —
// bitwise the uninterrupted run for both schemes, with the restart and every
// snapshot reported at absolute steps; then the service's half, a ShouldStop
// stop and a second Run that starts from its snapshot.
func TestRunWithoutControllerRestartsBitwise(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 5
	model := comm.TianheLike()
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		set := dycore.Setup{Alg: alg, PA: 2, PB: 2, Cfg: cfg}
		ref := dycore.Run(set, g, model, heldsuarez.InitialState, steps)
		var sunk []int
		out, err := Run(RunSpec{
			Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set,
			Faults:      fault.New(fault.Plan{Seed: 1, Crashes: []fault.Crash{{Rank: 1, Step: 3}}}),
			MaxRestarts: 1, SnapshotEvery: 2,
			Snapshot: func(step int, gl *checkpoint.Global) { sunk = append(sunk, step) },
		})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if len(out.Restarts) != 1 || out.Restarts[0].Failure.Step != 3 || out.Restarts[0].From != 2 {
			t.Errorf("%v: restarts %+v, want one crash after step 3 resumed from step 2", alg, out.Restarts)
		}
		if want := []int{2, 4}; len(sunk) != 2 || sunk[0] != want[0] || sunk[1] != want[1] {
			t.Errorf("%v: sink saw snapshots at %v, want %v", alg, sunk, want)
		}
		if out.StepsDone != steps || !checkpoint.Gather(g, ref.Finals).Equal(checkpoint.Gather(g, out.Finals)) {
			t.Errorf("%v: restarted run (%d steps) not bitwise the uninterrupted one: max diff %g",
				alg, out.StepsDone, dycore.MaxDiffGlobal(g, ref.Finals, out.Finals))
		}

		// Stop at step k: a nil error, the outcome so far and a snapshot at
		// exactly k; a second Run that starts there finishes bitwise, and
		// Progress reports every absolute step once across the two.
		const k = 3
		var seen []int
		var snap *checkpoint.Global
		snapStep := -1
		stopped := RunSpec{
			Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set,
			Progress:   func(step int) { seen = append(seen, step) },
			ShouldStop: func() bool { return len(seen) == k },
			Snapshot:   func(step int, gl *checkpoint.Global) { snapStep, snap = step, gl },
		}
		out, err = Run(stopped)
		if err != nil || out.StepsDone != k || snapStep != k {
			t.Fatalf("%v: stopped run: err %v, StepsDone %d, snapshot at %d; want nil, %d, %d", alg, err, out.StepsDone, snapStep, k, k)
		}
		resumed := stopped
		resumed.Init, resumed.Start, resumed.ShouldStop = snap.InitFunc(), k, nil
		out, err = Run(resumed)
		if err != nil || out.StepsDone != steps || !checkpoint.Gather(g, ref.Finals).Equal(checkpoint.Gather(g, out.Finals)) {
			t.Errorf("%v: run resumed at step %d: err %v, %d steps, max diff %g from the uninterrupted one",
				alg, k, err, out.StepsDone, dycore.MaxDiffGlobal(g, ref.Finals, out.Finals))
		}
		if want := []int{1, 2, 3, 4, 5}; !reflect.DeepEqual(seen, want) {
			t.Errorf("%v: Progress saw steps %v across both runs, want %v", alg, seen, want)
		}
	}
	// A second crash with the budget spent is the typed failure, not a loop.
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg}
	_, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set,
		Faults: fault.New(fault.Plan{Seed: 1, Crashes: []fault.Crash{{Rank: 0, Step: 1, Count: 2}}}), MaxRestarts: 1})
	var fail *dycore.RankFailure
	if !errors.As(err, &fail) || fail.Rank != 0 || fail.Step != 1 {
		t.Errorf("restart budget 1 and two crashes: error %v, want one wrapping the second RankFailure", err)
	}
}

// TestPolicyValidate is the table of rejected policies.
func TestPolicyValidate(t *testing.T) {
	cases := []struct {
		name string
		p    Policy
		ok   bool
	}{
		{"zero is default", Policy{}, true},
		{"full explicit", Policy{Window: 8, Threshold: 2, Patience: 1, Cooldown: 3, Smoothing: 0.3, MinGain: 2, MaxMigrations: 1}, true},
		{"negative window", Policy{Window: -1}, false},
		{"threshold below one", Policy{Threshold: 0.9}, false},
		{"threshold exactly one", Policy{Threshold: 1}, false},
		{"negative threshold", Policy{Threshold: -2}, false},
		{"negative patience", Policy{Patience: -1}, false},
		{"negative cooldown", Policy{Cooldown: -3}, false},
		{"smoothing above one", Policy{Smoothing: 1.5}, false},
		{"negative smoothing", Policy{Smoothing: -0.1}, false},
		{"negative min gain", Policy{MinGain: -1}, false},
		{"negative max migrations", Policy{MaxMigrations: -1}, false},
	}
	for _, tc := range cases {
		err := tc.p.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: validation passed, want error", tc.name)
		}
	}
}

// TestHysteresis drives the observe path with synthetic telemetry: an
// imbalanced window must not trigger re-planning until Patience consecutive
// windows agree.
func TestHysteresis(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	cand := tune.Candidate{Scheme: tune.SchemeYZ, PA: 4, PB: 1, M: 2, Workers: 1}
	pol := Policy{Window: 2, Patience: 2, Cooldown: 1}
	ctl, err := NewController(pol, g, cfg, tune.DefaultProfile(), 100, cand)
	if err != nil {
		t.Fatalf("NewController: %v", err)
	}
	hook := ctl.Hook(0)

	// Cumulative per-rank compute with rank 3 running 3x slow.
	comp := make([]float64, 4)
	clock := make([]float64, 4)
	feed := func(step int) bool {
		for i := range comp {
			comp[i] = float64(step) * 1e-3
		}
		comp[3] = float64(step) * 3e-3
		return hook(step, clock, comp)
	}
	for step := 1; step <= 3; step++ {
		if feed(step) {
			t.Fatalf("stopped at boundary %d, before patience (2 windows) was met", step)
		}
	}
	if d := ctl.Snapshot().Decisions; d != 0 {
		t.Fatalf("re-planner reached after one imbalanced window (decisions = %d)", d)
	}
	if !feed(4) {
		t.Fatalf("no stop at boundary 4 after two imbalanced windows (last ratio %.3f, decisions %d)",
			ctl.Snapshot().LastRatio, ctl.Snapshot().Decisions)
	}
	if d := ctl.Snapshot().Decisions; d != 1 {
		t.Fatalf("decisions = %d after the stop, want 1", d)
	}
	plan, mig := ctl.TakePending()
	if plan == nil {
		t.Fatalf("no pending plan after a rebalance stop")
	}
	if mig.Step != 4 || mig.From == mig.To {
		t.Errorf("bad migration record: %+v", mig)
	}
	if got := ctl.Candidate().Key(); got != mig.To {
		t.Errorf("controller candidate %q did not switch to plan %q", got, mig.To)
	}
}

// TestRatedRowStarts pins the rated partition DP on hand-checkable cases.
func TestRatedRowStarts(t *testing.T) {
	uniform := func(n int) []float64 {
		w := make([]float64, n)
		for i := range w {
			w[i] = 1
		}
		return w
	}
	// Equal rates must reproduce the balanced split.
	got := tune.RatedRowStarts(uniform(8), []float64{1, 1}, 2)
	want := []int{0, 4, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("equal rates: got %v, want %v", got, want)
		}
	}
	// A 3x-slow second column should keep only its minimum rows: cost is
	// max(1*w0, 3*w1); w1 = 2 rows gives max(6, 6) — the optimum.
	got = tune.RatedRowStarts(uniform(8), []float64{1, 3}, 2)
	want = []int{0, 6, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("3x column: got %v, want %v", got, want)
		}
	}
	// The result must respect minRows even when rates say otherwise.
	got = tune.RatedRowStarts(uniform(6), []float64{1, 100}, 2)
	if got[1] != 4 {
		t.Fatalf("minRows violated: %v", got)
	}
}

// TestEvaluateWithRatesFallback: a rate vector of the wrong length must not
// change the estimate (it falls back to the unrated Evaluate).
func TestEvaluateWithRatesFallback(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	prof := tune.DefaultProfile()
	c := tune.Candidate{Scheme: tune.SchemeYZ, PA: 4, PB: 1, M: 2, Workers: 1}
	plain := tune.Evaluate(g, cfg, prof, c)
	if got := tune.EvaluateWithRates(g, cfg, prof, c, nil); got.Total != plain.Total {
		t.Errorf("nil rates: %g != %g", got.Total, plain.Total)
	}
	if got := tune.EvaluateWithRates(g, cfg, prof, c, []float64{1, 2}); got.Total != plain.Total {
		t.Errorf("short rates: %g != %g", got.Total, plain.Total)
	}
	// Uniform rates of 1 must match exactly; a slowdown must increase it.
	ones := []float64{1, 1, 1, 1}
	if got := tune.EvaluateWithRates(g, cfg, prof, c, ones); got.Total != plain.Total {
		t.Errorf("unit rates: %g != %g", got.Total, plain.Total)
	}
	slow := []float64{1, 1, 1, 3}
	if got := tune.EvaluateWithRates(g, cfg, prof, c, slow); got.Total <= plain.Total {
		t.Errorf("slowdown did not raise the estimate: %g <= %g", got.Total, plain.Total)
	}
}
