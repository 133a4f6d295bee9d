package balance

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/tune"
)

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

	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Setup: set, Rebalance: true, Faults: fault.New(stragglerPlan(10)), MaxRestarts: 2})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if out.StepsDone != steps {
		t.Fatalf("rebalanced run completed %d of %d steps", out.StepsDone, steps)
	}
	if len(out.Migrations) == 0 {
		t.Fatalf("no migration under a 10x straggler (last ratio %.3f)", out.Rebalance.LastRatio)
	}
	for _, m := range out.Migrations {
		if m.PredictedGain <= m.Cost {
			t.Errorf("migration at step %d accepted without clearing its cost: gain %g <= cost %g",
				m.Step, m.PredictedGain, m.Cost)
		}
	}
	checkPredictedGain(t, static.Agg.SimTime, out)
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

// checkPredictedGain requires the piloted gains of a run's migrations to be
// within 10% of the saving the run realized against its static twin:
// static − (rebalanced − Σ migration cost).
func checkPredictedGain(t *testing.T, static float64, out Outcome) {
	t.Helper()
	predicted, cost := 0.0, 0.0
	for _, m := range out.Migrations {
		predicted += m.PredictedGain
		cost += m.Cost
	}
	realized := static - (out.Agg.SimTime - cost)
	if math.Abs(predicted-realized) > 0.1*math.Abs(realized) {
		t.Errorf("predicted gain %.4gs not within 10%% of the realized saving %.4gs (%+v)",
			predicted, realized, out.Migrations)
	}
}

// TestRebalanceFaultFreeCA: an unperturbed CA 4x2 run trips the raw
// detector (the layout's own ghost and filter skew), and the piloted re-plan
// must pay: it moves to the uniform ca-8x1-m3 (the stage depth is pinned),
// the rebalanced run is no slower than the static one, its predicted gain
// is the one it realizes, and its finals are bitwise the static run's (every
// layout is bitwise the 1x1 one). A re-plan priced by anything other than the clock moved this
// run to weighted rows and predicted 1.6x the saving it realized. The mesh
// is 48x24x8; 96x48x12 makes the same choice.
func TestRebalanceFaultFreeCA(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.Dt1, cfg.Dt2 = 20, 120
	const steps = 40
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 4, PB: 2, Cfg: cfg}
	model := comm.TianheLike()

	static := dycore.Run(set, g, model, heldsuarez.InitialState, steps)
	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Setup: set, Rebalance: true})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if len(out.Migrations) != 1 || out.Migrations[0].To != "ca-8x1-m3" {
		t.Errorf("migrations %+v, want one to ca-8x1-m3", out.Migrations)
	}
	if out.Agg.SimTime > static.Agg.SimTime {
		t.Errorf("rebalanced SimTime %.4gs above static %.4gs", out.Agg.SimTime, static.Agg.SimTime)
	}
	checkPredictedGain(t, static.Agg.SimTime, out)
	if d := dycore.MaxDiffGlobal(g, static.Finals, out.Finals); d != 0 {
		t.Errorf("rebalanced CA finals diverged from the static run: max diff %g, want bitwise", d)
	}
	t.Logf("static %.4gs, rebalanced %.4gs, %+v, %+v", static.Agg.SimTime, out.Agg.SimTime, out.Rebalance, out.Migrations)
}

// TestRebalanceMildStragglerYZ: a 3x straggler on yz 4x1 trips the detector
// again and again, but under the clock no re-plan pays for its migration
// over the rest of the run; whatever the controller does, the rebalanced run
// must not be slower than the static one.
func TestRebalanceMildStragglerYZ(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 100
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	model := comm.TianheLike()

	static, _ := dycore.RunWithOpts(set, g, model, heldsuarez.InitialState, steps, dycore.RunOpts{
		Faults: fault.New(stragglerPlan(3)).CommFaults(set.Procs()),
	})
	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Setup: set, Rebalance: true, Faults: fault.New(stragglerPlan(3))})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if out.Agg.SimTime > static.Agg.SimTime {
		t.Errorf("rebalanced SimTime %.4gs above static %.4gs (%+v)", out.Agg.SimTime, static.Agg.SimTime, out.Migrations)
	}
	if out.Rebalance.Decisions == 0 {
		t.Errorf("a 3x straggler never reached the re-planner (last ratio %.3f)", out.Rebalance.LastRatio)
	}
	t.Logf("static %.4gs, rebalanced %.4gs, %+v, %+v", static.Agg.SimTime, out.Agg.SimTime, out.Rebalance, out.Migrations)
}

// TestRebalanceUnderStragglerCA runs the same soak on the comm-avoiding
// scheme. A migration changes the rows each rank owns, and with them which
// rows the former smoothing applies P2 to before the exchange (cover.s1) and
// which the latter one after it; both apply the full P2 to whole rows, so
// the rebalanced run ends bitwise where the static one does.
func TestRebalanceUnderStragglerCA(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 24
	set := dycore.Setup{Alg: dycore.AlgCommAvoid, PA: 4, PB: 1, Cfg: cfg}
	model := comm.TianheLike()

	ref := dycore.Run(set, g, model, heldsuarez.InitialState, steps)

	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps,
		Setup: set, Rebalance: true, Faults: fault.New(stragglerPlan(3)), MaxRestarts: 2})
	if err != nil {
		t.Fatalf("rebalanced run: %v", err)
	}
	if out.StepsDone != steps {
		t.Fatalf("rebalanced run completed %d of %d steps", out.StepsDone, steps)
	}
	if len(out.Migrations) == 0 {
		t.Fatalf("no migration under a 3x straggler (last ratio %.3f)", out.Rebalance.LastRatio)
	}
	if d := dycore.MaxDiffGlobal(g, ref.Finals, out.Finals); d != 0 {
		t.Errorf("rebalanced CA finals diverged from reference: max diff %g, want bitwise", d)
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

	out, err := Run(RunSpec{Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set, Rebalance: true})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(out.Migrations) != 0 {
		t.Fatalf("balanced run migrated: %+v (last ratio %.3f)", out.Migrations, out.Rebalance.LastRatio)
	}
	st := out.Rebalance
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
// with a sink, and an injected crash that restarts from the latest snapshot,
// with the restart and every snapshot reported at absolute steps; then the
// service's half, a ShouldStop stop and a second Run that starts from its
// snapshot. That both end bitwise where the uninterrupted run ends is the
// dycore schedule oracle's, whose crash-restart and resumed cells run
// through Run.
func TestRunWithoutControllerRestartsBitwise(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 5
	model := comm.TianheLike()
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		set := dycore.Setup{Alg: alg, PA: 2, PB: 2, Cfg: cfg}
		var sunk []int
		out, err := Run(RunSpec{
			Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set,
			Faults:      fault.New(fault.Plan{Seed: 1, Crashes: []fault.Crash{{Rank: 1, Step: 3}}}),
			MaxRestarts: 1, SnapshotEvery: 2,
			Snapshot: func(step int, _ *checkpoint.Global, _ comm.Aggregate, _ dycore.Counters) { sunk = append(sunk, step) },
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
		if out.StepsDone != steps {
			t.Errorf("%v: restarted run did %d steps, want %d", alg, out.StepsDone, steps)
		}

		// Stop at step k: a nil error, the outcome so far and a snapshot at
		// exactly k, which carries the counts up to k; a second Run that
		// starts there finishes, and Progress reports every absolute step
		// once across the two.
		const k = 3
		var seen []int
		var snap *checkpoint.Global
		var snapCount dycore.Counters
		snapStep := -1
		stopped := RunSpec{
			Grid: g, Model: model, Init: heldsuarez.InitialState, Steps: steps, Setup: set,
			Progress:   func(step int) { seen = append(seen, step) },
			ShouldStop: func() bool { return len(seen) == k },
			Snapshot: func(step int, gl *checkpoint.Global, _ comm.Aggregate, count dycore.Counters) {
				snapStep, snap, snapCount = step, gl, count
			},
		}
		out, err = Run(stopped)
		if err != nil || out.StepsDone != k || snapStep != k {
			t.Fatalf("%v: stopped run: err %v, StepsDone %d, snapshot at %d; want nil, %d, %d", alg, err, out.StepsDone, snapStep, k, k)
		}
		// A comm-avoiding stop also finalizes its states (the pending
		// smoothing), which the snapshot leaves to the resumed run.
		if snapCount.Steps != k || alg == dycore.AlgBaselineYZ && snapCount != out.Count {
			t.Errorf("%v: snapshot at step %d carries counts %+v, the stopped run %+v", alg, k, snapCount, out.Count)
		}
		resumed := stopped
		resumed.Init, resumed.Start, resumed.ShouldStop = snap.InitFunc(), k, nil
		out, err = Run(resumed)
		if err != nil || out.StepsDone != steps {
			t.Errorf("%v: run resumed at step %d: err %v, %d steps, want %d", alg, k, err, out.StepsDone, steps)
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

// TestNoSnapshotWhereTheRunCompletes: the periodic cadence skips the
// boundary where the run completes, whose state the caller saves from
// Outcome.Finals, while a stop there still snapshots it.
func TestNoSnapshotWhereTheRunCompletes(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	const steps = 4
	for _, stopAtEnd := range []bool{false, true} {
		var sunk []int
		spec := RunSpec{
			Grid: g, Model: comm.TianheLike(), Init: heldsuarez.InitialState, Steps: steps,
			Setup:         dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg},
			SnapshotEvery: 2,
			Snapshot:      func(step int, _ *checkpoint.Global, _ comm.Aggregate, _ dycore.Counters) { sunk = append(sunk, step) },
		}
		want := []int{2}
		if stopAtEnd {
			done := 0
			spec.Progress = func(step int) { done = step }
			spec.ShouldStop = func() bool { return done == steps }
			want = []int{2, steps}
		}
		out, err := Run(spec)
		if err != nil || out.StepsDone != steps || !reflect.DeepEqual(sunk, want) {
			t.Errorf("stop at the end %v: err %v, %d steps, snapshots at %v; want nil, %d, %v",
				stopAtEnd, err, out.StepsDone, sunk, steps, want)
		}
	}
}

// TestHysteresis drives the observe path with synthetic telemetry: an
// imbalanced window must not trigger re-planning until patience consecutive
// windows agree. The straggler is 10x, so the piloted re-plan clears the
// migration cost and the stop is staged.
func TestHysteresis(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	ctl, err := newController(g, tune.DefaultProfile(), 100, set)
	if err != nil {
		t.Fatalf("newController: %v", err)
	}
	observe := ctl.hook(0)

	// Cumulative per-rank compute with rank 3 running 10x slow.
	comp := make([]float64, 4)
	feed := func(step int) bool {
		for i := range comp {
			comp[i] = float64(step) * 1e-3
		}
		comp[3] = float64(step) * 10e-3
		return observe(step, comp)
	}
	const stop = patience * window
	for step := 1; step < stop; step++ {
		if feed(step) {
			t.Fatalf("stopped at boundary %d, before patience (%d windows of %d steps) was met", step, patience, window)
		}
	}
	if d := ctl.stats().Decisions; d != 0 {
		t.Fatalf("re-planner reached before %d imbalanced windows (decisions = %d)", patience, d)
	}
	if !feed(stop) {
		t.Fatalf("no stop at boundary %d after %d imbalanced windows (last ratio %.3f, decisions %d)",
			stop, patience, ctl.stats().LastRatio, ctl.stats().Decisions)
	}
	if d := ctl.stats().Decisions; d != 1 {
		t.Fatalf("decisions = %d after the stop, want 1", d)
	}
	plan, mig := ctl.takePending()
	if plan == nil {
		t.Fatalf("no pending plan after a rebalance stop")
	}
	if mig.Step != stop || mig.From == mig.To {
		t.Errorf("bad migration record: %+v", mig)
	}
	if got := tune.Key(ctl.setup()); got != mig.To {
		t.Errorf("controller candidate %q did not switch to plan %q", got, mig.To)
	}
}

// TestRejectedRatesSkipPilots: once the pilots have turned a decision down,
// a decision under the same rates is turned down without piloting again —
// even one the pilots would accept, which only a changed remaining-step
// count can produce; the test arranges that by calling decide directly.
func TestRejectedRatesSkipPilots(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	set := dycore.Setup{Alg: dycore.AlgBaselineYZ, PA: 4, PB: 1, Cfg: cfg}
	ctl, err := newController(g, tune.DefaultProfile(), 100, set)
	if err != nil {
		t.Fatalf("newController: %v", err)
	}
	observe := ctl.hook(0)
	comp := make([]float64, 4)
	for step := 1; step < patience*window; step++ { // one window of telemetry, no decision
		for i := range comp {
			comp[i] = float64(step) * 1e-3
		}
		comp[3] = float64(step) * 10e-3
		observe(step, comp)
	}

	ctl.mu.Lock()
	defer ctl.mu.Unlock()
	if ctl.decide(ctl.steps) || ctl.rejected == nil {
		t.Fatalf("a decision with no steps left was not rejected by its pilots")
	}
	if ctl.decide(8) || ctl.pending != nil || ctl.skipped != 2 {
		t.Fatalf("same rates re-decided: pending %v, skipped %d", ctl.pending, ctl.skipped)
	}
	ctl.rejected = nil
	if !ctl.decide(8) {
		t.Fatalf("the pilots reject a 10x straggler with 92 steps left; the skip above proves nothing")
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

// TestNewControllerRejectsUnplannable: only the planner's schemes can be
// re-planned; a rebalanced run that starts in X-Y or 3-D is an error before
// any step runs.
func TestNewControllerRejectsUnplannable(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	for _, set := range []dycore.Setup{
		{Alg: dycore.AlgBaselineXY, PA: 2, PB: 2, Cfg: cfg},
		{Alg: dycore.AlgBaseline3D, PA: 1, PB: 2, PC: 2, Cfg: cfg},
	} {
		out, err := Run(RunSpec{Grid: g, Model: comm.TianheLike(), Init: heldsuarez.InitialState, Steps: 8,
			Setup: set, Rebalance: true})
		if err == nil || !strings.Contains(err.Error(), "is not rebalanceable") || out.StepsDone != 0 {
			t.Errorf("%s: error %v after %d steps, want \"is not rebalanceable\" after 0", set.Alg, err, out.StepsDone)
		}
	}
}
