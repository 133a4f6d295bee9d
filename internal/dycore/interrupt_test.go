package dycore_test

import (
	"bytes"
	"math"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

const oracleSteps = 5

// oracleScheme is one row of the interruption oracle: ctlSetup's 48×24×8
// 2×2 M=2 Held–Suarez run under one scheme variant.
type oracleScheme struct {
	name string
	alg  dycore.Algorithm
	mod  func(*dycore.Config)
}

var oracleSchemes = []oracleScheme{
	{"yz", dycore.AlgBaselineYZ, nil},
	{"ca", dycore.AlgCommAvoid, nil},
	{"ca-stage1", dycore.AlgCommAvoid, func(c *dycore.Config) { c.StageM = 1 }},
	{"ca-workers2", dycore.AlgCommAvoid, func(c *dycore.Config) { c.Workers = 2 }},
	{"ca-nofuse", dycore.AlgCommAvoid, func(c *dycore.Config) { c.NoFusedSmoothing = true }},
	{"ca-exactc", dycore.AlgCommAvoid, func(c *dycore.Config) { c.ExactC = true }},
}

func (s oracleScheme) setup() (dycore.Setup, *grid.Grid, dycore.StepHook) {
	set, g, hook := ctlSetup(s.alg)
	if s.mod != nil {
		s.mod(&set.Cfg)
	}
	return set, g, hook
}

// segment runs up to `steps` steps from init and returns the result plus the
// snapshots the run's barrier produced, keyed by completed steps.
func segment(set dycore.Setup, g *grid.Grid, hook dycore.StepHook, init dycore.InitFunc, steps int,
	opts dycore.RunOpts) (dycore.RunResult, map[int]*checkpoint.Global) {
	snaps := map[int]*checkpoint.Global{}
	opts.Hook = hook
	opts.Snapshot = func(done int, sts []*state.State) { snaps[done] = checkpoint.Gather(g, sts) }
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), init, steps, opts)
	return res, snaps
}

// interruptions are the schedules every scheme must survive bitwise: each
// returns the final states of an oracleSteps-step run that was interrupted
// and continued in the same layout.
var interruptions = []struct {
	name string
	run  func(t *testing.T, set dycore.Setup, g *grid.Grid, hook dycore.StepHook) []*state.State
}{
	{"stop-resume-every-boundary", func(t *testing.T, set dycore.Setup, g *grid.Grid, hook dycore.StepHook) []*state.State {
		init := dycore.InitFunc(heldsuarez.InitialState)
		for done := 0; ; done++ {
			res, snaps := segment(set, g, hook, init, oracleSteps-done, dycore.RunOpts{
				ShouldStop: func() bool { return true },
			})
			if res.StepsDone != 1 || snaps[1] == nil {
				t.Fatalf("segment at step %d: StepsDone %d, stop snapshot present %v", done, res.StepsDone, snaps[1] != nil)
			}
			if done+1 == oracleSteps {
				return res.Finals
			}
			init = snaps[1].InitFunc()
		}
	}},
	{"crash-restart-from-snapshot", func(t *testing.T, set dycore.Setup, g *grid.Grid, hook dycore.StepHook) []*state.State {
		res, snaps := segment(set, g, hook, heldsuarez.InitialState, oracleSteps, dycore.RunOpts{
			SnapshotEvery: 2,
			CrashAt:       func(rank, done int) bool { return rank == 1 && done == 3 },
		})
		if res.Abort == nil || snaps[2] == nil || snaps[4] != nil {
			t.Fatalf("want a crash after step 3 with only the step-2 snapshot; abort %v", res.Abort)
		}
		res, _ = segment(set, g, hook, snaps[2].InitFunc(), oracleSteps-2, dycore.RunOpts{})
		return res.Finals
	}},
	{"snapshot-write-read-resume", func(t *testing.T, set dycore.Setup, g *grid.Grid, hook dycore.StepHook) []*state.State {
		_, snaps := segment(set, g, hook, heldsuarez.InitialState, 2, dycore.RunOpts{SnapshotEvery: 2})
		var buf bytes.Buffer
		if err := snaps[2].Write(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := checkpoint.Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !back.Equal(snaps[2]) {
			t.Fatal("serialized snapshot does not read back bitwise")
		}
		res, _ := segment(set, g, hook, back.InitFunc(), oracleSteps-2, dycore.RunOpts{})
		return res.Finals
	}},
}

// TestInterruptionOracle is the one statement of restart exactness: for
// every scheme variant and every interruption schedule, the interrupted run
// ends bitwise where the uninterrupted one does — ξ and the carried Ĉ alike.
// No caller passes a "this is a resume" hint; the snapshot says it all.
func TestInterruptionOracle(t *testing.T) {
	for _, sc := range oracleSchemes {
		set, g, hook := sc.setup()
		full := dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, oracleSteps, hook)
		want := checkpoint.Gather(g, full.Finals)
		for _, in := range interruptions {
			t.Run(sc.name+"/"+in.name, func(t *testing.T) {
				got := in.run(t, set, g, hook)
				if !checkpoint.Gather(g, got).Equal(want) {
					t.Errorf("interrupted run differs from the uninterrupted one: max|Δξ| = %g, want bitwise",
						dycore.MaxDiffGlobal(g, full.Finals, got))
				}
			})
		}
	}
}

// TestResumeAcrossSnapshotKinds covers the inputs the retired Resume flag got
// wrong by 2.6e-3: snapshots that do not owe a smoothing.
func TestResumeAcrossSnapshotKinds(t *testing.T) {
	run := func(alg dycore.Algorithm, init dycore.InitFunc, steps int) dycore.RunResult {
		set, g, hook := ctlSetup(alg)
		return dycore.RunWithHook(set, g, comm.TianheLike(), init, steps, hook)
	}
	_, g, _ := ctlSetup(dycore.AlgCommAvoid)
	scale := 0.0
	yzFull := run(dycore.AlgBaselineYZ, heldsuarez.InitialState, oracleSteps)
	caFull := run(dycore.AlgCommAvoid, heldsuarez.InitialState, oracleSteps)
	for _, v := range dycore.FlattenState(g, caFull.Finals) {
		scale = math.Max(scale, math.Abs(v))
	}

	// A finalized checkpoint (what `dycore -save` and a completed job write)
	// is already smoothed. The baseline continues it bitwise; CA continues it
	// to rounding — its uninterrupted run would have applied that smoothing
	// as the former/latter split, which differs from the full sweep in
	// association only.
	yzHalf := checkpoint.Gather(g, run(dycore.AlgBaselineYZ, heldsuarez.InitialState, 2).Finals)
	if d := dycore.MaxDiffGlobal(g, yzFull.Finals, run(dycore.AlgBaselineYZ, yzHalf.InitFunc(), oracleSteps-2).Finals); d != 0 {
		t.Errorf("yz continued from a finalized checkpoint: max|Δξ| = %g, want bitwise", d)
	}
	caHalf := checkpoint.Gather(g, run(dycore.AlgCommAvoid, heldsuarez.InitialState, 2).Finals)
	if caHalf.PendingSmooth || caHalf.PWI == nil {
		t.Fatalf("finalized CA checkpoint: pending %v, Ĉ carried %v; want false, true", caHalf.PendingSmooth, caHalf.PWI != nil)
	}
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, run(dycore.AlgCommAvoid, caHalf.InitFunc(), oracleSteps-2).Finals); d > 1e-12*(1+scale) {
		t.Errorf("ca continued from a finalized checkpoint: max|Δξ| = %g, want <= %g", d, 1e-12*(1+scale))
	}

	// Crossing schemes changes the algorithm, not the trajectory's phase:
	// the result stays within the distance between the two schemes' own
	// uninterrupted runs (2.8e-6 relative here; the flag's error was 2.6e-3).
	between := dycore.MaxDiffGlobal(g, yzFull.Finals, caFull.Finals)
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, run(dycore.AlgCommAvoid, yzHalf.InitFunc(), oracleSteps-2).Finals); d > between {
		t.Errorf("yz snapshot continued by ca: max|Δξ| = %g, want <= yz-vs-ca distance %g", d, between)
	}
	// The reverse hand-over must settle the smoothing a CA barrier snapshot
	// still owes, which the baseline cannot defer.
	set, _, hook := ctlSetup(dycore.AlgCommAvoid)
	_, snaps := segment(set, g, hook, heldsuarez.InitialState, 2, dycore.RunOpts{SnapshotEvery: 2})
	if !snaps[2].PendingSmooth {
		t.Fatal("CA barrier snapshot does not record its pending smoothing")
	}
	if d := dycore.MaxDiffGlobal(g, yzFull.Finals, run(dycore.AlgBaselineYZ, snaps[2].InitFunc(), oracleSteps-2).Finals); d > between {
		t.Errorf("ca barrier snapshot continued by yz: max|Δξ| = %g, want <= yz-vs-ca distance %g", d, between)
	}
	// The no-fuse ablation pays a restored debt through the fused path of its
	// first step. It smooths before the step hook, the fused scheme after
	// it, so even their uninterrupted runs differ — by that distance, not by
	// a dropped smoothing (1e3 times more).
	set.Cfg.NoFusedSmoothing = true
	nofuse := func(init dycore.InitFunc, steps int) []*state.State {
		return dycore.RunWithHook(set, g, comm.TianheLike(), init, steps, hook).Finals
	}
	fuseGap := dycore.MaxDiffGlobal(g, caFull.Finals, nofuse(heldsuarez.InitialState, oracleSteps))
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, nofuse(snaps[2].InitFunc(), oracleSteps-2)); d > fuseGap {
		t.Errorf("ca barrier snapshot continued by ca-nofuse: max|Δξ| = %g, want <= fused-vs-nofuse distance %g", d, fuseGap)
	}
	t.Logf("max|ξ| = %.4g, yz-vs-ca distance %.3g", scale, between)
}
