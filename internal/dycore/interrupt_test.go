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
// snapshots its barrier took, keyed by completed steps: one every `every`-th
// boundary (0: none) and, when stop is set, one at the first boundary, which
// ends the run. crashAt is RunOpts.CrashAt.
func segment(set dycore.Setup, g *grid.Grid, hook dycore.StepHook, init dycore.InitFunc, steps, every int,
	stop bool, crashAt func(rank, done int) bool) (dycore.RunResult, map[int]*checkpoint.Global) {
	snaps := map[int]*checkpoint.Global{}
	opts := dycore.RunOpts{Hook: hook, CrashAt: crashAt}
	if stop || every > 0 {
		opts.Boundary = func(done int, sts []*state.State, _ []float64, _ dycore.Tally) bool {
			if stop || done%every == 0 {
				snaps[done] = checkpoint.Gather(g, sts)
			}
			return stop
		}
	}
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
			res, snaps := segment(set, g, hook, init, oracleSteps-done, 0, true, nil)
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
		res, snaps := segment(set, g, hook, heldsuarez.InitialState, oracleSteps, 2, false,
			func(rank, done int) bool { return rank == 1 && done == 3 })
		if res.Abort == nil || snaps[2] == nil || snaps[4] != nil {
			t.Fatalf("want a crash after step 3 with only the step-2 snapshot; abort %v", res.Abort)
		}
		res, _ = segment(set, g, hook, snaps[2].InitFunc(), oracleSteps-2, 0, false, nil)
		return res.Finals
	}},
	{"snapshot-write-read-resume", func(t *testing.T, set dycore.Setup, g *grid.Grid, hook dycore.StepHook) []*state.State {
		_, snaps := segment(set, g, hook, heldsuarez.InitialState, 2, 2, false, nil)
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
		res, _ := segment(set, g, hook, back.InitFunc(), oracleSteps-2, 0, false, nil)
		return res.Finals
	}},
}

// layoutChanges are the re-partitions a snapshot taken at a boundary in one
// layout is resumed under: the oracle's 2×2 changes p_y, p_z (both ways) or
// its row partition.
var layoutChanges = []struct {
	name     string
	from, to func(*dycore.Setup)
}{
	{"py-2-to-4", func(*dycore.Setup) {}, func(s *dycore.Setup) { s.PA = 4 }},
	{"pz-2-to-1", func(*dycore.Setup) {}, func(s *dycore.Setup) { s.PB = 1 }},
	{"pz-1-to-2", func(s *dycore.Setup) { s.PB = 1 }, func(*dycore.Setup) {}},
	{"uniform-to-weighted-rows", func(*dycore.Setup) {}, func(s *dycore.Setup) { s.RowStarts = []int{0, 9, 24} }},
}

// TestInterruptionOracle is the one statement of restart exactness: for
// every scheme variant and every interruption schedule, the interrupted run
// ends bitwise where the uninterrupted one does — ξ and the carried Ĉ alike.
// No caller passes a "this is a resume" hint; the snapshot says it all. A
// snapshot resumed in another layout (layoutChanges) ends bitwise where the
// uninterrupted 1×1 run does: a checkpoint is global-indexed, and every
// layout is bitwise the 1×1 one.
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
		serial := set
		serial.PA, serial.PB = 1, 1
		want1 := checkpoint.Gather(g, dycore.RunWithHook(serial, g, comm.TianheLike(), heldsuarez.InitialState, oracleSteps, hook).Finals)
		for _, lc := range layoutChanges {
			t.Run(sc.name+"/cross-layout-"+lc.name, func(t *testing.T) {
				from, to := set, set
				lc.from(&from)
				lc.to(&to)
				_, snaps := segment(from, g, hook, heldsuarez.InitialState, 2, 2, false, nil)
				got, _ := segment(to, g, hook, snaps[2].InitFunc(), oracleSteps-2, 0, false, nil)
				if !checkpoint.Gather(g, got.Finals).Equal(want1) {
					t.Errorf("resumed in another layout, the run differs from the uninterrupted 1x1 run: max|Δξ| = %g, want bitwise",
						dycore.MaxDiffGlobal(g, full.Finals, got.Finals))
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
	// is already smoothed. Both schemes continue it bitwise: CA's
	// uninterrupted run applies that smoothing as the former/latter split,
	// which is bitwise the full sweep Finalize applied.
	yzHalf := checkpoint.Gather(g, run(dycore.AlgBaselineYZ, heldsuarez.InitialState, 2).Finals)
	if d := dycore.MaxDiffGlobal(g, yzFull.Finals, run(dycore.AlgBaselineYZ, yzHalf.InitFunc(), oracleSteps-2).Finals); d != 0 {
		t.Errorf("yz continued from a finalized checkpoint: max|Δξ| = %g, want bitwise", d)
	}
	caHalf := checkpoint.Gather(g, run(dycore.AlgCommAvoid, heldsuarez.InitialState, 2).Finals)
	if caHalf.PendingSmooth || caHalf.PWI == nil {
		t.Fatalf("finalized CA checkpoint: pending %v, Ĉ carried %v; want false, true", caHalf.PendingSmooth, caHalf.PWI != nil)
	}
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, run(dycore.AlgCommAvoid, caHalf.InitFunc(), oracleSteps-2).Finals); d != 0 {
		t.Errorf("ca continued from a finalized checkpoint: max|Δξ| = %g, want bitwise", d)
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
	_, snaps := segment(set, g, hook, heldsuarez.InitialState, 2, 2, false, nil)
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
