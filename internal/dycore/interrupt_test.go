package dycore_test

import (
	"math"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// TestResumeAcrossSnapshotKinds covers the inputs the retired Resume flag got
// wrong by 2.6e-3: snapshots that do not owe a smoothing.
func TestResumeAcrossSnapshotKinds(t *testing.T) {
	const steps = 5
	run := func(alg dycore.Algorithm, init dycore.InitFunc, steps int) dycore.RunResult {
		set, g, hook := ctlSetup(alg)
		return dycore.RunWithHook(set, g, comm.TianheLike(), init, steps, hook)
	}
	_, g, _ := ctlSetup(dycore.AlgCommAvoid)
	scale := 0.0
	yzFull := run(dycore.AlgBaselineYZ, heldsuarez.InitialState, steps)
	caFull := run(dycore.AlgCommAvoid, heldsuarez.InitialState, steps)
	for _, v := range dycore.FlattenState(g, caFull.Finals) {
		scale = math.Max(scale, math.Abs(v))
	}

	// A finalized checkpoint (what `dycore -save` and a completed job write)
	// is already smoothed. Both schemes continue it bitwise: CA's
	// uninterrupted run applies that smoothing as the former/latter split,
	// which is bitwise the full sweep Finalize applied.
	yzHalf := checkpoint.Gather(g, run(dycore.AlgBaselineYZ, heldsuarez.InitialState, 2).Finals)
	if d := dycore.MaxDiffGlobal(g, yzFull.Finals, run(dycore.AlgBaselineYZ, yzHalf.InitFunc(), steps-2).Finals); d != 0 {
		t.Errorf("yz continued from a finalized checkpoint: max|Δξ| = %g, want bitwise", d)
	}
	caHalf := checkpoint.Gather(g, run(dycore.AlgCommAvoid, heldsuarez.InitialState, 2).Finals)
	if caHalf.PendingSmooth || caHalf.PWI == nil {
		t.Fatalf("finalized CA checkpoint: pending %v, Ĉ carried %v; want false, true", caHalf.PendingSmooth, caHalf.PWI != nil)
	}
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, run(dycore.AlgCommAvoid, caHalf.InitFunc(), steps-2).Finals); d != 0 {
		t.Errorf("ca continued from a finalized checkpoint: max|Δξ| = %g, want bitwise", d)
	}

	// Crossing schemes changes the algorithm, not the trajectory's phase:
	// the result stays within the distance between the two schemes' own
	// uninterrupted runs (2.8e-6 relative here; the flag's error was 2.6e-3).
	between := dycore.MaxDiffGlobal(g, yzFull.Finals, caFull.Finals)
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, run(dycore.AlgCommAvoid, yzHalf.InitFunc(), steps-2).Finals); d > between {
		t.Errorf("yz snapshot continued by ca: max|Δξ| = %g, want <= yz-vs-ca distance %g", d, between)
	}
	// The reverse hand-over must settle the smoothing a CA barrier snapshot
	// still owes, which the baseline cannot defer.
	set, _, hook := ctlSetup(dycore.AlgCommAvoid)
	snap := stopAt(t, g, set, heldsuarez.InitialState, 0, 2)
	if !snap.PendingSmooth {
		t.Fatal("CA barrier snapshot does not record its pending smoothing")
	}
	if d := dycore.MaxDiffGlobal(g, yzFull.Finals, run(dycore.AlgBaselineYZ, snap.InitFunc(), steps-2).Finals); d > between {
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
	fuseGap := dycore.MaxDiffGlobal(g, caFull.Finals, nofuse(heldsuarez.InitialState, steps))
	if d := dycore.MaxDiffGlobal(g, caFull.Finals, nofuse(snap.InitFunc(), steps-2)); d > fuseGap {
		t.Errorf("ca barrier snapshot continued by ca-nofuse: max|Δξ| = %g, want <= fused-vs-nofuse distance %g", d, fuseGap)
	}
	t.Logf("max|ξ| = %.4g, yz-vs-ca distance %.3g", scale, between)
}
