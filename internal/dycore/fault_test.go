package dycore_test

import (
	"reflect"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

// TestCrashAbortsTyped: an injected rank death surfaces as a typed Abort at
// the step boundary, with no final states and the surviving ranks' progress
// reflected in StepsDone.
func TestCrashAbortsTyped(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 5, dycore.RunOpts{
		Hook: hook,
		CrashAt: func(rank, done int) bool {
			return rank == 1 && done == 3
		},
	})
	if res.Abort == nil {
		t.Fatal("expected a typed abort, got none")
	}
	if res.Abort.Rank != 1 || res.Abort.Step != 3 {
		t.Fatalf("Abort = rank %d step %d, want rank 1 step 3", res.Abort.Rank, res.Abort.Step)
	}
	if res.Finals != nil {
		t.Fatalf("Finals non-nil after crash")
	}
	if res.StepsDone > 3 {
		t.Fatalf("StepsDone = %d after a crash at step 3", res.StepsDone)
	}
	if res.Abort.Error() == "" {
		t.Fatal("empty abort error message")
	}
}

// TestCrashAbortsCommAvoiding: the CA scheme's Finalize communicates, so a
// dead rank poisons survivors — the injected failure must still win.
func TestCrashAbortsCommAvoiding(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgCommAvoid)
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 4, dycore.RunOpts{
		Hook: hook,
		CrashAt: func(rank, done int) bool {
			return rank == 2 && done == 2
		},
	})
	if res.Abort == nil {
		t.Fatal("expected a typed abort, got none")
	}
	if res.Abort.Rank != 2 || res.Abort.Step != 2 {
		t.Fatalf("Abort = rank %d step %d, want rank 2 step 2", res.Abort.Rank, res.Abort.Step)
	}
}

// TestCrashWithSnapshotsKeepsEarlierBoundary: crash mid-run after a snapshot
// cadence boundary — the pre-crash snapshot exists and no snapshot is taken
// at the crash boundary itself.
func TestCrashWithSnapshotsKeepsEarlierBoundary(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	boundaries := map[int]bool{}
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 10, dycore.RunOpts{
		Hook:          hook,
		SnapshotEvery: 2,
		Snapshot: func(done int, sts []*state.State) {
			boundaries[done] = true
		},
		CrashAt: func(rank, done int) bool {
			return rank == 0 && done == 5
		},
	})
	if res.Abort == nil {
		t.Fatal("expected a typed abort")
	}
	if !boundaries[2] || !boundaries[4] {
		t.Fatalf("pre-crash snapshots missing; got boundaries %v", boundaries)
	}
	if boundaries[5] {
		t.Fatalf("snapshot taken at the crash boundary (rank died before the barrier)")
	}
}

// TestInertFaultProfileBitwise is the dycore-level zero-fault guarantee: an
// installed but inert comm.Faults profile leaves the aggregate simulated
// clock and the final states bitwise identical to a run with no profile.
func TestInertFaultProfileBitwise(t *testing.T) {
	for _, alg := range []dycore.Algorithm{dycore.AlgBaselineYZ, dycore.AlgCommAvoid} {
		set, g, hook := ctlSetup(alg)
		base, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, dycore.RunOpts{Hook: hook})
		inert, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, dycore.RunOpts{
			Hook:   hook,
			Faults: comm.NewFaults(set.Procs(), 12345),
		})
		if inert.Abort != nil {
			t.Fatalf("%v: inert profile aborted: %v", alg, inert.Abort)
		}
		if !reflect.DeepEqual(base.Agg, inert.Agg) {
			t.Errorf("%v: aggregate stats differ under inert fault profile:\n got %+v\nwant %+v", alg, inert.Agg, base.Agg)
		}
		if d := dycore.MaxDiffGlobal(g, base.Finals, inert.Finals); d != 0 {
			t.Errorf("%v: finals differ under inert fault profile: maxdiff %g", alg, d)
		}
	}
}

// TestStragglerPerturbsClockNotNumerics: a straggler profile slows the
// simulated clock but the computed fields stay bitwise identical.
func TestStragglerPerturbsClockNotNumerics(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	base, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, dycore.RunOpts{Hook: hook})
	f := comm.NewFaults(set.Procs(), 1)
	f.Rank(0).ComputeScale = 3
	slow, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, dycore.RunOpts{
		Hook:   hook,
		Faults: f,
	})
	if slow.Agg.SimTime <= base.Agg.SimTime {
		t.Errorf("straggler SimTime %g not slower than fault-free %g", slow.Agg.SimTime, base.Agg.SimTime)
	}
	if d := dycore.MaxDiffGlobal(g, base.Finals, slow.Finals); d != 0 {
		t.Errorf("straggler changed numerics: maxdiff %g", d)
	}
}
