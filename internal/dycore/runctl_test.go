package dycore_test

import (
	"reflect"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
)

func ctlSetup(alg dycore.Algorithm) (dycore.Setup, *grid.Grid, dycore.StepHook) {
	g := grid.New(48, 24, 8)
	cfg := dycore.DefaultConfig()
	cfg.M = 2
	hs := heldsuarez.Standard()
	hook := func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, cfg.Dt2) }
	return dycore.Setup{Alg: alg, PA: 2, PB: 2, Cfg: cfg}, g, hook
}

// TestRunWithOptsProgress checks the boundary callback: it fires once per
// step in order with every rank's state and a non-decreasing, positive
// compute clock per rank, and StepsDone matches the request when nothing
// stops the run.
func TestRunWithOptsProgress(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	var seen []int
	prev := make([]float64, set.Procs())
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 3, dycore.RunOpts{
		Hook: hook,
		Boundary: func(done int, sts []*state.State, comp []float64, _ dycore.Tally) bool {
			seen = append(seen, done)
			if len(sts) != set.Procs() || len(comp) != set.Procs() {
				t.Errorf("boundary %d: %d states, %d compute clocks; want %d of each", done, len(sts), len(comp), set.Procs())
				return false
			}
			for r, c := range comp {
				if sts[r] == nil || c <= prev[r] {
					t.Errorf("boundary %d, rank %d: state %v, compute %g after %g", done, r, sts[r] != nil, c, prev[r])
				}
				prev[r] = c
			}
			return false
		},
	})
	if res.StepsDone != 3 {
		t.Fatalf("StepsDone = %d, want 3", res.StepsDone)
	}
	if len(seen) != 3 || seen[0] != 1 || seen[1] != 2 || seen[2] != 3 {
		t.Fatalf("boundary sequence = %v, want [1 2 3]", seen)
	}
}

// TestRunWithOptsCancel checks that a stop lands on every rank at the same
// step boundary: the run ends early, all finals are present, and the partial
// result is bitwise identical to an uninterrupted run of the same length
// (baseline Y-Z restarts are exact), and the tally read at the stop boundary
// is the result's statistics.
func TestRunWithOptsCancel(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	var agg comm.Aggregate
	var count dycore.Counters
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 50, dycore.RunOpts{
		Hook: hook,
		Boundary: func(done int, _ []*state.State, _ []float64, tally dycore.Tally) bool {
			agg, count = tally()
			return done == 2
		},
	})
	if res.StepsDone != 2 {
		t.Fatalf("StepsDone = %d, want 2 (stop requested at boundary 2)", res.StepsDone)
	}
	if !reflect.DeepEqual(agg, res.Agg) || count != res.Count {
		t.Fatalf("tally at the stop boundary %+v %+v, result %+v %+v", agg, count, res.Agg, res.Count)
	}
	for r, st := range res.Finals {
		if st == nil {
			t.Fatalf("rank %d has no final state after cancel", r)
		}
	}
	ref := dycore.RunWithHook(set, g, comm.TianheLike(), heldsuarez.InitialState, 2, hook)
	if d := dycore.MaxDiffGlobal(g, ref.Finals, res.Finals); d != 0 {
		t.Fatalf("cancelled run differs from straight 2-step run: maxdiff %g", d)
	}
}

// TestRunWithOptsSnapshotResume pins restart exactness through the quiesced
// boundary view: a snapshot gathered at a boundary, resumed for the
// remaining steps, reaches a bitwise-identical final state.
func TestRunWithOptsSnapshotResume(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	snaps := map[int]*checkpoint.Global{}
	full, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 4, dycore.RunOpts{
		Hook: hook,
		Boundary: func(done int, sts []*state.State, _ []float64, _ dycore.Tally) bool {
			if done%2 == 0 {
				snaps[done] = checkpoint.Gather(g, sts)
			}
			return false
		},
	})
	if full.StepsDone != 4 {
		t.Fatalf("StepsDone = %d, want 4", full.StepsDone)
	}
	if snaps[2] == nil || snaps[4] == nil {
		t.Fatalf("snapshots every 2 of 4 steps produced boundaries %v, want 2 and 4", keys(snaps))
	}
	rest := dycore.RunWithHook(set, g, comm.TianheLike(), snaps[2].InitFunc(), 2, hook)
	if d := dycore.MaxDiffGlobal(g, full.Finals, rest.Finals); d != 0 {
		t.Fatalf("resumed run differs from uninterrupted run: maxdiff %g", d)
	}
	// The final-boundary snapshot equals the gathered finals (baseline's
	// Finalize is a no-op, so the boundary state is the final state).
	if !snaps[4].Equal(checkpoint.Gather(g, full.Finals)) {
		t.Fatalf("final-boundary snapshot differs from gathered finals")
	}
}

// TestRunWithOptsStopSnapshot checks that the boundary that stops a run sees
// the states it stops in: a snapshot gathered there resumes bitwise.
func TestRunWithOptsStopSnapshot(t *testing.T) {
	set, g, hook := ctlSetup(dycore.AlgBaselineYZ)
	var snap *checkpoint.Global
	res, _ := dycore.RunWithOpts(set, g, comm.TianheLike(), heldsuarez.InitialState, 50, dycore.RunOpts{
		Hook: hook,
		Boundary: func(done int, sts []*state.State, _ []float64, _ dycore.Tally) bool {
			if done != 3 {
				return false
			}
			snap = checkpoint.Gather(g, sts)
			return true
		},
	})
	if res.StepsDone != 3 || snap == nil {
		t.Fatalf("StepsDone = %d, stop snapshot present %v; want 3, true", res.StepsDone, snap != nil)
	}
	if !snap.Equal(checkpoint.Gather(g, res.Finals)) {
		t.Fatalf("stop-boundary snapshot differs from the stopped run's finals")
	}
}

func keys(m map[int]*checkpoint.Global) []int {
	var ks []int
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
