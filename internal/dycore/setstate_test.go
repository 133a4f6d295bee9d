package dycore

import (
	"fmt"
	"math"
	"testing"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// TestSetStateReadsOwnedCells pins the storage contract at a run's
// boundaries. SetState reads only the owned cells of its argument, and of a
// Carry the owned PWI interfaces (with interface Nz on the lowest block) and
// D̄ columns, whatever their storage extent: an owned-size initial state, a
// deep one whose other cells are NaN, and resumes from either kind of Carry
// all give bitwise the same steps. A run's result Carry is an owned-size copy
// that shares no storage with the integrator's Ĉ cache.
func TestSetStateReadsOwnedCells(t *testing.T) {
	g := grid.New(48, 24, 8)
	cfg := DefaultConfig()
	cfg.M = 2
	staged := cfg
	staged.StageM = 1
	const steps = 2
	for _, s := range []Setup{
		{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: cfg},
		{Alg: AlgCommAvoid, PA: 2, PB: 2, Cfg: staged},
		{Alg: AlgBaselineYZ, PA: 2, PB: 2, Cfg: cfg},
	} {
		t.Run(fmt.Sprintf("%v-stage%d", s.Alg, s.Cfg.StageM), func(t *testing.T) {
			// from runs n steps from the states mk builds on each rank's
			// topology block and returns the final owned values.
			from := func(n int, mk func(b field.Block) *state.State) []float64 {
				finals := make([]*state.State, s.Procs())
				comm.NewWorld(s.Procs(), comm.Zero()).Run(func(c *comm.Comm) {
					tp, ig := s.Build(c, g)
					ig.(StateSetter).SetState(mk(tp.Block))
					for k := 0; k < n; k++ {
						ig.Step()
					}
					ig.Finalize()
					finals[c.Rank()] = ig.Xi()
				})
				return FlattenState(g, finals)
			}
			initial := func(b field.Block) *state.State {
				st := state.New(b)
				testInit(g, st)
				nanGhosts(st)
				return st
			}
			ref := from(steps, initial)
			sameBits(t, "owned-size initial state", from(steps, func(b field.Block) *state.State {
				return initial(state.OwnedBlock(b))
			}), ref)

			// Resume the second step from a snapshot of the first: through Run
			// (an owned-size Carry) and from a deep Carry with NaN ghosts.
			var snap *checkpoint.Global
			RunWithOpts(s, g, comm.Zero(), testInit, steps, RunOpts{
				Boundary: func(_ int, sts []*state.State, _ []float64, _ Tally) bool {
					snap = checkpoint.Gather(g, sts)
					return true
				},
			})
			if (snap.PWI != nil) != (s.Alg == AlgCommAvoid) {
				t.Fatalf("snapshot carries Ĉ: %v", snap.PWI != nil)
			}
			res := Run(s, g, comm.Zero(), snap.InitFunc(), steps-1)
			sameBits(t, "resume through Run", FlattenState(g, res.Finals), ref)
			sameBits(t, "resume from a deep NaN-ghosted snapshot", from(steps-1, func(b field.Block) *state.State {
				st := state.New(b)
				if err := snap.Scatter(st); err != nil {
					t.Error(err)
				}
				nanGhosts(st)
				return st
			}), ref)

			// The result's Carry: owned-size, bitwise the integrator's cache
			// (ξ's Carry at the last boundary) on every cell a checkpoint
			// reads, and unmoved when that cache is poisoned.
			live := make([]state.Carry, s.Procs())
			var atEnd *checkpoint.Global
			res, _ = RunWithOpts(s, g, comm.Zero(), testInit, steps, RunOpts{
				Boundary: func(done int, sts []*state.State, _ []float64, _ Tally) bool {
					if done != steps {
						return false
					}
					atEnd = checkpoint.Gather(g, sts)
					for r, st := range sts {
						if st.Carry != nil {
							live[r] = *st.Carry
						}
					}
					return false
				},
			})
			want := checkpoint.Gather(g, res.Finals)
			sameBits(t, "result PWI", want.PWI, atEnd.PWI)
			sameBits(t, "result D̄", want.DBar, atEnd.DBar)
			for r, fin := range res.Finals {
				if fin.Carry == nil {
					continue
				}
				if ob := state.OwnedBlock(fin.B); fin.Carry.PWI.B != ob || fin.Carry.DBar.B != ob.Flat2D() {
					t.Errorf("rank %d: result Carry on %+v, want the owned-size %+v", r, fin.Carry.PWI.B, ob)
				}
				for _, d := range [][]float64{live[r].PWI.Data, live[r].DBar.Data} {
					for n := range d {
						d[n] = math.NaN()
					}
				}
			}
			if !checkpoint.Gather(g, res.Finals).Equal(want) {
				t.Error("the result's Carry shares storage with the integrator's Ĉ cache")
			}
		})
	}
}

// nanGhosts sets to NaN every stored cell of st that SetState must not read:
// all but the owned cells, and of a Carry all but the owned PWI interfaces
// (plus interface Nz on the lowest block) and the owned D̄ columns.
func nanGhosts(st *state.State) {
	own := st.B.Owned()
	for _, f := range st.F3s() {
		nanOutside(f, own)
	}
	nanOutside2(st.Psa, own)
	if c := st.Carry; c != nil {
		r := own
		if r.K1 == st.B.Nz {
			r.K1++
		}
		nanOutside(c.PWI, r)
		nanOutside2(c.DBar, own)
	}
}

func nanOutside(f *field.F3, keep field.Rect) {
	w := f.B.WithHalo()
	for k := w.K0; k < w.K1; k++ {
		for j := w.J0; j < w.J1; j++ {
			for i := w.I0; i < w.I1; i++ {
				if !keep.Contains(i, j, k) {
					f.Set(i, j, k, math.NaN())
				}
			}
		}
	}
}

func nanOutside2(f *field.F2, keep field.Rect) {
	keep = keep.Flat2D()
	w := f.B.WithHalo()
	for j := w.J0; j < w.J1; j++ {
		for i := w.I0; i < w.I1; i++ {
			if !keep.Contains(i, j, 0) {
				f.Set(i, j, math.NaN())
			}
		}
	}
}

// sameBits reports the first owned value of got whose bits differ from want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for n := range want {
		if math.Float64bits(got[n]) != math.Float64bits(want[n]) {
			t.Errorf("%s: owned value %d is %v, want %v", what, n, got[n], want[n])
			return
		}
	}
}
