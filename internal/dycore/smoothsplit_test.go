package dycore

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// TestSmoothingSplitMatchesFull checks S̃ = S̃2∘S̃1 through the actual fused
// machinery: former smoothing on owned rows, band exchange of originals,
// latter smoothing — against a serial full smoothing of the same global
// field.
func TestSmoothingSplitMatchesFull(t *testing.T) {
	g := testGrid()
	cfg := testCfg(2)
	rng := rand.New(rand.NewSource(99))
	vals := make(map[[3]int]float64)
	randAt := func(i, j, k int) float64 {
		key := [3]int{i, j, k}
		if v, ok := vals[key]; ok {
			return v
		}
		v := rng.NormFloat64()
		vals[key] = v
		return v
	}
	// Pre-generate deterministically for all points.
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				randAt(i, j, k)
			}
		}
	}

	fill := func(st *state.State) {
		b := st.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					st.Phi.Set(i, j, k, randAt(i, j, k))
				}
			}
		}
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				st.Psa.Set(i, j, randAt(i, j, 0)*100)
			}
		}
	}

	// Serial full smoothing reference.
	wantPhi := func() *field.F3 {
		w := comm.NewWorld(1, comm.Zero())
		var out *field.F3
		w.Run(func(c *comm.Comm) {
			hx, hy, hz := Setup{Alg: AlgCommAvoid, Cfg: cfg}.HaloWidths()
			tp := topo.New(c, g, 1, 1, 1, hx, hy, hz)
			st := state.New(tp.Block)
			fill(st)
			st.FillLocalBounds(st.B.WithHalo())
			smo := operators.NewSmoother(g, cfg.Beta)
			res := state.New(tp.Block)
			smo.SmoothFull(st, res, tp.Block.Owned())
			out = res.Phi
		})
		return out
	}()

	for _, py := range []int{2, 3, 5} {
		w := comm.NewWorld(py, comm.Zero())
		got := make([]*field.F3, py)
		s2Rows := make([]field.Rect, py)
		w.Run(func(c *comm.Comm) {
			hx, hy, hz := Setup{Alg: AlgCommAvoid, Cfg: cfg}.HaloWidths()
			tp := topo.New(c, g, 1, py, 1, hx, hy, hz)
			ca := NewCommAvoid(cfg, g, tp)
			st := state.New(tp.Block)
			fill(st)
			ca.xi.CopyStored(st)

			owned := tp.Block.Owned()
			ca.xi.FillLocalBounds(ca.xi.B.WithHalo())
			ca.origPhi.CopyRect(ca.origPhi.B.WithHalo(), ca.xi.Phi)
			ca.origPsa.CopyRect(ca.origPsa.B.WithHalo(), &ca.xi.Psa.F3)
			ca.smo.P2Former(ca.xi.Phi, ca.eta1.Phi, owned, ca.cv.avail)
			ca.xi.Phi.CopyRect(owned, ca.eta1.Phi)
			ca.xi.FillLocalBounds(ca.xi.B.WithHalo())

			f3, f2 := ca.exchangeFields(ca.xi)
			pend := ca.deepEx.Begin(f3, f2)
			bandPend := ca.band.ex.Begin(ca.band.f3[:], ca.band.f2[:])
			pend.Finish()
			bandPend.Finish()
			ca.localFill(ca.xi)
			ca.origPhi.FillXPeriodic()
			ca.origPsa.FillXPeriodic()
			field.FillPolesY(ca.origPhi, field.Even, field.CenterY)
			field.FillPolesY2(ca.origPsa, field.Even)

			ca.smo.P2Latter(ca.origPhi, ca.xi.Phi, ca.cv.s2, ca.cv.avail)

			got[c.Rank()] = ca.xi.Phi
			s2Rows[c.Rank()] = ca.cv.s2
		})
		// Compare on the smoothed-valid region of each rank: S̃2's rows.
		for r, phi := range got {
			b, s2 := phi.B, s2Rows[r]
			for k := b.K0; k < b.K1; k++ {
				for j := s2.J0; j < s2.J1; j++ {
					for i := 0; i < g.Nx; i++ {
						gotV := phi.At(i, j, k)
						wantV := wantPhi.At(i, j, k)
						d := gotV - wantV
						if d < 0 {
							d = -d
						}
						if d > 1e-12 {
							t.Fatalf("py=%d rank=%d Phi(%d,%d,%d): got %v want %v (diff %g)",
								py, r, i, j, k, gotV, wantV, d)
						}
					}
				}
			}
		}
	}
}

// TestBandShipsWhatLatterReads pins the read set of the fused smoothing's
// band exchange (CommAvoid.latterReads). Every rank marks its owned cells of
// the originals 1 and every other stored cell NaN, runs the band exchange,
// and probes each stored (j, k) row of the originals by poisoning it before
// S̃2: the rows whose poison reaches S̃2's output are the rows it reads.
// Every row S̃2 reads is owned or received, every received row is read,
// and the originals store no row outside the span S̃2 reads. The weighted
// layout's 3-row windows make a rank read the far edge of a rank beyond its
// neighbour.
func TestBandShipsWhatLatterReads(t *testing.T) {
	g := grid.New(96, 48, 12)
	for _, s := range []Setup{
		{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig()},
		{Alg: AlgCommAvoid, PA: 4, PB: 2, Cfg: DefaultConfig(), RowStarts: []int{0, 3, 6, 27, 48}},
	} {
		t.Run(fmt.Sprintf("rows%v", s.RowStarts), func(t *testing.T) {
			comm.NewWorld(s.Procs(), comm.Zero()).Run(func(c *comm.Comm) {
				tp, ig := s.Build(c, g)
				ca := ig.(*CommAvoid)
				owned := tp.Block.Owned()
				s2r := ca.cv.s2
				cases := []struct {
					f        *field.F3
					r, owned field.Rect
				}{{ca.origPhi, s2r, owned}, {&ca.origPsa.F3, s2r.Flat2D(), owned.Flat2D()}}
				for _, tc := range cases {
					f := tc.f
					for n := range f.Data {
						f.Data[n] = math.NaN()
					}
					o := tc.owned.Intersect(f.B.WithHalo())
					for k := o.K0; k < o.K1; k++ {
						for j := o.J0; j < o.J1; j++ {
							for i := o.I0; i < o.I1; i++ {
								f.Set(i, j, k, 1)
							}
						}
					}
				}
				ca.band.ex.Exchange(ca.band.f3[:], ca.band.f2[:])
				for _, tc := range cases {
					f, w := tc.f, tc.f.B.WithHalo()
					received := func(j, k int) bool {
						return j >= 0 && j < g.Ny && !tc.owned.Contains(0, j, k) && !math.IsNaN(f.At(0, j, k))
					}
					// latter reports whether S̃2 over the originals stays
					// finite.
					latter := func() bool {
						ca.fillEven(f)
						cur := field.NewF3(f.B)
						ca.smo.P2Latter(f, cur, tc.r, ca.cv.avail)
						return !slices.ContainsFunc(cur.Data, math.IsNaN)
					}
					if !latter() {
						t.Errorf("rank %d: S̃2 reads a row that is neither owned nor received", c.Rank())
					}
					rowLo, rowHi := w.J1, w.J0
					for k := w.K0; k < w.K1; k++ {
						for j := w.J0; j < w.J1; j++ {
							row := append([]float64(nil), f.Row(j, k)...)
							for n := range f.Row(j, k) {
								f.Row(j, k)[n] = math.NaN()
							}
							read := !latter()
							copy(f.Row(j, k), row)
							if read {
								rowLo, rowHi = min(rowLo, j), max(rowHi, j+1)
							}
							if received(j, k) && !read {
								t.Errorf("rank %d: row (j %d, k %d) is received but S̃2 never reads it", c.Rank(), j, k)
							}
						}
					}
					if rowLo < rowHi && (w.J0 != rowLo || w.J1 != rowHi) {
						t.Errorf("rank %d: the originals store rows [%d, %d), S̃2 reads [%d, %d)", c.Rank(), w.J0, w.J1, rowLo, rowHi)
					}
				}
			})
		})
	}
}
