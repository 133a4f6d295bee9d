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
)

// fusedExchange runs S̃2's side of a fused step on every rank of ca's world:
// the deep exchange of ξ and the band beside it, then the fill of what they
// delivered.
func fusedExchange(ca *CommAvoid) {
	f3, f2 := ca.exchangeFields(ca.xi)
	pend := ca.deepEx.Begin(f3, f2)
	bandPend := ca.band.ex.Begin(ca.band.f3[:], ca.band.f2[:])
	pend.Finish()
	bandPend.Finish()
	ca.localFill(ca.xi)
}

// TestSmoothingSplitMatchesFull checks S̃ = S̃2∘S̃1 bitwise through the
// actual fused machinery — S̃1 on the owned block, the deep and band
// exchanges, S̃2 — against a serial full smoothing of the same global field,
// on every cell of S̃2's rect: the owned block and the deep halo η1 reads.
// The layouts split y evenly and unevenly (windows of 2 to 8 rows, so rows
// near both edges and the poles), z into node and non-node blocks, and run
// both pole mirrors.
func TestSmoothingSplitMatchesFull(t *testing.T) {
	g := grid.New(16, 24, 8)
	rng := rand.New(rand.NewSource(99))
	global := make([]float64, 4*g.Nx*g.Ny*g.Nz)
	for n := range global {
		global[n] = rng.NormFloat64()
	}
	fill := func(st *state.State) {
		o := st.B.Owned()
		for k := o.K0; k < o.K1; k++ {
			for j := o.J0; j < o.J1; j++ {
				for i := o.I0; i < o.I1; i++ {
					n := 4 * (i + g.Nx*(j+g.Ny*k))
					st.U.Set(i, j, k, global[n])
					st.V.Set(i, j, k, global[n+1])
					st.Phi.Set(i, j, k, global[n+2])
					if k == o.K0 {
						st.Psa.Set(i, j, 100*global[4*(i+g.Nx*j)+3])
					}
				}
			}
		}
		st.FillLocalBounds(st.B.WithHalo())
	}
	for _, shifted := range []bool{false, true} {
		cfg := testCfg(2)
		cfg.ShiftedPoleMirror = shifted
		var want *state.State
		comm.NewWorld(1, comm.Zero()).Run(func(c *comm.Comm) {
			tp, _ := Setup{Alg: AlgCommAvoid, PA: 1, PB: 1, Cfg: cfg}.Build(c, g)
			st := state.New(tp.Block)
			st.ShiftedPoles = shifted
			fill(st)
			want = state.New(tp.Block)
			operators.NewSmoother(g, cfg.Beta).SmoothFull(st, want, tp.Block.Owned())
		})
		for _, s := range []Setup{
			{PA: 2, PB: 1}, {PA: 3, PB: 1}, {PA: 5, PB: 1}, {PA: 4, PB: 2}, {PA: 2, PB: 3},
			{PA: 4, PB: 1, RowStarts: []int{0, 2, 4, 16, 24}},
			{PA: 4, PB: 2, RowStarts: []int{0, 3, 6, 15, 24}},
		} {
			s.Alg, s.Cfg = AlgCommAvoid, cfg
			t.Run(fmt.Sprintf("%dx%d-rows%v-shifted%v", s.PA, s.PB, s.RowStarts, shifted), func(t *testing.T) {
				comm.NewWorld(s.Procs(), comm.Zero()).Run(func(c *comm.Comm) {
					_, ig := s.Build(c, g)
					ca := ig.(*CommAvoid)
					fill(ca.xi)
					ca.formerSmooth()
					fusedExchange(ca)
					ca.latterSmooth()
					r := around(ca.tp.Block, ca.cv.s2Reach)
					for n, f := range [][2]*field.F3{{ca.xi.U, want.U}, {ca.xi.V, want.V}, {ca.xi.Phi, want.Phi}, {&ca.xi.Psa.F3, &want.Psa.F3}} {
						r := r
						if n == 3 {
							r = r.Flat2D()
						}
						for k := r.K0; k < r.K1; k++ {
							for j := r.J0; j < r.J1; j++ {
								for i := r.I0; i < r.I1; i++ {
									if got, w := f[0].At(i, j, k), f[1].At(i, j, k); math.Float64bits(got) != math.Float64bits(w) {
										t.Fatalf("rank %d component %d (%d,%d,%d): got %v, the full smoothing gives %v", c.Rank(), n, i, j, k, got, w)
									}
								}
							}
						}
					}
				})
			})
		}
	}
}

// TestBandShipsWhatLatterReads pins the read set of the fused smoothing's
// band exchange (cover.bandReads). Every rank marks its owned cells of ξ 1
// and every other stored cell NaN, keeps its originals and runs the deep
// and band exchanges, and S̃2 gathers the unsmoothed rows from ξ. Then every
// stored (j, k) row of the originals is probed by poisoning it before S̃2:
// the rows whose poison reaches S̃2's output are the rows it reads. Every
// row S̃2 reads is owned or delivered, every row the band delivers is read
// and was smoothed by its owner's S̃1 (an unsmoothed row comes in the deep
// exchange), and the originals store no row outside the span S̃2 reads. The
// weighted layout's 3-row windows make a rank read the far edge of a rank
// beyond its neighbour; with p_z = 2, S̃2 also reads the S̃1 rows of the
// rank's own window on its z-ghost levels.
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
				for _, f := range []*field.F3{ca.xi.Phi, &ca.xi.Psa.F3} {
					for n := range f.Data {
						f.Data[n] = math.NaN()
					}
					o := owned
					if f == &ca.xi.Psa.F3 {
						o = o.Flat2D()
					}
					for k := o.K0; k < o.K1; k++ {
						for j := o.J0; j < o.J1; j++ {
							for i := o.I0; i < o.I1; i++ {
								f.Set(i, j, k, 1)
							}
						}
					}
				}
				ca.origPhi.CopyRect(ca.origPhi.B.WithHalo(), ca.xi.Phi)
				ca.origPsa.CopyRect(ca.origPsa.B.WithHalo(), &ca.xi.Psa.F3)
				f3, f2 := ca.exchangeFields(ca.xi)
				ca.deepEx.Exchange(f3, f2)
				ca.band.ex.Exchange(ca.band.f3[:], ca.band.f2[:])
				cases := []struct {
					f, xi  *field.F3
					owned  field.Rect
					latter []field.Rect
					raw    []field.Rect
				}{{ca.origPhi, ca.xi.Phi, owned, ca.cv.s2, ca.cv.raw}, {&ca.origPsa.F3, &ca.xi.Psa.F3, owned.Flat2D(), nil, nil}}
				for _, r := range ca.cv.s2 {
					cases[1].latter = append(cases[1].latter, r.Flat2D())
				}
				for _, r := range ca.cv.raw {
					cases[1].raw = append(cases[1].raw, r.Flat2D())
				}
				for _, tc := range cases {
					f, w := tc.f, tc.f.B.WithHalo()
					inRaw := func(j, k int) bool {
						return slices.ContainsFunc(tc.raw, func(r field.Rect) bool { return r.Contains(0, j, k) })
					}
					banded := map[[2]int]bool{}
					for k := w.K0; k < w.K1; k++ {
						for j := w.J0; j < w.J1; j++ {
							if !tc.owned.Contains(0, j, k) && !math.IsNaN(f.At(0, j, k)) {
								banded[[2]int{j, k}] = true
								if inRaw(j, k) {
									t.Errorf("rank %d: the band ships row (j %d, k %d), which S̃1 left unsmoothed", c.Rank(), j, k)
								}
							}
						}
					}
					for _, r := range tc.raw {
						f.CopyRect(r, tc.xi)
					}
					// latter reports whether S̃2 over the originals stays
					// finite.
					latter := func() bool {
						ca.fillEven(f)
						cur := field.NewF3(f.B)
						for _, r := range tc.latter {
							ca.smo.P2(f, cur, r)
						}
						return !slices.ContainsFunc(cur.Data, math.IsNaN)
					}
					if !latter() {
						t.Errorf("rank %d: S̃2 reads a row that is neither owned nor delivered", c.Rank())
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
							if banded[[2]int{j, k}] && !read {
								t.Errorf("rank %d: the band delivers row (j %d, k %d) but S̃2 never reads it", c.Rank(), j, k)
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
