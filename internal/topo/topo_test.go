package topo

import (
	"math/rand"
	"strings"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
)

func TestTopologyLayout(t *testing.T) {
	g := grid.New(16, 12, 6)
	const px, py, pz = 2, 3, 2
	w := comm.NewWorld(px*py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, px, py, pz, 1, 1, 1)
		// Coordinates roundtrip.
		if tp.RankAt(tp.Cx, tp.Cy, tp.Cz) != c.Rank() {
			t.Errorf("rank %d: coords roundtrip failed", c.Rank())
		}
		cx, cy, cz := tp.CoordsOf(c.Rank())
		if cx != tp.Cx || cy != tp.Cy || cz != tp.Cz {
			t.Errorf("CoordsOf mismatch")
		}
		// Sub-communicator shapes.
		if tp.RowX.Size() != px || tp.ColZ.Size() != pz {
			t.Errorf("subcomm sizes: rowX=%d colZ=%d", tp.RowX.Size(), tp.ColZ.Size())
		}
		if tp.RowX.Rank() != tp.Cx || tp.ColZ.Rank() != tp.Cz {
			t.Errorf("subcomm ranks: rowX=%d (want %d), colZ=%d (want %d)",
				tp.RowX.Rank(), tp.Cx, tp.ColZ.Rank(), tp.Cz)
		}
		// Block bounds sane and within domain.
		b := tp.Block
		b.Validate()
		// Blocks partition the domain: verified globally below.
	})

	// Verify the blocks tile the domain exactly once.
	w2 := comm.NewWorld(px*py*pz, comm.Zero())
	covered := make([]int, g.Nx*g.Ny*g.Nz)
	blocks := make([]field.Block, px*py*pz)
	w2.Run(func(c *comm.Comm) {
		tp := New(c, g, px, py, pz, 0, 0, 0)
		blocks[c.Rank()] = tp.Block
	})
	for _, b := range blocks {
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					covered[(k*g.Ny+j)*g.Nx+i]++
				}
			}
		}
	}
	for idx, c := range covered {
		if c != 1 {
			t.Fatalf("point %d covered %d times", idx, c)
		}
	}
}

// fillGlobal sets f(i,j,k) = encode(i,j,k) over the owned region.
func encode(g *grid.Grid, i, j, k int) float64 {
	return float64((k*g.Ny+j)*g.Nx + g.WrapX(i))
}

func fillOwned(g *grid.Grid, f *field.F3) {
	b := f.B
	for k := b.K0; k < b.K1; k++ {
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				f.Set(i, j, k, encode(g, i, j, k))
			}
		}
	}
}

// checkHalo verifies that all in-domain halo cells of depth (dx,dy,dz) hold
// the owner's encoded values.
func checkHalo(t *testing.T, g *grid.Grid, f *field.F3, dx, dy, dz int) {
	t.Helper()
	b := f.B
	lo := [3]int{b.I0 - dx, b.J0 - dy, b.K0 - dz}
	hi := [3]int{b.I1 + dx, b.J1 + dy, b.K1 + dz}
	for k := lo[2]; k < hi[2]; k++ {
		if k < 0 || k >= g.Nz {
			continue
		}
		for j := lo[1]; j < hi[1]; j++ {
			if j < 0 || j >= g.Ny {
				continue
			}
			for i := lo[0]; i < hi[0]; i++ {
				want := encode(g, i, j, k)
				if got := f.At(i, j, k); got != want {
					t.Fatalf("halo (%d,%d,%d): got %v want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestExchangeYZ(t *testing.T) {
	g := grid.New(16, 12, 6)
	for _, pg := range [][2]int{{2, 1}, {3, 2}, {4, 3}, {6, 3}} {
		py, pz := pg[0], pg[1]
		w := comm.NewWorld(py*pz, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := New(c, g, 1, py, pz, 2, 2, 2)
			f := field.NewF3(tp.Block)
			fillOwned(g, f)
			f.FillXPeriodic()
			ex := tp.NewExchanger(0, 2, 2)
			ex.Exchange([]*field.F3{f}, nil)
			f.FillXPeriodic()
			checkHalo(t, g, f, 0, 2, 2)
		})
	}
}

func TestExchangeXY(t *testing.T) {
	g := grid.New(16, 12, 6)
	for _, pg := range [][2]int{{2, 2}, {4, 3}} {
		px, py := pg[0], pg[1]
		w := comm.NewWorld(px*py, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := New(c, g, px, py, 1, 3, 1, 1)
			f := field.NewF3(tp.Block)
			fillOwned(g, f)
			ex := tp.NewExchanger(3, 1, 0)
			ex.Exchange([]*field.F3{f}, nil)
			// x halos wrap periodically: check them explicitly including
			// the wrap, via encode's WrapX.
			checkHalo(t, g, f, 3, 1, 0)
		})
	}
}

func TestDeepExchangeSpansMultipleBlocks(t *testing.T) {
	// Halo deeper than a neighbor's block: data must arrive from the
	// rank(s) beyond it in one exchange round.
	g := grid.New(16, 12, 6)
	const py = 6 // blocks of 2 rows
	w := comm.NewWorld(py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, 1, 0, 5, 0) // 5-row halo over 2-row blocks
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewExchanger(0, 5, 0)
		if c.Rank() == 2 && ex.PeerCount() < 4 {
			t.Errorf("deep halo should span ≥4 peers, got %d", ex.PeerCount())
		}
		ex.Exchange([]*field.F3{f}, nil)
		checkHalo(t, g, f, 0, 5, 0)
	})
}

func TestExchangeF2(t *testing.T) {
	g := grid.New(16, 12, 6)
	const py, pz = 3, 2
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, 2, 1)
		f2 := field.NewF2(tp.Block)
		b := tp.Block
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				f2.Set(i, j, encode(g, i, j, 0))
			}
		}
		ex := tp.NewExchanger(0, 2, 1)
		ex.Exchange(nil, []*field.F2{f2})
		for j := b.J0 - 2; j < b.J1+2; j++ {
			if j < 0 || j >= g.Ny {
				continue
			}
			for i := 0; i < g.Nx; i++ {
				if got, want := f2.At(i, j), encode(g, i, j, 0); got != want {
					t.Fatalf("2-D halo (%d,%d): got %v want %v", i, j, got, want)
				}
			}
		}
	})
}

func TestOverlappedExchangeEquivalent(t *testing.T) {
	// Begin/Finish must deliver exactly what blocking Exchange does.
	g := grid.New(16, 12, 6)
	const py, pz = 3, 2
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, 2, 2)
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewExchanger(0, 2, 2)
		pend := ex.Begin([]*field.F3{f}, nil)
		// Mutate owned data between Begin and Finish: messages must carry
		// the values from Begin time (buffered-send semantics).
		b := tp.Block
		f.Set(b.I0, b.J0, b.K0, -12345)
		pend.Finish()
		// Our halo must hold the neighbors' pre-mutation values (the
		// mutation happened after Begin, and sends are buffered).
		for k := b.K0 - 2; k < b.K1+2; k++ {
			if k < 0 || k >= g.Nz {
				continue
			}
			for j := b.J0 - 2; j < b.J1+2; j++ {
				if j < 0 || j >= g.Ny {
					continue
				}
				if b.Owned().Contains(0, j, k) {
					continue // skip owned rows (one point was mutated)
				}
				for i := 0; i < g.Nx; i++ {
					if got, want := f.At(i, j, k), encode(g, i, j, k); got != want {
						t.Fatalf("halo (%d,%d,%d): got %v want %v", i, j, k, got, want)
					}
				}
			}
		}
		if got := f.At(b.I0, b.J0, b.K0); got != -12345 {
			t.Errorf("local mutation lost: %v", got)
		}
	})
}

func TestBandExchangerY(t *testing.T) {
	// The band exchanger must deliver exactly the sender's y-edge bands.
	g := grid.New(16, 12, 6)
	const py = 3 // blocks of 4 rows
	w := comm.NewWorld(py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, 1, 0, 4, 0)
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewBandExchangerY(Sym(0, 4, 0), 2)
		ex.Exchange([]*field.F3{f}, nil)
		b := tp.Block
		// Band rows adjacent to my block edges must be valid.
		for _, j := range []int{b.J0 - 2, b.J0 - 1, b.J1, b.J1 + 1} {
			if j < 0 || j >= g.Ny {
				continue
			}
			// These rows lie within 2 of their owner's block edge (blocks
			// are 4 rows, so rows at distance ≤2 from my edge are within
			// the owner's edge bands).
			for i := 0; i < g.Nx; i++ {
				for k := b.K0; k < b.K1; k++ {
					if got, want := f.At(i, j, k), encode(g, i, j, k); got != want {
						t.Fatalf("band row (%d,%d,%d): got %v want %v", i, j, k, got, want)
					}
				}
			}
		}
	})
}

func TestBandVolumeSmallerThanFull(t *testing.T) {
	g := grid.New(16, 12, 6)
	const py = 2
	bytesOf := func(band bool) int64 {
		w := comm.NewWorld(py, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := New(c, g, 1, py, 1, 0, 6, 0)
			f := field.NewF3(tp.Block)
			fillOwned(g, f)
			var ex *Exchanger
			if band {
				ex = tp.NewBandExchangerY(Sym(0, 6, 0), 2)
			} else {
				ex = tp.NewExchanger(0, 6, 0)
			}
			ex.Exchange([]*field.F3{f}, nil)
		})
		return w.Stats().BytesSent
	}
	full, banded := bytesOf(false), bytesOf(true)
	if banded >= full {
		t.Errorf("band exchange (%d B) not smaller than full (%d B)", banded, full)
	}
	if banded == 0 {
		t.Error("band exchange moved nothing")
	}
}

func TestEightNeighborsInPlane(t *testing.T) {
	// With shallow halos on an interior block of a Y-Z grid, the peer set
	// is exactly the paper's 8 neighbors (edges + corners in the y-z
	// process plane).
	g := grid.New(16, 12, 6)
	const py, pz = 4, 3
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, 1, 1)
		ex := tp.NewExchanger(0, 1, 1)
		interior := tp.Cy > 0 && tp.Cy < py-1 && tp.Cz > 0 && tp.Cz < pz-1
		if interior && ex.PeerCount() != 8 {
			t.Errorf("interior rank (%d,%d) has %d peers, want 8", tp.Cy, tp.Cz, ex.PeerCount())
		}
	})
}

func TestExchangeRandomizedProperty(t *testing.T) {
	// Property: after an exchange, every in-domain halo cell equals the
	// owner's value, for random process grids and depths.
	g := grid.New(16, 12, 6)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		pys := []int{1, 2, 3, 4}
		pzs := []int{1, 2, 3}
		py := pys[rng.Intn(len(pys))]
		pz := pzs[rng.Intn(len(pzs))]
		dy := 1 + rng.Intn(3)
		dz := 1 + rng.Intn(2)
		w := comm.NewWorld(py*pz, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := New(c, g, 1, py, pz, 0, dy, dz)
			f := field.NewF3(tp.Block)
			fillOwned(g, f)
			ex := tp.NewExchanger(0, dy, dz)
			ex.Exchange([]*field.F3{f}, nil)
			checkHalo(t, g, f, 0, dy, dz)
		})
	}
}

// TestExchangerGeometryValidatedAgainstStorage: construction refuses an
// exchange whose unpack rectangles are not addressable in the block's stored
// region (field.Block.WithHalo, which is cut at the poles and the model
// top/bottom), per side, and accepts everything that is — including the
// symmetric deep exchange the benchmark builds on the CA 4×2 topology.
func TestExchangerGeometryValidatedAgainstStorage(t *testing.T) {
	g := grid.New(96, 48, 12)
	const py, pz = 4, 2
	const hx, hy, hz = 3, 11, 9 // dycore.CommAvoidHalo(3)
	refused := func(build func()) (msg string) {
		defer func() {
			if p := recover(); p != nil {
				msg = p.(string)
			}
		}()
		build()
		return ""
	}
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, hx, hy, hz)

		// The benchmark's traced pass: symmetric, as deep as requested.
		var ex *Exchanger
		built := 1.0
		if msg := refused(func() { ex = tp.NewExchanger(0, hy, hz) }); msg != "" {
			t.Errorf("rank %d: NewExchanger(0,%d,%d) refused: %s", c.Rank(), hy, hz, msg)
			built = 0
		}
		if c.AllreduceScalar(built, comm.Min) == 1 { // exchange only if no rank would be left waiting
			f := field.NewF3(tp.Block)
			fillOwned(g, f)
			ex.Exchange([]*field.F3{f}, nil)
			checkHalo(t, g, f, 0, hy, hz)
		}
		// z is clamped to the domain before it is compared with storage, so a
		// z depth beyond the request that still lands on stored levels is fine.
		if msg := refused(func() { tp.NewExchangerD(Depths{ZLo: hz + 1, ZHi: hz + 1}) }); msg != "" {
			t.Errorf("rank %d: z depth %d reaches only stored levels but was refused: %s", c.Rank(), hz+1, msg)
		}

		// One row past the stored extent: every rank of a 4-row process grid
		// has a y side that is not a pole, so every rank refuses.
		msg := refused(func() { tp.NewExchanger(0, hy+1, 0) })
		if msg == "" {
			t.Errorf("rank %d: y depth %d accepted on block %+v", c.Rank(), hy+1, tp.Block)
		} else if !strings.Contains(msg, "YLo:12") || !strings.Contains(msg, "outside the stored region") {
			t.Errorf("rank %d: refusal does not name the depths and the rect: %s", c.Rank(), msg)
		}
		// Per side: too deep toward the north only. The northernmost row of
		// ranks has nothing there to receive (the pole clamps it); every other
		// rank would unpack a row it does not store.
		msg = refused(func() { tp.NewExchangerD(Depths{YLo: hy + 1, YHi: hy}) })
		if north := tp.Cy == 0; north != (msg == "") {
			t.Errorf("rank %d (cy=%d): YLo=%d refused=%v: %s", c.Rank(), tp.Cy, hy+1, msg != "", msg)
		}
	})
}
