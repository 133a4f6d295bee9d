package topo

import (
	"math/rand"
	"slices"
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
		if (tp.Cz*tp.Py+tp.Cy)*tp.Px+tp.Cx != c.Rank() {
			t.Errorf("rank %d: coords roundtrip failed", c.Rank())
		}
		if r := c.Rank(); tp.Cx != r%px || tp.Cy != (r/px)%py || tp.Cz != r/(px*py) {
			t.Errorf("rank %d: coords (%d,%d,%d) are not x-fastest", r, tp.Cx, tp.Cy, tp.Cz)
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
	return float64((k*g.Ny+j)*g.Nx + (i%g.Nx+g.Nx)%g.Nx)
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
		if c.Rank() == 2 && len(ex.f3.peers) < 4 {
			t.Errorf("deep halo should span ≥4 peers, got %d", len(ex.f3.peers))
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

// TestExchangeF2MatchesOneLevelMesh: a 2-D field travels as its one level.
// Carried in an exchange's 2-D slot, it receives bitwise the data a one-level
// F3 carried in the 3-D slot receives on the same horizontal partition of a
// one-level mesh, and each z plane sends that mesh's messages and bytes — on
// a north-pole block whose deep halo crosses the pole, an interior block
// reaching past both poles and a south-pole block.
func TestExchangeF2MatchesOneLevelMesh(t *testing.T) {
	const py, pz, hy = 3, 2, 11
	g := grid.New(16, 24, 6)
	g1 := *g // the one-level mesh: the partition reads only the extents
	g1.Nz = 1
	fill := func(f *field.F3, b field.Block) {
		for n := range f.Data {
			f.Data[n] = -1
		}
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				f.Set(i, j, 0, encode(g, i, j, 0))
			}
		}
	}
	var got [py * pz]*field.F2
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, hy, 1)
		f2 := field.NewF2(tp.Block)
		fill(&f2.F3, tp.Block)
		ex := tp.NewExchangerD(Depths{YLo: hy, YHi: hy, ZHi: 1})
		c.ResetStats() // count the exchange, not the topology's splits
		ex.Exchange(nil, []*field.F2{f2})
		got[c.Rank()] = f2
	})
	var want [py]*field.F3
	w1 := comm.NewWorld(py, comm.Zero())
	w1.Run(func(c *comm.Comm) {
		tp := New(c, &g1, 1, py, 1, 0, hy, 0)
		f := field.NewF3(tp.Block)
		fill(f, tp.Block)
		ex := tp.NewExchanger(0, hy, 0)
		c.ResetStats()
		ex.Exchange([]*field.F3{f}, nil)
		want[c.Rank()] = f
	})
	for r, f2 := range got {
		ref := want[r%py]
		if f2.B != ref.B {
			t.Fatalf("rank %d: F2 on %+v, one-level mesh block %+v", r, f2.B, ref.B)
		}
		for n := range ref.Data {
			if f2.Data[n] != ref.Data[n] {
				t.Fatalf("rank %d offset %d: F2 %v, one-level F3 %v", r, n, f2.Data[n], ref.Data[n])
			}
		}
	}
	a, a1 := w.Stats(), w1.Stats()
	if a.MsgsSent != pz*a1.MsgsSent || a.BytesSent != pz*a1.BytesSent || a.MsgsSent == 0 {
		t.Errorf("F2 exchange sent %d msgs / %d B, want %d × the one-level mesh's %d / %d", a.MsgsSent, a.BytesSent, pz, a1.MsgsSent, a1.BytesSent)
	}
}

func TestOverlappedExchangeEquivalent(t *testing.T) {
	// Begin/Finish must deliver exactly what blocking Exchange does while the
	// rank writes, between the two, the cells no peer reads: its inner rect
	// (the overlapped sweep's) and its halo. Messages are loans of the owned
	// edge cells, so those inner writes must neither reach a peer nor be
	// lost.
	g := grid.New(16, 24, 12)
	const py, pz, d = 3, 2, 2 // blocks of 8 rows × 6 levels; 2-deep halos
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, d, d)
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewExchanger(0, d, d)
		pend := ex.Begin([]*field.F3{f}, nil)
		b := tp.Block
		inner := field.Rect{I0: b.I0, I1: b.I1, J0: b.J0 + d, J1: b.J1 - d, K0: b.K0 + d, K1: b.K1 - d}
		for k := inner.K0; k < inner.K1; k++ {
			for j := inner.J0; j < inner.J1; j++ {
				for i := inner.I0; i < inner.I1; i++ {
					f.Set(i, j, k, -12345)
				}
			}
		}
		pend.Finish()
		for k := b.K0 - d; k < b.K1+d; k++ {
			if k < 0 || k >= g.Nz {
				continue
			}
			for j := b.J0 - d; j < b.J1+d; j++ {
				if j < 0 || j >= g.Ny {
					continue
				}
				for i := 0; i < g.Nx; i++ {
					want := encode(g, i, j, k)
					if inner.Contains(i, j, k) {
						want = -12345
					}
					if got := f.At(i, j, k); got != want {
						t.Fatalf("(%d,%d,%d): got %v want %v", i, j, k, got, want)
					}
				}
			}
		}
	})
}

// TestBeginWhileInFlightPanics: an Exchanger runs one exchange at a time; a
// second Begin before Finish would merge two rounds' loans, so it panics,
// and the exchanger is usable again once the first round finishes.
func TestBeginWhileInFlightPanics(t *testing.T) {
	g := grid.New(16, 12, 6)
	w := comm.NewWorld(2, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, 2, 1, 0, 1, 0)
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewExchanger(0, 1, 0).SetLabel("twice")
		pend := ex.Begin([]*field.F3{f}, nil)
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, `"twice"`) {
					t.Errorf("second Begin: recovered %q, want a panic naming the exchanger", msg)
				}
			}()
			ex.Exchange([]*field.F3{f}, nil) // its Begin panics
		}()
		pend.Finish()
		ex.Exchange([]*field.F3{f}, nil)
		checkHalo(t, g, f, 0, 1, 0)
	})
}

// edgeReads is a read set of the two rows on each side of a block's y
// range, across the whole mesh in x and z.
func edgeReads(b field.Block) []field.Rect {
	lo := field.Rect{I0: 0, I1: b.Nx, J0: b.J0 - 2, J1: b.J0, K0: 0, K1: b.Nz}
	hi := lo
	hi.J0, hi.J1 = b.J1, b.J1+2
	return []field.Rect{lo, hi}
}

func TestBandExchangerY(t *testing.T) {
	// A read exchanger delivers exactly the receiver's read set: the rows
	// it reads are valid, and the deeper halo rows stay untouched.
	g := grid.New(16, 12, 6)
	const py = 3 // blocks of 4 rows
	w := comm.NewWorld(py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, 1, 0, 4, 0)
		f := field.NewF3(tp.Block)
		fillOwned(g, f)
		ex := tp.NewReadExchanger(Sym(0, 4, 0), edgeReads)
		ex.Exchange([]*field.F3{f}, nil)
		b := tp.Block
		for j := b.J0 - 4; j < b.J1+4; j++ {
			if j < 0 || j >= g.Ny || j >= b.J0 && j < b.J1 {
				continue
			}
			read := j >= b.J0-2 && j < b.J1+2
			for i := 0; i < g.Nx; i++ {
				for k := b.K0; k < b.K1; k++ {
					want := 0.0
					if read {
						want = encode(g, i, j, k)
					}
					if got := f.At(i, j, k); got != want {
						t.Fatalf("halo row (%d,%d,%d), read %v: got %v want %v", i, j, k, read, got, want)
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
				ex = tp.NewReadExchanger(Sym(0, 6, 0), edgeReads)
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
		if interior && len(ex.f3.peers) != 8 {
			t.Errorf("interior rank (%d,%d) has %d peers, want 8", tp.Cy, tp.Cz, len(ex.f3.peers))
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
	const hx, hy, hz = 3, 11, 9 // comm-avoiding halo widths at M = 3 (dycore.Setup.HaloWidths)
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
		all := make([]float64, c.Size())
		c.Allgather([]float64{built}, all)
		if slices.Min(all) == 1 { // exchange only if no rank would be left waiting
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

// TestRectRunsProperty: the run lists an exchange lends and receives through
// hold exactly a rect's cells, in row-major (k, j, i) order, rect after rect,
// with rows that touch in storage merged — for random rects inside the
// storage region of a deep-halo block.
func TestRectRunsProperty(t *testing.T) {
	b := field.Block{Nx: 12, Ny: 10, Nz: 6, I0: 0, I1: 12, J0: 3, J1: 7, K0: 1, K1: 4, Hx: 2, Hy: 3, Hz: 2}
	f := field.NewF3(b)
	for n := range f.Data {
		f.Data[n] = float64(n)
	}
	w := b.WithHalo()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		var rects []field.Rect
		var want []float64
		for range 1 + rng.Intn(3) {
			i0, j0, k0 := w.I0+rng.Intn(w.I1-w.I0), w.J0+rng.Intn(w.J1-w.J0), w.K0+rng.Intn(w.K1-w.K0)
			r := field.Rect{I0: i0, I1: i0 + 1 + rng.Intn(w.I1-i0), J0: j0, J1: j0 + 1 + rng.Intn(w.J1-j0),
				K0: k0, K1: k0 + 1 + rng.Intn(w.K1-k0)}
			if trial%4 == 0 { // whole storage rows, which merge
				r.I0, r.I1 = w.I0, w.I1
			}
			rects = append(rects, r)
			for k := r.K0; k < r.K1; k++ {
				for j := r.J0; j < r.J1; j++ {
					for i := r.I0; i < r.I1; i++ {
						want = append(want, f.At(i, j, k))
					}
				}
			}
		}
		runs := rectRuns(f, rects)
		var got []float64
		for n, r := range runs {
			if n > 0 && runs[n-1].Off+runs[n-1].Len == r.Off {
				t.Fatalf("trial %d: runs %v and %v touch but were not merged", trial, runs[n-1], r)
			}
			got = append(got, f.Data[r.Off:r.Off+r.Len]...)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: rects %v: runs %v carry %v, want %v", trial, rects, runs, got, want)
		}
	}
}

// TestRectRunsRoundTrip: a rect lent through its run lists on one storage
// layout and received through its run lists on another arrives exactly, and
// no cell of the receiver outside the rect is written.
func TestRectRunsRoundTrip(t *testing.T) {
	sb := field.Block{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 2, J1: 6, K0: 1, K1: 3, Hx: 2, Hy: 2, Hz: 1}
	rb := field.Block{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 3, J1: 5, K0: 1, K1: 3, Hx: 2, Hy: 3, Hz: 1}
	r := field.Rect{I0: 2, I1: 7, J0: 3, J1: 6, K0: 1, K1: 3}
	rng := rand.New(rand.NewSource(1))
	f, g := field.NewF3(sb), field.NewF3(rb)
	for n := range f.Data {
		f.Data[n] = rng.NormFloat64()
	}
	for n := range g.Data {
		g.Data[n] = -1
	}
	comm.NewWorld(2, comm.Zero()).Run(func(c *comm.Comm) {
		rects := []field.Rect{r}
		if c.Rank() == 0 {
			var l comm.Loans
			c.Lend(1, 0, f.Data, rectRuns(f, rects), &l)
			l.Wait()
			return
		}
		if n := c.RecvRuns(0, 0, g.Data, rectRuns(g, rects)); n != r.Count() {
			t.Errorf("received %d values, want %d", n, r.Count())
		}
	})
	w := rb.WithHalo()
	for k := w.K0; k < w.K1; k++ {
		for j := w.J0; j < w.J1; j++ {
			for i := w.I0; i < w.I1; i++ {
				if got, in := g.At(i, j, k), r.Contains(i, j, k); in && got != f.At(i, j, k) || !in && got != -1 {
					t.Fatalf("(%d,%d,%d): got %v (in rect %v)", i, j, k, got, in)
				}
			}
		}
	}
}

// TestExchangeMixedStorageLayouts: one exchange may carry fields stored on
// different blocks (the dycore keeps each array on the extent it is written
// and read on); each field is lent and received through its own layout's
// run lists.
func TestExchangeMixedStorageLayouts(t *testing.T) {
	g := grid.New(16, 12, 6)
	const py, pz = 3, 2
	w := comm.NewWorld(py*pz, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := New(c, g, 1, py, pz, 0, 2, 2)
		wide := tp.Block
		wide.Hx, wide.Hy, wide.Hz = 2, 3, 3
		fs := []*field.F3{field.NewF3(tp.Block), field.NewF3(wide), field.NewF3(tp.Block)}
		ex := tp.NewExchanger(0, 2, 2)
		for round := 0; round < 2; round++ {
			for _, f := range fs {
				fillOwned(g, f)
			}
			ex.Exchange(fs, nil)
			for _, f := range fs {
				checkHalo(t, g, f, 0, 2, 2)
			}
		}
		if n := len(ex.f3.layouts); n != 2 {
			t.Errorf("%d storage layouts cached, want 2", n)
		}
	})
}
