package filter

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"cadycore/internal/fft"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/topo"
)

func testGrid() *grid.Grid { return grid.New(32, 16, 4) }

func fullBlock(g *grid.Grid) field.Block {
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: 0, I1: g.Nx, J0: 0, J1: g.Ny, K0: 0, K1: g.Nz,
	}
}

func TestCutoffProfile(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	half := g.Nx / 2
	for j := 0; j < g.Ny; j++ {
		m := f.MMax(j)
		if m < 1 || m > half {
			t.Errorf("row %d: m_max = %d outside [1, %d]", j, m, half)
		}
		lat := math.Abs(g.LatitudeDeg(j))
		if lat < 60 && m != half {
			t.Errorf("row %d (lat %.1f) should be unfiltered, m_max = %d", j, lat, m)
		}
		if lat > 60 && m >= half {
			t.Errorf("row %d (lat %.1f) should be filtered", j, lat)
		}
	}
	// Monotone: rows closer to a pole keep fewer waves.
	for j := 1; j < g.Ny/2; j++ {
		if f.MMax(j-1) > f.MMax(j) {
			t.Errorf("m_max not monotone toward the north pole at %d", j)
		}
	}
}

func TestGhostRowCutoffMirrors(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	if f.MMax(-1) != f.MMax(0) || f.MMax(-2) != f.MMax(1) {
		t.Error("north ghost cutoffs must mirror")
	}
	if f.MMax(g.Ny) != f.MMax(g.Ny-1) || f.MMax(g.Ny+1) != f.MMax(g.Ny-2) {
		t.Error("south ghost cutoffs must mirror")
	}
}

func TestLowWavesPassExactly(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	j := 0 // most filtered row
	mKeep := f.MMax(j)
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Cos(2 * math.Pi * float64(i) / float64(g.Nx) * float64(mKeep))
	}
	want := append([]float64(nil), row...)
	f.FilterRow(row, j)
	for i := range row {
		if math.Abs(row[i]-want[i]) > 1e-10 {
			t.Fatalf("retained wave distorted at %d: %v vs %v", i, row[i], want[i])
		}
	}
}

func TestHighWavesRemoved(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	j := 0
	m := f.MMax(j) + 1
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Sin(2 * math.Pi * float64(i) / float64(g.Nx) * float64(m))
	}
	f.FilterRow(row, j)
	for i := range row {
		if math.Abs(row[i]) > 1e-10 {
			t.Fatalf("wave m=%d not removed: row[%d]=%v", m, i, row[i])
		}
	}
}

func TestIdempotent(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(3))
	for _, j := range []int{0, 1, g.Ny - 1} {
		row := make([]float64, g.Nx)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		f.FilterRow(row, j)
		once := append([]float64(nil), row...)
		f.FilterRow(row, j)
		for i := range row {
			if math.Abs(row[i]-once[i]) > 1e-12 {
				t.Fatalf("row %d: filter not idempotent at %d", j, i)
			}
		}
	}
}

func TestUnfilteredRowsCostNothing(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	fld := field.NewF3(fullBlock(g))
	// Rect covering only equatorial rows.
	r := field.Rect{I0: 0, I1: g.Nx, J0: g.Ny/2 - 1, J1: g.Ny/2 + 1, K0: 0, K1: 1}
	if rows := f.Apply(fld, r); rows != 0 {
		t.Errorf("equatorial rows transformed: %d", rows)
	}
}

func TestApplyMatchesRowFilter(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(4))
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = rng.NormFloat64()
	}
	ref := fld.Clone()
	f.Apply(fld, fullBlock(g).Owned())
	row := make([]float64, g.Nx)
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			base := ref.Index(0, j, k)
			copy(row, ref.Data[base:base+g.Nx])
			f.FilterRow(row, j)
			for i := 0; i < g.Nx; i++ {
				if fld.At(i, j, k) != row[i] {
					t.Fatalf("Apply differs from FilterRow at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestDistributedMatchesSerial(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(5))
	global := make([]float64, g.Nx*g.Ny*g.Nz)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(i, j, k int) float64 { return global[(k*g.Ny+j)*g.Nx+i] }

	// Serial reference.
	ser := field.NewF3(fullBlock(g))
	for k := 0; k < g.Nz; k++ {
		for j := 0; j < g.Ny; j++ {
			for i := 0; i < g.Nx; i++ {
				ser.Set(i, j, k, at(i, j, k))
			}
		}
	}
	fser := New(g, 60)
	fser.Apply(ser, fullBlock(g).Owned())

	for _, pg := range [][2]int{{2, 1}, {4, 2}, {2, 4}} {
		px, py := pg[0], pg[1]
		w := comm.NewWorld(px*py, comm.Zero())
		w.Run(func(c *comm.Comm) {
			tp := topo.New(c, g, px, py, 1, 3, 1, 1)
			fld := field.NewF3(tp.Block)
			b := tp.Block
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						fld.Set(i, j, k, at(i, j, k))
					}
				}
			}
			f := New(g, 60)
			f.ApplyDistBatch(tp, []*field.F3{fld})
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						if got, want := fld.At(i, j, k), ser.At(i, j, k); got != want {
							t.Fatalf("px=%d py=%d: (%d,%d,%d) got %v want %v", px, py, i, j, k, got, want)
						}
					}
				}
			}
		})
		// The distributed filter must actually communicate (px > 1).
		if w.Stats().MsgsByCat[comm.CatCollectiveX] == 0 {
			t.Errorf("px=%d: distributed filter sent no x-collective messages", px)
		}
	}
}

func TestDistributed2DMatchesSerial(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(6))
	global := make([]float64, g.Nx*g.Ny)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(i, j int) float64 { return global[j*g.Nx+i] }

	ser := field.NewF2(fullBlock(g))
	for j := 0; j < g.Ny; j++ {
		for i := 0; i < g.Nx; i++ {
			ser.Set(i, j, at(i, j))
		}
	}
	fser := New(g, 60)
	fser.Apply2(ser, fullBlock(g).Owned())

	const px, py = 4, 2
	w := comm.NewWorld(px*py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, px, py, 1, 3, 1, 1)
		fld := field.NewF2(tp.Block)
		b := tp.Block
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				fld.Set(i, j, at(i, j))
			}
		}
		f := New(g, 60)
		f.ApplyDistBatch(tp, []*field.F3{&fld.F3})
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if got, want := fld.At(i, j), ser.At(i, j); got != want {
					t.Fatalf("(%d,%d) got %v want %v", i, j, got, want)
				}
			}
		}
	})
}

func TestSerialFilterNoComm(t *testing.T) {
	// The Y-Z configuration's filter must move zero bytes (Theorem 4.1 with
	// η_x = 0: the whole point of choosing p_x = 1).
	g := testGrid()
	w := comm.NewWorld(2, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, 1, 2, 1, 3, 1, 1)
		fld := field.NewF3(tp.Block)
		f := New(g, 60)
		f.ApplyDistBatch(tp, []*field.F3{fld}) // the serial path when RowX is trivial
	})
	if got := w.Stats().MsgsByCat[comm.CatCollectiveX]; got != 0 {
		t.Errorf("p_x = 1 filter sent %d messages, want 0", got)
	}
}

func TestFilterTruncatesSpectrum(t *testing.T) {
	// Structural link between the filter and the spectral diagnostic: after
	// filtering, a polar row has no energy above its cutoff.
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(9))
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = rng.NormFloat64()
	}
	f.Apply(fld, fullBlock(g).Owned())
	j := 0 // strongly filtered row
	row := make([]float64, g.Nx)
	base := fld.Index(0, j, 0)
	copy(row, fld.Data[base:base+g.Nx])
	coef := fft.NewPlan(g.Nx).ForwardReal(row, nil)
	for m := f.MMax(j) + 1; m <= g.Nx/2; m++ {
		if a := cmplx.Abs(coef[m]); a > 1e-10 {
			t.Errorf("energy above cutoff at m=%d: %v", m, a)
		}
	}
}

func TestBatchedMatchesPerField(t *testing.T) {
	// One transpose round-trip for all fields must equal serial per-field
	// filtering of complete rows bitwise, and enter exactly two Alltoalls on
	// every member of each x-row communicator.
	g := testGrid()
	rng := rand.New(rand.NewSource(10))
	global := make([]float64, 4*g.Nx*g.Ny*g.Nz)
	for i := range global {
		global[i] = rng.NormFloat64()
	}
	at := func(f, i, j, k int) float64 { return global[((f*g.Nz+k)*g.Ny+j)*g.Nx+i] }
	fill3 := func(fld *field.F3, fi int) {
		b := fld.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					fld.Set(i, j, k, at(fi, i, j, k))
				}
			}
		}
	}
	fill2 := func(fld *field.F2) {
		b := fld.B
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				fld.Set(i, j, at(3, i, j, 0))
			}
		}
	}

	// Serial reference: Apply/Apply2 on full-circle fields.
	fser := New(g, 60)
	ser := make([]*field.F3, 3)
	for fi := range ser {
		ser[fi] = field.NewF3(fullBlock(g))
		fill3(ser[fi], fi)
		fser.Apply(ser[fi], fullBlock(g).Owned())
	}
	ser2 := field.NewF2(fullBlock(g))
	fill2(ser2)
	fser.Apply2(ser2, fullBlock(g).Owned())

	const px, py = 4, 2
	w := comm.NewWorld(px*py, comm.Zero())
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, px, py, 1, 3, 1, 1)
		b := tp.Block
		f3s := make([]*field.F3, 3)
		for fi := range f3s {
			f3s[fi] = field.NewF3(b)
			fill3(f3s[fi], fi)
		}
		f2 := field.NewF2(b)
		fill2(f2)
		New(g, 60).ApplyDistBatch(tp, append(f3s, &f2.F3))
		for fi, fld := range f3s {
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						if got, want := fld.At(i, j, k), ser[fi].At(i, j, k); got != want {
							t.Fatalf("rank %d field %d (%d,%d,%d): batched %v != serial %v", c.Rank(), fi, i, j, k, got, want)
						}
					}
				}
			}
		}
		for j := b.J0; j < b.J1; j++ {
			for i := b.I0; i < b.I1; i++ {
				if got, want := f2.At(i, j), ser2.At(i, j); got != want {
					t.Fatalf("rank %d 2-D (%d,%d): batched %v != serial %v", c.Rank(), i, j, got, want)
				}
			}
		}
	})
	if got, want := w.Stats().CollByCat[comm.CatCollectiveX], int64(2*px*py); got != want {
		t.Errorf("batched filter entered %d x-collectives over %d ranks, want two per rank (%d)", got, px*py, want)
	}
}

func TestFilterRowMatchesComplexReference(t *testing.T) {
	// The rfft fast path must reproduce the original full-complex filter
	// (forward, zero m ∈ [mmax+1, Nx−mmax−1], inverse) to 1e-12.
	g := testGrid()
	f := New(g, 60)
	rng := rand.New(rand.NewSource(21))
	plan := fft.NewPlan(g.Nx)
	for _, j := range []int{0, 1, 2, g.Ny - 1} {
		row := make([]float64, g.Nx)
		for i := range row {
			row[i] = rng.NormFloat64()
		}
		ref := append([]float64(nil), row...)
		coef := plan.ForwardReal(ref, nil)
		for m := f.MMax(j) + 1; m <= g.Nx-f.MMax(j)-1; m++ {
			coef[m] = 0
		}
		plan.Inverse(coef)
		for i, v := range coef {
			ref[i] = real(v)
		}

		f.FilterRow(row, j)
		for i := range row {
			if math.Abs(row[i]-ref[i]) > 1e-12 {
				t.Fatalf("row %d: rfft path differs from complex reference at %d: %v vs %v",
					j, i, row[i], ref[i])
			}
		}
	}
}

func TestFilterRowZeroAlloc(t *testing.T) {
	// The steady-state step depends on row filtering being allocation-free.
	g := testGrid()
	f := New(g, 60)
	row := make([]float64, g.Nx)
	for i := range row {
		row[i] = math.Sin(float64(i))
	}
	allocs := testing.AllocsPerRun(200, func() {
		f.FilterRow(row, 0)
	})
	if allocs != 0 {
		t.Errorf("FilterRow allocated %v per op, want 0", allocs)
	}
}

func TestApplyZeroAlloc(t *testing.T) {
	g := testGrid()
	f := New(g, 60)
	fld := field.NewF3(fullBlock(g))
	for i := range fld.Data {
		fld.Data[i] = math.Cos(float64(i))
	}
	rect := fullBlock(g).Owned()
	allocs := testing.AllocsPerRun(20, func() {
		f.Apply(fld, rect)
	})
	if allocs != 0 {
		t.Errorf("Apply allocated %v per op, want 0", allocs)
	}
}

// TestApply2IsApplyOnOneLevel: Apply2 filters a 2-D field as Apply filters a
// one-level F3 holding the same values — bitwise data and row count — over a
// 3-D rect (flattened by Apply2) on a north-pole block whose deep halo
// crosses the pole, an interior block and a south-pole block.
func TestApply2IsApplyOnOneLevel(t *testing.T) {
	g := testGrid()
	rng := rand.New(rand.NewSource(40))
	for _, rows := range [][2]int{{0, 6}, {6, 11}, {11, 16}} {
		b := field.Block{Nx: g.Nx, Ny: g.Ny, Nz: g.Nz, I0: 0, I1: g.Nx, J0: rows[0], J1: rows[1], K0: 1, K1: 3, Hx: 3, Hy: 8, Hz: 2}
		f2, f3 := field.NewF2(b), field.NewF3(b.Flat2D())
		for n := range f2.Data {
			f2.Data[n] = rng.NormFloat64()
		}
		copy(f3.Data, f2.Data)
		r := b.Owned()
		r.J0, r.J1 = max(r.J0-3, 0), min(r.J1+3, g.Ny)
		n2 := New(g, 60).Apply2(f2, r)
		n3 := New(g, 60).Apply(f3, r.Flat2D())
		if n2 != n3 || n2 == 0 {
			t.Fatalf("rows %v: Apply2 filtered %d rows, Apply on one level %d", rows, n2, n3)
		}
		for n := range f3.Data {
			if math.Float64bits(f2.Data[n]) != math.Float64bits(f3.Data[n]) {
				t.Fatalf("rows %v offset %d: Apply2 %v, Apply on one level %v", rows, n, f2.Data[n], f3.Data[n])
			}
		}
	}
}
