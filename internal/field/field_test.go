package field

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func testBlock() Block {
	return Block{
		Nx: 12, Ny: 8, Nz: 4,
		I0: 0, I1: 12, J0: 2, J1: 6, K0: 1, K1: 3,
		Hx: 2, Hy: 2, Hz: 1,
	}
}

func TestBlockDims(t *testing.T) {
	b := testBlock()
	if o := b.Owned(); o.I1-o.I0 != 12 || o.J1-o.J0 != 4 || o.K1-o.K0 != 2 {
		t.Errorf("owned = %+v", o)
	}
	if w := b.WithHalo(); w.I1-w.I0 != 16 || w.J1-w.J0 != 8 || w.K1-w.K0 != 4 {
		t.Errorf("storage = %+v", w)
	}
	if !b.OwnsFullX() {
		t.Error("block owns all longitudes")
	}
}

func TestBlockValidate(t *testing.T) {
	bads := []Block{
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 0, J0: 0, J1: 8, K0: 0, K1: 4},          // empty x
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 9, K0: 0, K1: 4},         // y overflow
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 8, K0: -1, K1: 4},        // z underflow
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 8, K0: 0, K1: 4, Hx: -1}, // bad halo
	}
	for i, b := range bads {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d should panic", i)
				}
			}()
			b.Validate()
		}()
	}
}

func TestRectOps(t *testing.T) {
	r := Rect{I0: 0, I1: 4, J0: 0, J1: 3, K0: 0, K1: 2}
	if r.Count() != 24 {
		t.Errorf("count = %d", r.Count())
	}
	if r.Empty() {
		t.Error("not empty")
	}
	inter := r.Intersect(Rect{I0: 2, I1: 10, J0: 1, J1: 2, K0: 0, K1: 5})
	if inter != (Rect{I0: 2, I1: 4, J0: 1, J1: 2, K0: 0, K1: 2}) {
		t.Errorf("intersect = %+v", inter)
	}
	if !r.Intersect(Rect{I0: 5, I1: 6, J0: 0, J1: 3, K0: 0, K1: 2}).Empty() {
		t.Error("disjoint intersect should be empty")
	}
	if !r.Contains(3, 2, 1) || r.Contains(4, 0, 0) {
		t.Error("contains wrong")
	}
}

func TestF3IndexingAndHalo(t *testing.T) {
	f := NewF3(testBlock())
	f.Set(0, 2, 1, 42) // owned corner
	f.Set(-2, 0, 0, 7) // halo corner (lowest storage point)
	f.Set(13, 7, 3, 9) // halo high corner
	if f.At(0, 2, 1) != 42 || f.At(-2, 0, 0) != 7 || f.At(13, 7, 3) != 9 {
		t.Error("roundtrip failed")
	}
	f.Add(0, 2, 1, 1)
	if f.At(0, 2, 1) != 43 {
		t.Error("Add failed")
	}
}

func TestF3OutOfBoundsPanics(t *testing.T) {
	f := NewF3(testBlock())
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.At(0, 8, 1) // beyond the y halo (6+2 = 8 exclusive)
}

// storageFills runs a test of one of the unbounded fills twice: through the
// entry point itself and through FillBounds over the storage rect, which is
// the same fill (the test blocks store no ghosts the other pieces would touch).
func storageFills(t *testing.T, fill func(*F3), p Parity, st Stagger, test func(t *testing.T, fill func(*F3))) {
	t.Run("entry point", func(t *testing.T) { test(t, fill) })
	t.Run("storage rect", func(t *testing.T) {
		test(t, func(f *F3) { FillBounds(f, p, st, false, f.B.WithHalo()) })
	})
}

func TestFillXPeriodic(t *testing.T) {
	storageFills(t, (*F3).FillXPeriodic, Even, CenterY, func(t *testing.T, fill func(*F3)) {
		f := NewF3(testBlock())
		for j := 0; j < 8; j++ {
			for k := 0; k < 4; k++ {
				for i := 0; i < 12; i++ {
					f.Set(i, j, k, float64(100*i+10*j+k))
				}
			}
		}
		fill(f)
		for j := 0; j < 8; j++ {
			for k := 0; k < 4; k++ {
				if f.At(-1, j, k) != f.At(11, j, k) || f.At(-2, j, k) != f.At(10, j, k) {
					t.Fatalf("left halo wrong at j=%d k=%d", j, k)
				}
				if f.At(12, j, k) != f.At(0, j, k) || f.At(13, j, k) != f.At(1, j, k) {
					t.Fatalf("right halo wrong at j=%d k=%d", j, k)
				}
			}
		}
	})
}

func TestFillXPeriodicPanicsOnPartialX(t *testing.T) {
	b := testBlock()
	b.I1 = 6 // partial circle
	f := NewF3(b)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f.FillXPeriodic()
}

func TestOwnedReductions(t *testing.T) {
	b := testBlock()
	f := NewF3(b)
	// Poison the halos; owned reductions must ignore them.
	for i := range f.Data {
		f.Data[i] = 1e9
	}
	r := b.Owned()
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				f.Set(i, j, k, 1)
			}
		}
	}
	g := f.Clone()
	g.Data[0] = -1e9 // a halo cell
	g.Set(3, 4, 2, -5)
	if d := MaxAbsDiffOwned(f, g); d != 6 {
		t.Errorf("MaxAbsDiffOwned = %v, want 6", d)
	}
}

func TestAllFiniteOwned(t *testing.T) {
	f := NewF3(testBlock())
	// NaN in the halo is fine.
	f.Set(-1, 0, 0, nan())
	if !AllFiniteOwned(f) {
		t.Error("halo NaN should not fail the owned check")
	}
	f.Set(5, 3, 2, nan())
	if AllFiniteOwned(f) {
		t.Error("owned NaN must fail")
	}
}

func nan() float64 { z := 0.0; return z / z }

func TestPoleMirrorCenterEven(t *testing.T) {
	fill := func(f *F3) { FillPolesY(f, Even, CenterY) }
	storageFills(t, fill, Even, CenterY, func(t *testing.T, fill func(*F3)) {
		b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
		f := NewF3(b)
		for j := 0; j < 6; j++ {
			for i := 0; i < 8; i++ {
				f.Set(i, j, 0, float64(10+j))
			}
		}
		fill(f)
		if f.At(0, -1, 0) != 10 || f.At(0, -2, 0) != 11 {
			t.Errorf("north mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
		}
		if f.At(0, 6, 0) != 15 || f.At(0, 7, 0) != 14 {
			t.Errorf("south mirror: %v %v", f.At(0, 6, 0), f.At(0, 7, 0))
		}
	})
}

func TestPoleMirrorCenterOdd(t *testing.T) {
	fill := func(f *F3) { FillPolesY(f, Odd, CenterY) }
	storageFills(t, fill, Odd, CenterY, func(t *testing.T, fill func(*F3)) {
		b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 1, Hz: 0}
		f := NewF3(b)
		for j := 0; j < 6; j++ {
			f.Set(3, j, 1, float64(1+j))
		}
		fill(f)
		if f.At(3, -1, 1) != -1 {
			t.Errorf("odd north mirror: %v", f.At(3, -1, 1))
		}
		if f.At(3, 6, 1) != -6 {
			t.Errorf("odd south mirror: %v", f.At(3, 6, 1))
		}
	})
}

func TestPoleMirrorFaceY(t *testing.T) {
	fill := func(f *F3) { FillPolesY(f, Odd, FaceY) }
	storageFills(t, fill, Odd, FaceY, func(t *testing.T, fill func(*F3)) {
		b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
		f := NewF3(b)
		for j := 0; j < 6; j++ {
			for i := 0; i < 8; i++ {
				f.Set(i, j, 0, float64(1+j))
			}
		}
		fill(f)
		// Row 0 is the pole itself: forced to zero.
		if f.At(2, 0, 0) != 0 {
			t.Errorf("pole row not zeroed: %v", f.At(2, 0, 0))
		}
		// Ghost rows mirror with the sign flip about the pole point.
		if f.At(2, -1, 0) != -f.At(2, 1, 0) || f.At(2, -2, 0) != -f.At(2, 2, 0) {
			t.Errorf("north face mirror wrong: %v %v", f.At(2, -1, 0), f.At(2, -2, 0))
		}
		// Virtual south pole row Ny is zeroed; beyond mirrors row Ny−1.
		if f.At(2, 6, 0) != 0 {
			t.Errorf("south pole row not zeroed: %v", f.At(2, 6, 0))
		}
		if f.At(2, 7, 0) != -f.At(2, 5, 0) {
			t.Errorf("south face mirror wrong: %v", f.At(2, 7, 0))
		}
	})
}

func TestPoleMirrorDeepHaloFromInteriorBlock(t *testing.T) {
	// A block that does not own pole rows but whose deep halo extends past
	// the pole: the mirror must still fill the beyond-pole ghosts.
	fill := func(f *F3) { FillPolesY(f, Even, CenterY) }
	storageFills(t, fill, Even, CenterY, func(t *testing.T, fill func(*F3)) {
		b := Block{Nx: 8, Ny: 12, Nz: 2, I0: 0, I1: 8, J0: 3, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 5, Hz: 0}
		f := NewF3(b)
		for j := -2; j < 11; j++ { // storage rows; domain rows carry j+1
			for i := 0; i < 8; i++ {
				v := float64(j + 100)
				if j >= 0 {
					v = float64(j + 1)
				}
				f.Set(i, j, 0, v)
			}
		}
		// Overwrite domain rows with known values: row j holds j+1.
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				f.Set(i, j, 0, float64(j+1))
			}
		}
		fill(f)
		if f.At(0, -1, 0) != 1 || f.At(0, -2, 0) != 2 {
			t.Errorf("deep-halo pole mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
		}
	})
}

func TestFillVerticalZ(t *testing.T) {
	storageFills(t, FillVerticalZ, Even, CenterY, func(t *testing.T, fill func(*F3)) {
		b := Block{Nx: 8, Ny: 4, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 4, K0: 0, K1: 4, Hx: 0, Hy: 0, Hz: 2}
		f := NewF3(b)
		for k := 0; k < 4; k++ {
			for j := 0; j < 4; j++ {
				for i := 0; i < 8; i++ {
					f.Set(i, j, k, float64(k+1))
				}
			}
		}
		fill(f)
		// Storage stops boundaryReach.Z = 1 level past the model top/bottom
		// (Block.WithHalo), so the mirror fills exactly the stored ghost level
		// on each side, whatever Hz asks for.
		if w := b.WithHalo(); w.K0 != -1 || w.K1 != 5 {
			t.Fatalf("stored z range [%d,%d), want [-1,5)", w.K0, w.K1)
		}
		for j := 0; j < 4; j++ {
			for i := 0; i < 8; i++ {
				if f.At(i, j, -1) != 1 {
					t.Errorf("top mirror at (%d,%d): %v", i, j, f.At(i, j, -1))
				}
				if f.At(i, j, 4) != 4 {
					t.Errorf("bottom mirror at (%d,%d): %v", i, j, f.At(i, j, 4))
				}
			}
		}
	})
}

func TestF2Basics(t *testing.T) {
	f := NewF2(testBlock())
	f.Set(3, 4, 5)
	f.Add(3, 4, 1)
	if f.At(3, 4) != 6 {
		t.Error("F2 set/add failed")
	}
	f.Set(-2, 0, 9) // halo
	if f.At(-2, 0) != 9 {
		t.Error("F2 halo access failed")
	}
	g := f.Clone()
	if MaxAbsDiffOwned(&f.F3, g) != 0 {
		t.Error("clone differs")
	}
	r := Rect{I0: 1, I1: 5, J0: 2, J1: 5, K0: 1, K1: 3}
	h := NewF2(testBlock())
	h.CopyRect(r.Flat2D(), &f.F3)
	if h.At(3, 4) != 6 {
		t.Error("F2 CopyRect failed")
	}
	// A rect of the 3-D block's levels is not flattened: it fails loudly.
	if !panics(func() { h.CopyRect(r, &f.F3) }) {
		t.Error("F2 copied a rect outside its level")
	}
}

func TestF2FillXPeriodicAndPoles(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 2, Hy: 2, Hz: 0}
	f := NewF2(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, float64(i+10*j))
		}
	}
	f.FillXPeriodic()
	if f.At(-1, 3) != f.At(7, 3) || f.At(8, 3) != f.At(0, 3) {
		t.Error("F2 periodic fill wrong")
	}
	FillPolesY2(f, Even)
	if f.At(2, -1) != f.At(2, 0) || f.At(2, 6) != f.At(2, 5) {
		t.Error("F2 pole mirror wrong")
	}
}

func TestCopyRect(t *testing.T) {
	b := testBlock()
	src := NewF3(b)
	dst := NewF3(b)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	r := Rect{I0: 3, I1: 6, J0: 3, J1: 5, K0: 1, K1: 3}
	dst.CopyRect(r, src)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if dst.At(i, j, k) != src.At(i, j, k) {
					t.Fatal("CopyRect mismatch inside rect")
				}
			}
		}
	}
	if dst.At(0, 2, 1) != 0 {
		t.Error("CopyRect wrote outside rect")
	}
}

func TestShiftedPoleMirrorField(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 2, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(10*j+i))
		}
	}
	FillPolesYShifted(f, Even, CenterY)
	// Ghost at (i, −1) must hold the value from (i+Nx/2 mod Nx, 0).
	for i := -2; i < 10; i++ { // including x halos of the ghost row
		want := f.At(((i+4)%8+8)%8, 0, 0)
		if got := f.At(i, -1, 0); got != want {
			t.Fatalf("north shifted ghost at i=%d: got %v want %v", i, got, want)
		}
	}
	// South side mirrors row 5 with the shift.
	if got, want := f.At(1, 6, 0), f.At(5, 5, 0); got != want {
		t.Errorf("south shifted ghost: got %v want %v", got, want)
	}
	// Odd parity flips sign.
	FillPolesYShifted(f, Odd, CenterY)
	if got, want := f.At(0, -1, 0), -f.At(4, 0, 0); got != want {
		t.Errorf("odd shifted ghost: got %v want %v", got, want)
	}
	// Requires full circles.
	part := b
	part.I1 = 4
	g2 := NewF3(part)
	defer func() {
		if recover() == nil {
			t.Error("partial-circle shifted mirror should panic")
		}
	}()
	FillPolesYShifted(g2, Even, CenterY)
}

// TestStoredHaloClampedAtBoundaries pins the storage rule of Block.WithHalo:
// the stored depth on a y/z side is min(requested, distance from the owned
// edge to the pole or model top/bottom + boundaryReach), x stays symmetric,
// and Index refuses the first cell outside storage on every side.
func TestStoredHaloClampedAtBoundaries(t *testing.T) {
	if boundaryReach.Y != 2 || boundaryReach.Z != 1 {
		t.Fatalf("boundaryReach = %+v, want the single-application radii Y=2 Z=1 of the stencil tables", boundaryReach)
	}
	// Global mesh 16×48×12, the CA halo request (3, 11, 9) unless noted.
	mk := func(j0, j1, k0, k1, hy, hz int) Block {
		return Block{Nx: 16, Ny: 48, Nz: 12, I0: 0, I1: 16, J0: j0, J1: j1, K0: k0, K1: k1, Hx: 3, Hy: hy, Hz: hz}
	}
	for _, tc := range []struct {
		name       string
		b          Block
		want       Rect // stored region
		sx, sy, sz int
	}{
		{"north pole owner, top", mk(0, 12, 0, 6, 11, 9),
			Rect{I0: -3, I1: 19, J0: -2, J1: 23, K0: -1, K1: 13}, 22, 25, 14},
		{"pole-reaching (J0 < Hy, row 0 not owned), bottom", mk(6, 18, 6, 12, 11, 4),
			Rect{I0: -3, I1: 19, J0: -2, J1: 29, K0: 2, K1: 13}, 22, 31, 11},
		{"interior in y and z", mk(18, 30, 3, 5, 11, 2),
			Rect{I0: -3, I1: 19, J0: 7, J1: 41, K0: 1, K1: 7}, 22, 34, 6},
		{"south pole owner, whole column", mk(36, 48, 0, 12, 11, 9),
			Rect{I0: -3, I1: 19, J0: 25, J1: 50, K0: -1, K1: 13}, 22, 25, 14},
		{"baseline request equals the reach: nothing to cut", mk(0, 48, 0, 12, 2, 1),
			Rect{I0: -3, I1: 19, J0: -2, J1: 50, K0: -1, K1: 13}, 22, 52, 14},
		{"request below the reach is honoured as asked", mk(0, 48, 0, 12, 1, 0),
			Rect{I0: -3, I1: 19, J0: -1, J1: 49, K0: 0, K1: 12}, 22, 50, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.b.WithHalo(); got != tc.want {
				t.Fatalf("WithHalo = %v, want %v", got, tc.want)
			}
			f3, f2 := NewF3(tc.b), NewF2(tc.b)
			if len(f3.Data) != tc.sx*tc.sy*tc.sz || len(f2.Data) != tc.sx*tc.sy {
				t.Errorf("allocated %d / %d values, want %d / %d", len(f3.Data), len(f2.Data), tc.sx*tc.sy*tc.sz, tc.sx*tc.sy)
			}
			if i, j, k := f3.Origin(); i != tc.want.I0 || j != tc.want.J0 || k != tc.want.K0 {
				t.Errorf("F3 origin (%d,%d,%d), want the low corner of %v", i, j, k, tc.want)
			}
			if i, j, k := f2.Origin(); i != tc.want.I0 || j != tc.want.J0 || k != 0 {
				t.Errorf("F2 origin (%d,%d,%d), want the low corner of %v at level 0", i, j, k, tc.want)
			}
			// The corners of storage are addressable; one cell further out
			// on each of the six sides is not.
			w := tc.want
			f3.Index(w.I0, w.J0, w.K0)
			f3.Index(w.I1-1, w.J1-1, w.K1-1)
			f2.Index(w.I0, w.J0)
			f2.Index(w.I1-1, w.J1-1)
			for _, p := range [][3]int{
				{w.I0 - 1, w.J0, w.K0}, {w.I1, w.J0, w.K0},
				{w.I0, w.J0 - 1, w.K0}, {w.I0, w.J1, w.K0},
				{w.I0, w.J0, w.K0 - 1}, {w.I0, w.J0, w.K1},
			} {
				if !panics(func() { f3.Index(p[0], p[1], p[2]) }) {
					t.Errorf("F3.Index%v inside storage %v?", p, w)
				}
			}
			for _, p := range [][2]int{{w.I0 - 1, w.J0}, {w.I1, w.J0}, {w.I0, w.J0 - 1}, {w.I0, w.J1}} {
				if !panics(func() { f2.Index(p[0], p[1]) }) {
					t.Errorf("F2.Index%v inside storage %v?", p, w)
				}
			}
		})
	}
}

func panics(fn func()) (p bool) {
	defer func() { p = recover() != nil }()
	fn()
	return false
}

// TestPoleFillCoversClampedStorage: a block that does not own row 0 but whose
// deep halo crosses the pole gets exactly its stored ghost rows mirrored, from
// rows it received into its halo.
func TestPoleFillCoversClampedStorage(t *testing.T) {
	b := Block{Nx: 8, Ny: 24, Nz: 2, I0: 0, I1: 8, J0: 6, J1: 12, K0: 0, K1: 2, Hx: 1, Hy: 11, Hz: 0}
	for _, st := range []Stagger{CenterY, FaceY} {
		f := NewF3(b)
		w := b.WithHalo()
		for k := w.K0; k < w.K1; k++ {
			for j := 0; j < w.J1; j++ {
				for i := w.I0; i < w.I1; i++ {
					f.Set(i, j, k, float64(100*(j+1)+i))
				}
			}
		}
		FillPolesY(f, Odd, st)
		for j := w.J0; j < 0; j++ {
			src := -1 - j
			if st == FaceY {
				src = -j
			}
			for i := w.I0; i < w.I1; i++ {
				if got, want := f.At(i, j, 1), -float64(100*(src+1)+i); got != want {
					t.Fatalf("stagger %v ghost (%d,%d): got %v want %v", st, i, j, got, want)
				}
			}
		}
		if st == FaceY && f.At(0, 0, 0) != 0 {
			t.Errorf("FaceY pole row not zeroed: %v", f.At(0, 0, 0))
		}
	}
}

// oneLevelBlocks are the three block shapes of the one-level invariant: a
// north-pole block whose deep halo crosses the pole, an interior block whose
// deep halo reaches past both poles, and a south-pole block. Each owns levels
// other than 0, so a rect of its 3-D levels is not a rect of its 2-D fields.
func oneLevelBlocks() []Block {
	mk := func(j0, j1, k0, k1 int) Block {
		return Block{Nx: 16, Ny: 24, Nz: 6, I0: 0, I1: 16, J0: j0, J1: j1, K0: k0, K1: k1, Hx: 3, Hy: 11, Hz: 3}
	}
	return []Block{mk(0, 8, 3, 6), mk(8, 16, 1, 4), mk(16, 24, 2, 5)}
}

// TestF2IsOneLevelF3 pins the invariant 2-D fields rest on: an F2 is the
// one-level F3 on its block's footprint (Block.Flat2D). On each shape of
// oneLevelBlocks, NewF2 lays Data out and Index addresses it as that F3 does,
// and the kept 2-D entry points — FillPolesY2, the shifted mirror on the
// level and CopyRect — give bitwise the data and counts of the
// 3-D routines on a separately built one-level F3 holding the same values.
// The pole ghosts also match the mirror formulas f(−1−m) = f(m) and
// f(Ny+m) = f(Ny−1−m), read from the antipodal longitude when shifted.
func TestF2IsOneLevelF3(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for _, b := range oneLevelBlocks() {
		name := fmt.Sprintf("J[%d,%d)", b.J0, b.J1)
		w := b.WithHalo().Flat2D()
		f2, f3 := NewF2(b), NewF3(b.Flat2D())
		if f2.B != f3.B || len(f2.Data) != len(f3.Data) || len(f2.Data) != w.Count() {
			t.Fatalf("%s: F2 on %+v with %d values, one-level F3 on %+v with %d, storage %v", name, f2.B, len(f2.Data), f3.B, len(f3.Data), w)
		}
		for j := w.J0; j < w.J1; j++ {
			for i := w.I0; i < w.I1; i++ {
				if f2.Index(i, j) != f3.Index(i, j, 0) {
					t.Fatalf("%s: Index(%d,%d) = %d, one-level F3 %d", name, i, j, f2.Index(i, j), f3.Index(i, j, 0))
				}
			}
		}
		for n := range f2.Data {
			f2.Data[n] = rng.NormFloat64()
		}
		same := func(what string) {
			t.Helper()
			for n := range f2.Data {
				if math.Float64bits(f2.Data[n]) != math.Float64bits(f3.Data[n]) {
					t.Fatalf("%s %s: offset %d: F2 %v, one-level F3 %v", name, what, n, f2.Data[n], f3.Data[n])
				}
			}
		}

		for _, shifted := range []bool{false, true} {
			copy(f3.Data, f2.Data)
			pre := f2.Clone()
			if shifted {
				FillPolesYShifted(&f2.F3, Even, CenterY)
				FillPolesYShifted(f3, Even, CenterY)
			} else {
				FillPolesY2(f2, Even)
				FillPolesY(f3, Even, CenterY)
			}
			same(fmt.Sprintf("pole mirror (shifted=%v)", shifted))
			for j := w.J0; j < w.J1; j++ {
				src := j
				switch {
				case j < 0:
					src = -1 - j
				case j >= b.Ny:
					src = 2*b.Ny - 1 - j
				}
				for i := w.I0; i < w.I1; i++ {
					si := i
					if shifted && src != j {
						si = ((i+b.Nx/2)%b.Nx + b.Nx) % b.Nx
					}
					if want := pre.At(si, src, 0); src != j && f2.At(i, j) != want {
						t.Fatalf("%s shifted=%v: ghost (%d,%d) = %v, want %v from (%d,%d)", name, shifted, i, j, f2.At(i, j), want, si, src)
					}
				}
			}
		}

		src2, src3 := NewF2(b), NewF3(b.Flat2D())
		for n := range src2.Data {
			src2.Data[n] = rng.NormFloat64()
		}
		copy(src3.Data, src2.Data)
		r := b.Owned()
		r.J0, r.J1 = max(r.J0-4, w.J0), min(r.J1+4, w.J1)
		f2.CopyRect(r.Flat2D(), &src2.F3)
		f3.CopyRect(r.Flat2D(), src3)
		same("CopyRect")

		if !panics(func() { f2.CopyRect(r, &src2.F3) }) {
			t.Fatalf("%s: F2 copied a rect of levels [%d,%d)", name, r.K0, r.K1)
		}
	}
}

// TestSetLevelReaimsOnePlane: a one-level field re-aimed at level k
// addresses level k in its one stored plane (values kept), and a field that
// stores more than one level refuses.
func TestSetLevelReaimsOnePlane(t *testing.T) {
	b := Block{Nx: 8, Ny: 4, Nz: 5, I0: 0, I1: 8, J0: 0, J1: 4, K0: 0, K1: 1, Hx: 1}
	f := NewF3(b)
	f.Set(3, 2, 0, 7)
	f.SetLevel(4)
	if got := f.At(3, 2, 4); got != 7 || len(f.Data) != 10*4 {
		t.Fatalf("after SetLevel(4): At(3,2,4) = %v, %d values stored; want 7, 40", got, len(f.Data))
	}
	if w := f.B.WithHalo(); w.K0 != 4 || w.K1 != 5 {
		t.Errorf("after SetLevel(4) the block stores levels [%d,%d), want [4,5)", w.K0, w.K1)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetLevel on a field with a z halo did not panic")
		}
	}()
	b.Hz = 1
	NewF3(b).SetLevel(2)
}
