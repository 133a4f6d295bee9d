package field

import (
	"math/rand"
	"testing"
	"testing/quick"
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
	nx, ny, nz := b.Dims()
	if nx != 12 || ny != 4 || nz != 2 {
		t.Errorf("dims = %d %d %d", nx, ny, nz)
	}
	sx, sy, sz := b.StorageDims()
	if sx != 16 || sy != 8 || sz != 4 {
		t.Errorf("storage = %d %d %d", sx, sy, sz)
	}
	if !b.OwnsFullX() {
		t.Error("block owns all longitudes")
	}
}

func TestBlockValidate(t *testing.T) {
	bads := []Block{
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 0, J0: 0, J1: 8, K0: 0, K1: 4},    // empty x
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 9, K0: 0, K1: 4},   // y overflow
		{Nx: 12, Ny: 8, Nz: 4, I0: 0, I1: 12, J0: 0, J1: 8, K0: -1, K1: 4},  // z underflow
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
	if s := r.Shrink(1, 1, 0); s != (Rect{I0: 1, I1: 3, J0: 1, J1: 2, K0: 0, K1: 2}) {
		t.Errorf("shrink = %+v", s)
	}
}

func TestF3IndexingAndHalo(t *testing.T) {
	f := NewF3(testBlock())
	f.Set(0, 2, 1, 42)    // owned corner
	f.Set(-2, 0, 0, 7)    // halo corner (lowest storage point)
	f.Set(13, 7, 3, 9)    // halo high corner
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

func TestF3PackUnpackRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := NewF3(testBlock())
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	r := Rect{I0: 2, I1: 7, J0: 3, J1: 6, K0: 1, K1: 3}
	buf := make([]float64, r.Count())
	n := f.Pack(r, buf)
	if n != r.Count() {
		t.Fatalf("packed %d, want %d", n, r.Count())
	}
	g := NewF3(testBlock())
	g.Unpack(r, buf)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if g.At(i, j, k) != f.At(i, j, k) {
					t.Fatalf("mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestPackUnpackProperty(t *testing.T) {
	// Property: Unpack(Pack(rect)) restores exactly the rect, for random
	// rects inside the storage region.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := testBlock()
		src := NewF3(b)
		for i := range src.Data {
			src.Data[i] = rng.NormFloat64()
		}
		w := b.WithHalo()
		i0 := w.I0 + rng.Intn(4)
		j0 := w.J0 + rng.Intn(3)
		k0 := w.K0 + rng.Intn(2)
		r := Rect{I0: i0, I1: i0 + 1 + rng.Intn(w.I1-i0), J0: j0, J1: j0 + 1 + rng.Intn(w.J1-j0),
			K0: k0, K1: k0 + 1 + rng.Intn(w.K1-k0)}
		buf := make([]float64, r.Count())
		src.Pack(r, buf)
		dst := NewF3(b)
		dst.Unpack(r, buf)
		for k := r.K0; k < r.K1; k++ {
			for j := r.J0; j < r.J1; j++ {
				for i := r.I0; i < r.I1; i++ {
					if dst.At(i, j, k) != src.At(i, j, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestFillXPeriodic(t *testing.T) {
	f := NewF3(testBlock())
	for j := 0; j < 8; j++ {
		for k := 0; k < 4; k++ {
			for i := 0; i < 12; i++ {
				f.Set(i, j, k, float64(100*i+10*j+k))
			}
		}
	}
	f.FillXPeriodic()
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

func TestLinearOps(t *testing.T) {
	b := testBlock()
	x, y, d := NewF3(b), NewF3(b), NewF3(b)
	rng := rand.New(rand.NewSource(2))
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
		y.Data[i] = rng.NormFloat64()
	}
	Lin2(d, 2, x, 3, y)
	for i := range d.Data {
		if d.Data[i] != 2*x.Data[i]+3*y.Data[i] {
			t.Fatal("Lin2 wrong")
		}
	}
	z := x.Clone()
	Axpy(z, -2, y)
	for i := range z.Data {
		want := x.Data[i] - 2*y.Data[i]
		if z.Data[i] != want {
			t.Fatal("Axpy wrong")
		}
	}
	Mean2(d, x, y)
	for i := range d.Data {
		if d.Data[i] != 0.5*x.Data[i]+0.5*y.Data[i] {
			t.Fatal("Mean2 wrong")
		}
	}
	Scale(z, 0)
	if SumOwned(z) != 0 {
		t.Error("Scale(0) should zero")
	}
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
	if s := SumOwned(f); s != float64(r.Count()) {
		t.Errorf("SumOwned = %v, want %v", s, r.Count())
	}
	if m := MaxAbsOwned(f); m != 1 {
		t.Errorf("MaxAbsOwned = %v", m)
	}
	g := f.Clone()
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
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(10+j))
		}
	}
	FillPolesY(f, Even, CenterY)
	if f.At(0, -1, 0) != 10 || f.At(0, -2, 0) != 11 {
		t.Errorf("north mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
	}
	if f.At(0, 6, 0) != 15 || f.At(0, 7, 0) != 14 {
		t.Errorf("south mirror: %v %v", f.At(0, 6, 0), f.At(0, 7, 0))
	}
}

func TestPoleMirrorCenterOdd(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 1, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		f.Set(3, j, 1, float64(1+j))
	}
	FillPolesY(f, Odd, CenterY)
	if f.At(3, -1, 1) != -1 {
		t.Errorf("odd north mirror: %v", f.At(3, -1, 1))
	}
	if f.At(3, 6, 1) != -6 {
		t.Errorf("odd south mirror: %v", f.At(3, 6, 1))
	}
}

func TestPoleMirrorFaceY(t *testing.T) {
	b := Block{Nx: 8, Ny: 6, Nz: 2, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 2, Hx: 0, Hy: 2, Hz: 0}
	f := NewF3(b)
	for j := 0; j < 6; j++ {
		for i := 0; i < 8; i++ {
			f.Set(i, j, 0, float64(1+j))
		}
	}
	FillPolesY(f, Odd, FaceY)
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
}

func TestPoleMirrorDeepHaloFromInteriorBlock(t *testing.T) {
	// A block that does not own pole rows but whose deep halo extends past
	// the pole: the mirror must still fill the beyond-pole ghosts.
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
	FillPolesY(f, Even, CenterY)
	if f.At(0, -1, 0) != 1 || f.At(0, -2, 0) != 2 {
		t.Errorf("deep-halo pole mirror: %v %v", f.At(0, -1, 0), f.At(0, -2, 0))
	}
}

func TestFillVerticalZ(t *testing.T) {
	b := Block{Nx: 8, Ny: 4, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 4, K0: 0, K1: 4, Hx: 0, Hy: 0, Hz: 2}
	f := NewF3(b)
	for k := 0; k < 4; k++ {
		for j := 0; j < 4; j++ {
			for i := 0; i < 8; i++ {
				f.Set(i, j, k, float64(k + 1))
			}
		}
	}
	FillVerticalZ(f)
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
	if MaxAbsDiffOwned2(f, g) != 0 {
		t.Error("clone differs")
	}
	r := Rect{I0: 1, I1: 5, J0: 2, J1: 5}
	buf := make([]float64, r.Flat2D().Count())
	f.Pack(r, buf)
	h := NewF2(testBlock())
	h.Unpack(r, buf)
	if h.At(3, 4) != 6 {
		t.Error("F2 pack/unpack failed")
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
			sx, sy, sz := tc.b.StorageDims()
			if sx != tc.sx || sy != tc.sy || sz != tc.sz {
				t.Errorf("StorageDims = %d×%d×%d, want %d×%d×%d", sx, sy, sz, tc.sx, tc.sy, tc.sz)
			}
			f3, f2 := NewF3(tc.b), NewF2(tc.b)
			if len(f3.Data) != tc.sx*tc.sy*tc.sz || len(f2.Data) != tc.sx*tc.sy {
				t.Errorf("allocated %d / %d values, want %d / %d", len(f3.Data), len(f2.Data), tc.sx*tc.sy*tc.sz, tc.sx*tc.sy)
			}
			if i, j, k := f3.Origin(); i != tc.want.I0 || j != tc.want.J0 || k != tc.want.K0 {
				t.Errorf("F3 origin (%d,%d,%d), want the low corner of %v", i, j, k, tc.want)
			}
			if i, j := f2.Origin(); i != tc.want.I0 || j != tc.want.J0 {
				t.Errorf("F2 origin (%d,%d), want the low corner of %v", i, j, tc.want)
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
