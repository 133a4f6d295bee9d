package field

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func opsBlock() Block {
	return Block{Nx: 8, Ny: 6, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 4, Hx: 2, Hy: 2, Hz: 1}
}

// edgyValue draws from ±0, subnormals, large magnitudes and ordinary values,
// so a fused kernel that rounded differently from its composition (or lost
// the sign of a zero) shows up bitwise.
func edgyValue(rng *rand.Rand) float64 {
	var v float64
	switch rng.Intn(6) {
	case 0:
		v = 0
	case 1:
		v = math.SmallestNonzeroFloat64 * float64(1+rng.Intn(1<<20))
	case 2:
		v = math.MaxFloat64 / float64(1+rng.Intn(8))
	case 3:
		v = 1e300 * rng.NormFloat64()
	default:
		v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-10))
	}
	if rng.Intn(2) == 0 {
		v = -v
	}
	return v
}

// randRect draws a rect inside the storage of b, often empty (a reversed or
// collapsed extent) or one level thick.
func randRect(rng *rand.Rand, b Block) Rect {
	w := b.WithHalo()
	span := func(lo, hi int) (int, int) {
		a, c := lo+rng.Intn(hi-lo+1), lo+rng.Intn(hi-lo+1)
		if a > c && rng.Intn(3) > 0 {
			a, c = c, a
		}
		return a, c
	}
	r := Rect{}
	r.I0, r.I1 = span(w.I0, w.I1)
	r.J0, r.J1 = span(w.J0, w.J1)
	r.K0, r.K1 = span(w.K0, w.K1)
	if rng.Intn(3) == 0 && r.K0 < w.K1 {
		r.K1 = r.K0 + 1
	}
	return r
}

// TestMidRectMatchesComposition: the fused midpoint sweep writes, bit for
// bit, what the η2 update followed by the mean wrote — Lin2Rect(e, 1, x, dt,
// y) then Lin2Rect(d, ½, x, ½, e) — inside r, and nothing outside it.
func TestMidRectMatchesComposition(t *testing.T) {
	b := opsBlock()
	rng := rand.New(rand.NewSource(7))
	x, y, d0 := NewF3(b), NewF3(b), NewF3(b)
	for i := range x.Data {
		x.Data[i], y.Data[i], d0.Data[i] = edgyValue(rng), edgyValue(rng), edgyValue(rng)
	}
	empty, thin := 0, 0
	for trial := 0; trial < 300; trial++ {
		r := randRect(rng, b)
		if r.Empty() {
			empty++
		} else if r.K1-r.K0 == 1 {
			thin++
		}
		dt := edgyValue(rng)

		// Lin2Rect assumes a rect inside storage with I0 ≤ I1; an empty
		// rect writes nothing.
		want := d0.Clone()
		if !r.Empty() {
			e := NewF3(b)
			Lin2Rect(e, 1, x, dt, y, r)
			Lin2Rect(want, 0.5, x, 0.5, e, r)
		}
		got := d0.Clone()
		MidRect(got, x, dt, y, r)
		for n := range got.Data {
			if math.Float64bits(got.Data[n]) != math.Float64bits(want.Data[n]) {
				t.Fatalf("rect %v, dt %g, offset %d: fused %v vs composed %v", r, dt, n, got.Data[n], want.Data[n])
			}
		}
	}
	if empty == 0 || thin == 0 {
		t.Fatalf("draws covered %d empty and %d one-level rects, want some of each", empty, thin)
	}
}

// TestMidRect2MatchesComposition is TestMidRectMatchesComposition on a 2-D
// field's level, over flattened rects.
func TestMidRect2MatchesComposition(t *testing.T) {
	b := opsBlock()
	rng := rand.New(rand.NewSource(11))
	x, y, d0 := &NewF2(b).F3, &NewF2(b).F3, &NewF2(b).F3
	for i := range x.Data {
		x.Data[i], y.Data[i], d0.Data[i] = edgyValue(rng), edgyValue(rng), edgyValue(rng)
	}
	for trial := 0; trial < 300; trial++ {
		r := randRect(rng, b).Flat2D()
		dt := edgyValue(rng)

		want := d0.Clone()
		if !r.Empty() {
			e := &NewF2(b).F3
			Lin2Rect(e, 1, x, dt, y, r)
			Lin2Rect(want, 0.5, x, 0.5, e, r)
		}
		got := d0.Clone()
		MidRect(got, x, dt, y, r)
		for n := range got.Data {
			if math.Float64bits(got.Data[n]) != math.Float64bits(want.Data[n]) {
				t.Fatalf("rect %v, dt %g, offset %d: fused %v vs composed %v", r, dt, n, got.Data[n], want.Data[n])
			}
		}
	}
}

// narrowOf returns b with no y or z halo: the storage of a tendency computed
// on the owned block, keeping b's x halo as every tendency does.
func narrowOf(b Block) Block {
	b.Hy, b.Hz = 0, 0
	return b
}

// TestTendencyOpsNarrowBlock: a tendency stored on a narrower block than the
// states it updates gives, over a rect its storage contains, bitwise what a
// same-block tendency holding the same values there gives, and the sweeps
// write nothing outside the rect.
func TestTendencyOpsNarrowBlock(t *testing.T) {
	b := Block{Nx: 8, Ny: 12, Nz: 6, I0: 0, I1: 8, J0: 4, J1: 8, K0: 2, K1: 4, Hx: 2, Hy: 3, Hz: 2}
	nb := narrowOf(b)
	rng := rand.New(rand.NewSource(5))
	x, d0, wide := NewF3(b), NewF3(b), NewF3(b)
	x2, d02, wide2 := NewF2(b), NewF2(b), NewF2(b)
	for i := range x.Data {
		x.Data[i], d0.Data[i], wide.Data[i] = edgyValue(rng), edgyValue(rng), edgyValue(rng)
	}
	for i := range x2.Data {
		x2.Data[i], d02.Data[i], wide2.Data[i] = edgyValue(rng), edgyValue(rng), edgyValue(rng)
	}
	narrow, narrow2 := NewF3(nb), NewF2(nb)
	stored := nb.WithHalo()
	narrow.CopyRect(stored, wide)
	narrow2.CopyRect(stored.Flat2D(), &wide2.F3)
	dt := 0.37
	for _, r := range []Rect{stored, b.Owned(), {I0: 1, I1: 6, J0: 5, J1: 7, K0: 3, K1: 4}} {
		r2 := r.Flat2D()
		for _, op := range []struct {
			name string
			f3   func(dst, y *F3)
			f2   func(dst, y *F3)
		}{
			{"Lin2Rect", func(dst, y *F3) { Lin2Rect(dst, 1, x, dt, y, r) }, func(dst, y *F3) { Lin2Rect(dst, 1, &x2.F3, dt, y, r2) }},
			{"MidRect", func(dst, y *F3) { MidRect(dst, x, dt, y, r) }, func(dst, y *F3) { MidRect(dst, &x2.F3, dt, y, r2) }},
		} {
			want, got := d0.Clone(), d0.Clone()
			op.f3(want, wide)
			op.f3(got, narrow)
			for n := range got.Data {
				if math.Float64bits(got.Data[n]) != math.Float64bits(want.Data[n]) {
					t.Fatalf("%s over %v, offset %d: narrow tendency gives %v, same-block %v", op.name, r, n, got.Data[n], want.Data[n])
				}
			}
			want2, got2 := d02.Clone(), d02.Clone()
			op.f2(want2, &wide2.F3)
			op.f2(got2, &narrow2.F3)
			for n := range got2.Data {
				if math.Float64bits(got2.Data[n]) != math.Float64bits(want2.Data[n]) {
					t.Fatalf("%s2 over %v, offset %d: narrow tendency gives %v, same-block %v", op.name, r, n, got2.Data[n], want2.Data[n])
				}
			}
		}
	}
}

// TestTendencyOpsPanicOutsideStorage: a tendency whose storage does not
// contain the rect must panic with a message naming the rect — indexing it by
// row would otherwise read another row's cells.
func TestTendencyOpsPanicOutsideStorage(t *testing.T) {
	b := Block{Nx: 8, Ny: 12, Nz: 6, I0: 0, I1: 8, J0: 4, J1: 8, K0: 2, K1: 4, Hx: 2, Hy: 3, Hz: 2}
	nb := narrowOf(b)
	x, dst, y := NewF3(b), NewF3(b), NewF3(nb)
	x2, dst2, y2 := NewF2(b), NewF2(b), NewF2(nb)
	grownY := b.Owned()
	grownY.J1++
	grownZ := b.Owned()
	grownZ.K0--
	cases := []struct {
		name string
		r    Rect
		f    func(r Rect)
	}{
		{"Lin2Rect/y", grownY, func(r Rect) { Lin2Rect(dst, 1, x, 1, y, r) }},
		{"Lin2Rect/z", grownZ, func(r Rect) { Lin2Rect(dst, 1, x, 1, y, r) }},
		{"MidRect/y", grownY, func(r Rect) { MidRect(dst, x, 1, y, r) }},
		{"MidRect/z", grownZ, func(r Rect) { MidRect(dst, x, 1, y, r) }},
		{"Lin2Rect2", grownY.Flat2D(), func(r Rect) { Lin2Rect(&dst2.F3, 1, &x2.F3, 1, &y2.F3, r) }},
		{"MidRect2", grownY.Flat2D(), func(r Rect) { MidRect(&dst2.F3, &x2.F3, 1, &y2.F3, r) }},
		// A 3-D rect on a one-level field (a missed Flat2D) fails loudly.
		{"Lin2Rect/unflattened", b.Owned(), func(r Rect) { Lin2Rect(&dst2.F3, 1, &x2.F3, 1, &x2.F3, r) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "outside the") || !strings.Contains(msg, "storage") {
					t.Fatalf("got panic %q, want one naming the rect outside the tendency's storage", msg)
				}
			}()
			tc.f(tc.r)
		})
	}
}
