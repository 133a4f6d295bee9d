package field

import (
	"math"
	"math/rand"
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

// TestMidRect2MatchesComposition is TestMidRectMatchesComposition for the
// 2-D kernel.
func TestMidRect2MatchesComposition(t *testing.T) {
	b := opsBlock()
	rng := rand.New(rand.NewSource(11))
	x, y, d0 := NewF2(b), NewF2(b), NewF2(b)
	for i := range x.Data {
		x.Data[i], y.Data[i], d0.Data[i] = edgyValue(rng), edgyValue(rng), edgyValue(rng)
	}
	for trial := 0; trial < 300; trial++ {
		r := randRect(rng, b)
		dt := edgyValue(rng)

		want := d0.Clone()
		if !r.Flat2D().Empty() {
			e := NewF2(b)
			Lin2Rect2(e, 1, x, dt, y, r)
			Lin2Rect2(want, 0.5, x, 0.5, e, r)
		}
		got := d0.Clone()
		MidRect2(got, x, dt, y, r)
		for n := range got.Data {
			if math.Float64bits(got.Data[n]) != math.Float64bits(want.Data[n]) {
				t.Fatalf("rect %v, dt %g, offset %d: fused %v vs composed %v", r, dt, n, got.Data[n], want.Data[n])
			}
		}
	}
}
