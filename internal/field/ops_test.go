package field

import (
	"math/rand"
	"testing"
)

func opsBlock() Block {
	return Block{Nx: 8, Ny: 6, Nz: 4, I0: 0, I1: 8, J0: 0, J1: 6, K0: 0, K1: 4, Hx: 2, Hy: 2, Hz: 1}
}

func TestLin3RectMatchesComposition(t *testing.T) {
	b := opsBlock()
	rng := rand.New(rand.NewSource(7))
	x, y, z := NewF3(b), NewF3(b), NewF3(b)
	for i := range x.Data {
		x.Data[i], y.Data[i], z.Data[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
	}
	r := Rect{I0: 1, I1: 7, J0: 1, J1: 5, K0: 1, K1: 3}

	got := NewF3(b)
	Lin3Rect(got, 2, x, -1.5, y, 0.25, z, r)

	want := NewF3(b)
	Lin2Rect(want, 2, x, -1.5, y, r)
	AxpyRect(want, 0.25, z, r)

	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			for i := r.I0; i < r.I1; i++ {
				if got.At(i, j, k) != want.At(i, j, k) {
					t.Fatalf("(%d,%d,%d): fused %v vs composed %v", i, j, k, got.At(i, j, k), want.At(i, j, k))
				}
			}
		}
	}
	// Outside the rect both must be untouched (zero).
	if got.At(0, 0, 0) != 0 || want.At(0, 0, 0) != 0 {
		t.Error("rect ops wrote outside the rect")
	}
}

func TestAxpyRect2(t *testing.T) {
	b := opsBlock()
	d, s := NewF2(b), NewF2(b)
	for i := range s.Data {
		s.Data[i] = float64(i)
	}
	r := Rect{I0: 2, I1: 6, J0: 1, J1: 4}
	AxpyRect2(d, 3, s, r)
	for j := 0; j < b.Ny; j++ {
		for i := 0; i < b.Nx; i++ {
			want := 0.0
			if i >= r.I0 && i < r.I1 && j >= r.J0 && j < r.J1 {
				want = 3 * s.At(i, j)
			}
			if d.At(i, j) != want {
				t.Fatalf("(%d,%d): got %v want %v", i, j, d.At(i, j), want)
			}
		}
	}
}
