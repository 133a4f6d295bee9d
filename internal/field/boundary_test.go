package field

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ghostSource returns the domain row and level whose value the stored cell
// (j, k) takes after a fill, and whether (i, j, k) is a ghost at all: outside
// the domain in x, y or z, or a FaceY pole row (zeroed; its "source" is the
// row that places it inside a rect: 0 for row 0, Ny−1 for the virtual row Ny).
// It is written out independently of the fill code under test.
func ghostSource(b Block, st Stagger, i, j, k int) (sj, sk int, ghost bool) {
	sj, sk = j, k
	switch {
	case k < 0:
		sk = -1 - k
	case k >= b.Nz:
		sk = 2*b.Nz - 1 - k
	}
	switch {
	case st == FaceY && j == b.Ny:
		sj = b.Ny - 1
	case st == FaceY && j < 0:
		sj = -j
	case st == FaceY && j > b.Ny:
		sj = 2*b.Ny - j
	case j < 0:
		sj = -1 - j
	case j >= b.Ny:
		sj = 2*b.Ny - 1 - j
	}
	ghost = i < 0 || i >= b.Nx || sj != j || sk != k || st == FaceY && (j == 0 || j == b.Ny)
	return sj, sk, ghost
}

// coverBlocks returns every block position of a 4×2 (p_y × p_z) layout of a
// 12×32×6 mesh under the CA deep halos of M = 3 and M = 1 and the YZ halos:
// north-pole, pole-reaching interior, interior and south-pole ranks, each at
// the top and at the bottom of the column.
func coverBlocks() []Block {
	var out []Block
	for _, h := range [][3]int{{3, 11, 9}, {3, 5, 3}, {3, 2, 1}} {
		for j0 := 0; j0 < 32; j0 += 8 {
			for k0 := 0; k0 < 6; k0 += 3 {
				out = append(out, Block{Nx: 12, Ny: 32, Nz: 6, I0: 0, I1: 12,
					J0: j0, J1: j0 + 8, K0: k0, K1: k0 + 3, Hx: h[0], Hy: h[1], Hz: h[2]})
			}
		}
	}
	return out
}

// coverRects returns the rects the cover test fills: the storage rect, the
// domain, the owned block, the owned block grown like a CA update region and
// clamped to the domain, and random rects clamped to the domain.
func coverRects(b Block, rng *rand.Rand) []Rect {
	domain := Rect{I1: b.Nx, J1: b.Ny, K1: b.Nz}
	grown := b.Owned()
	grown.J0, grown.J1, grown.K1 = grown.J0-b.Hy+3, grown.J1+b.Hy-3, grown.K1+b.Hz-1
	rects := []Rect{b.WithHalo(), domain, b.Owned(), grown.Intersect(domain)}
	for n := 0; n < 8; n++ {
		i0, j0, k0 := rng.Intn(b.Nx), rng.Intn(b.Ny), rng.Intn(b.Nz)
		rects = append(rects, Rect{
			I0: i0, I1: i0 + 1 + rng.Intn(b.Nx-i0),
			J0: j0, J1: j0 + 1 + rng.Intn(b.Ny-j0),
			K0: k0, K1: k0 + 1 + rng.Intn(b.Nz-k0),
		})
	}
	return rects
}

// TestFillBoundsCover: filling a rect r writes exactly the storage-rect
// fill's value into every ghost sourced in r's rows and levels and leaves
// every other stored cell bit-identical — for every block position, both
// staggers and parities, the plain and shifted mirrors, 2-D and 3-D fields.
func TestFillBoundsCover(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, b := range coverBlocks() {
		storage := b.WithHalo()
		for _, r := range coverRects(b, rng) {
			in := func(sj, sk int) bool { return sj >= r.J0 && sj < r.J1 && sk >= r.K0 && sk < r.K1 }
			for _, shifted := range []bool{false, true} {
				for _, p := range []Parity{Even, Odd} {
					name := fmt.Sprintf("block J[%d,%d) K[%d,%d) H(%d,%d,%d) rect %v shifted=%v parity=%d",
						b.J0, b.J1, b.K0, b.K1, b.Hx, b.Hy, b.Hz, r, shifted, p)
					for _, st := range []Stagger{CenterY, FaceY} {
						pre := NewF3(b)
						for n := range pre.Data {
							pre.Data[n] = rng.NormFloat64()
						}
						full, got := pre.Clone(), pre.Clone()
						FillBounds(full, p, st, shifted, storage)
						FillBounds(got, p, st, shifted, r)
						for k := storage.K0; k < storage.K1; k++ {
							for j := storage.J0; j < storage.J1; j++ {
								for i := storage.I0; i < storage.I1; i++ {
									sj, sk, ghost := ghostSource(b, st, i, j, k)
									want := pre.At(i, j, k)
									if ghost && in(sj, sk) {
										want = full.At(i, j, k)
									}
									if g := got.At(i, j, k); math.Float64bits(g) != math.Float64bits(want) {
										t.Fatalf("%s stagger %d: cell (%d,%d,%d) = %v, want %v (ghost %v, source row %d level %d)",
											name, st, i, j, k, g, want, ghost, sj, sk)
									}
								}
							}
						}
					}
					// A 2-D field is filled as its one level over r's rows.
					pre := NewF2(b)
					for n := range pre.Data {
						pre.Data[n] = rng.NormFloat64()
					}
					full, got := pre.Clone(), pre.Clone()
					FillBounds(full, p, CenterY, shifted, storage.Flat2D())
					FillBounds(got, p, CenterY, shifted, r.Flat2D())
					for j := storage.J0; j < storage.J1; j++ {
						for i := storage.I0; i < storage.I1; i++ {
							sj, _, ghost := ghostSource(b, CenterY, i, j, 0)
							want := pre.At(i, j)
							if ghost && sj >= r.J0 && sj < r.J1 {
								want = full.At(i, j, 0)
							}
							if g := got.At(i, j, 0); math.Float64bits(g) != math.Float64bits(want) {
								t.Fatalf("%s 2-D: cell (%d,%d) = %v, want %v", name, i, j, g, want)
							}
						}
					}
				}
			}
		}
	}
}
