package field

import "fmt"

// F3 is a 3-D field on one rank's block, stored including halo cells in a
// single contiguous slice with x fastest (so zonal FFTs and x stencils sweep
// unit-stride memory), then y, then z.
//
// Points are addressed with global indices; F3 translates them to the local
// allocation. Indices may extend into the halo region; reaching beyond it
// panics in At/Set (kernels using raw indexing must stay in bounds by
// construction).
type F3 struct {
	B    Block
	Data []float64

	// cached layout
	sx, sy, sz int // storage dims
	ox, oy, oz int // global index of Data[0] (lowest halo corner)
}

// NewF3 allocates a zero-initialized field on the given block.
func NewF3(b Block) *F3 {
	b.Validate()
	w := b.WithHalo()
	sx, sy, sz := w.I1-w.I0, w.J1-w.J0, w.K1-w.K0
	return &F3{
		B:    b,
		Data: make([]float64, sx*sy*sz),
		sx:   sx, sy: sy, sz: sz,
		ox: w.I0, oy: w.J0, oz: w.K0,
	}
}

// Clone returns a deep copy.
func (f *F3) Clone() *F3 {
	g := NewF3(f.B)
	copy(g.Data, f.Data)
	return g
}

// Zero sets every stored value (including halos) to zero.
func (f *F3) Zero() {
	for i := range f.Data {
		f.Data[i] = 0
	}
}

// Index returns the flat offset of global point (i, j, k). It panics if the
// point is outside the storage (owned + halo) region.
func (f *F3) Index(i, j, k int) int {
	li, lj, lk := i-f.ox, j-f.oy, k-f.oz
	if uint(li) >= uint(f.sx) || uint(lj) >= uint(f.sy) || uint(lk) >= uint(f.sz) {
		panic(fmt.Sprintf("field: point (%d,%d,%d) outside storage of block %+v", i, j, k, f.B))
	}
	return (lk*f.sy+lj)*f.sx + li
}

// At returns the value at global point (i, j, k).
func (f *F3) At(i, j, k int) float64 { return f.Data[f.Index(i, j, k)] }

// Set stores v at global point (i, j, k).
func (f *F3) Set(i, j, k int, v float64) { f.Data[f.Index(i, j, k)] = v }

// Add accumulates v at global point (i, j, k).
func (f *F3) Add(i, j, k int, v float64) { f.Data[f.Index(i, j, k)] += v }

// Strides returns the flat strides (dx, dy, dz) such that moving one step in
// each global direction moves the flat index by that amount.
func (f *F3) Strides() (dx, dy, dz int) { return 1, f.sx, f.sx * f.sy }

// Row returns the storage slice of the x-row at (j, k), indexed by
// local offset: Row(j,k)[i − (I0 − Hx)] is the value at global (i, j, k).
// Kernels use it to read rows with one bounds check instead of one per
// point; combine with XOff.
func (f *F3) Row(j, k int) []float64 {
	base := f.Index(f.ox, j, k)
	return f.Data[base : base+f.sx]
}

// XOff converts a global longitude index to the offset used with Row.
func (f *F3) XOff(i int) int { return i - f.ox }

// Origin returns the global index of Data[0].
func (f *F3) Origin() (i, j, k int) { return f.ox, f.oy, f.oz }

// SameShape reports whether g has an identical block (and therefore layout).
func (f *F3) SameShape(g *F3) bool { return f.B == g.B }

// FillXPeriodic fills the x halo cells by local periodic copy. It is valid
// only when the block owns the full longitude circle (Y-Z decomposition);
// otherwise it panics — x halos must then be filled by communication.
// The copy covers the full y/z storage range (halo rows included) so that
// subsequent y/z exchanges and corner fills remain consistent.
func (f *F3) FillXPeriodic() {
	if !f.B.OwnsFullX() {
		panic("field: FillXPeriodic called on a block that does not own the full x circle")
	}
	h := f.B.Hx
	if h == 0 {
		return
	}
	nx := f.B.Nx
	for lk := 0; lk < f.sz; lk++ {
		for lj := 0; lj < f.sy; lj++ {
			row := (lk*f.sy + lj) * f.sx
			// storage x layout: [0,h) left halo | [h, h+nx) owned | [h+nx, h+nx+h) right halo
			for m := 0; m < h; m++ {
				f.Data[row+m] = f.Data[row+nx+m]     // left halo ← rightmost owned
				f.Data[row+h+nx+m] = f.Data[row+h+m] // right halo ← leftmost owned
			}
		}
	}
}

// Pack copies the values in the global rect r (which must lie inside the
// storage region) into dst in row-major (k, j, i) order and returns the
// number of values written. dst must have capacity r.Count().
func (f *F3) Pack(r Rect, dst []float64) int {
	n := r.Count()
	if n == 0 {
		return 0
	}
	if len(dst) < n {
		panic(fmt.Sprintf("field: Pack buffer too small: %d < %d", len(dst), n))
	}
	w := 0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := f.Index(r.I0, j, k)
			w += copy(dst[w:], f.Data[base:base+(r.I1-r.I0)])
		}
	}
	return w
}

// Unpack copies src (packed in the same order as Pack) into the global rect.
func (f *F3) Unpack(r Rect, src []float64) int {
	n := r.Count()
	if n == 0 {
		return 0
	}
	if len(src) < n {
		panic(fmt.Sprintf("field: Unpack buffer too small: %d < %d", len(src), n))
	}
	w := 0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := f.Index(r.I0, j, k)
			w += copy(f.Data[base:base+(r.I1-r.I0)], src[w:])
		}
	}
	return w
}

// CopyRect copies the values of src in rect r into f. Both fields must cover
// r in their storage regions; blocks need not match.
func (f *F3) CopyRect(r Rect, src *F3) {
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			d := f.Index(r.I0, j, k)
			s := src.Index(r.I0, j, k)
			copy(f.Data[d:d+(r.I1-r.I0)], src.Data[s:s+(r.I1-r.I0)])
		}
	}
}
