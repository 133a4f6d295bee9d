package field

import "fmt"

// F2 is a 2-D horizontal field (a function of longitude and latitude only,
// such as the surface-pressure deviation p'_sa) on one rank's block. Its
// storage mirrors F3 with the z extent collapsed. Every rank in a z column
// holds a full replica of the 2-D field, matching how surface fields are
// kept consistent in the original MPI code.
type F2 struct {
	B    Block
	Data []float64

	sx, sy int
	ox, oy int
}

// NewF2 allocates a zero-initialized 2-D field on the horizontal footprint
// of the given block (the K range of the block is ignored).
func NewF2(b Block) *F2 {
	b.Validate()
	w := b.WithHalo()
	sx, sy := w.I1-w.I0, w.J1-w.J0
	return &F2{
		B:    b,
		Data: make([]float64, sx*sy),
		sx:   sx, sy: sy,
		ox: w.I0, oy: w.J0,
	}
}

// Clone returns a deep copy.
func (f *F2) Clone() *F2 {
	g := NewF2(f.B)
	copy(g.Data, f.Data)
	return g
}

// Zero sets every stored value (including halos) to zero.
func (f *F2) Zero() {
	for i := range f.Data {
		f.Data[i] = 0
	}
}

// Index returns the flat offset of global point (i, j); it panics if the
// point lies outside the storage region.
func (f *F2) Index(i, j int) int {
	li, lj := i-f.ox, j-f.oy
	if uint(li) >= uint(f.sx) || uint(lj) >= uint(f.sy) {
		panic(fmt.Sprintf("field: point (%d,%d) outside 2-D storage of block %+v", i, j, f.B))
	}
	return lj*f.sx + li
}

// At returns the value at global point (i, j).
func (f *F2) At(i, j int) float64 { return f.Data[f.Index(i, j)] }

// Set stores v at global point (i, j).
func (f *F2) Set(i, j int, v float64) { f.Data[f.Index(i, j)] = v }

// Add accumulates v at global point (i, j).
func (f *F2) Add(i, j int, v float64) { f.Data[f.Index(i, j)] += v }

// Row returns the storage slice of latitude row j, indexed by local
// offset: Row(j)[i − (I0 − Hx)] is the value at global (i, j); see F3.Row.
func (f *F2) Row(j int) []float64 {
	base := f.Index(f.ox, j)
	return f.Data[base : base+f.sx]
}

// XOff converts a global longitude index to the offset used with Row.
func (f *F2) XOff(i int) int { return i - f.ox }

// Origin returns the global index of Data[0].
func (f *F2) Origin() (i, j int) { return f.ox, f.oy }

// FillXPeriodic fills the x halo cells of every stored row by local periodic
// copy (Y-Z decomposition only; panics otherwise).
func (f *F2) FillXPeriodic() { f.wrapX(f.B.WithHalo()) }

// wrapX fills the x halo cells of r's stored rows (r's x and k extents are
// ignored).
func (f *F2) wrapX(r Rect) {
	if !f.B.OwnsFullX() {
		panic("field: FillXPeriodic called on a block that does not own the full x circle")
	}
	h := f.B.Hx
	if h == 0 {
		return
	}
	for j := maxInt(r.J0, f.oy); j < minInt(r.J1, f.oy+f.sy); j++ {
		wrapRow(f.Row(j), h, f.B.Nx)
	}
}

// Pack copies the values of the (2-D) rect r into dst in (j, i) order. The k
// range of r is ignored.
func (f *F2) Pack(r Rect, dst []float64) int {
	r = r.Flat2D()
	n := r.Count()
	if n == 0 {
		return 0
	}
	if len(dst) < n {
		panic(fmt.Sprintf("field: Pack buffer too small: %d < %d", len(dst), n))
	}
	w := 0
	for j := r.J0; j < r.J1; j++ {
		base := f.Index(r.I0, j)
		w += copy(dst[w:], f.Data[base:base+(r.I1-r.I0)])
	}
	return w
}

// Unpack copies src into the (2-D) rect r.
func (f *F2) Unpack(r Rect, src []float64) int {
	r = r.Flat2D()
	n := r.Count()
	if n == 0 {
		return 0
	}
	if len(src) < n {
		panic(fmt.Sprintf("field: Unpack buffer too small: %d < %d", len(src), n))
	}
	w := 0
	for j := r.J0; j < r.J1; j++ {
		base := f.Index(r.I0, j)
		w += copy(f.Data[base:base+(r.I1-r.I0)], src[w:])
	}
	return w
}
