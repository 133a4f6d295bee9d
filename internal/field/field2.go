package field

// F2 is a 2-D horizontal field (a function of longitude and latitude only,
// such as the surface-pressure deviation p'_sa) on one rank's block. It is a
// one-level F3 on the block's horizontal footprint (Block.Flat2D), so its
// Data is laid out in (j, i) order and every F3 routine applies to it —
// through the embedded F3, with rects flattened by Rect.Flat2D (a rect
// reaching another level panics in Index). Every rank in a z column holds a
// full replica of the 2-D field, matching how surface fields are kept
// consistent in the original MPI code.
type F2 struct {
	F3
}

// NewF2 allocates a zero-initialized 2-D field on the horizontal footprint
// of the given block (the K range of the block is ignored).
func NewF2(b Block) *F2 { return &F2{*NewF3(b.Flat2D())} }

// Index returns the flat offset of global point (i, j).
func (f *F2) Index(i, j int) int { return f.F3.Index(i, j, 0) }

// At returns the value at global point (i, j).
func (f *F2) At(i, j int) float64 { return f.F3.At(i, j, 0) }

// Set stores v at global point (i, j).
func (f *F2) Set(i, j int, v float64) { f.F3.Set(i, j, 0, v) }

// Add accumulates v at global point (i, j).
func (f *F2) Add(i, j int, v float64) { f.F3.Add(i, j, 0, v) }

// Row returns the storage slice of latitude row j; see F3.Row.
func (f *F2) Row(j int) []float64 { return f.F3.Row(j, 0) }
