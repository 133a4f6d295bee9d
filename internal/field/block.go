// Package field provides the distributed field containers of the dynamical
// core: 3-D and 2-D blocks of a global latitude–longitude mesh with halo
// (ghost) cells, plus the pack/unpack, boundary-fill and linear-combination
// primitives the operators and the halo-exchange engine are built on.
//
// A Block describes the rectangular sub-box of the global mesh owned by one
// rank together with its halo widths. Fields address points with *global*
// indices; the container translates to local storage. Longitude (x) is
// periodic; the translation never wraps automatically — halo cells beyond the
// owned range must be filled explicitly (either by local periodic copy when a
// rank owns a full latitude circle, or by communication).
package field

import (
	"fmt"

	"cadycore/internal/stencil"
)

// Block describes the sub-box of the global Nx×Ny×Nz mesh owned by one rank,
// with the halo widths (Hx, Hy, Hz) requested on each side. The owned ranges
// are half-open: i ∈ [I0, I1), j ∈ [J0, J1), k ∈ [K0, K1).
//
// The requested widths are symmetric; what is *stored* is cut at the physical
// boundaries (see WithHalo): a deep halo reaches at most boundaryReach cells
// past a pole or the model top/bottom, because nothing reads further.
type Block struct {
	Nx, Ny, Nz int // global extents
	I0, I1     int // owned x range
	J0, J1     int // owned y range
	K0, K1     int // owned z range
	Hx, Hy, Hz int // requested halo widths
}

// boundaryReach is how far one application of any stencil reads past a
// physical boundary: the per-update radius of the widest tables (2 rows from
// the smoothing, 1 level from the adaptation/advection). Compute regions are
// clamped to the domain, so however deep the requested halo — the
// communication-avoiding scheme asks for 3M+2 rows and 3M levels — cells
// beyond this reach past a pole or σ = 0/1 are never read and are not stored.
var boundaryReach = stencil.Union(
	stencil.RadiusOf(stencil.Adaptation),
	stencil.RadiusOf(stencil.Advection),
	stencil.RadiusOf(stencil.Smoothing),
)

// Dims returns the owned extents (I1−I0, J1−J0, K1−K0).
func (b Block) Dims() (nx, ny, nz int) {
	return b.I1 - b.I0, b.J1 - b.J0, b.K1 - b.K0
}

// StorageDims returns the allocated extents including the stored halos.
func (b Block) StorageDims() (sx, sy, sz int) {
	w := b.WithHalo()
	return w.I1 - w.I0, w.J1 - w.J0, w.K1 - w.K0
}

// OwnsFullX reports whether the block owns every longitude (the Y-Z
// decomposition case), so x halos can be filled by local periodic copy.
func (b Block) OwnsFullX() bool { return b.I0 == 0 && b.I1 == b.Nx }

// Owned returns the owned region as a Rect (halo excluded).
func (b Block) Owned() Rect {
	return Rect{I0: b.I0, I1: b.I1, J0: b.J0, J1: b.J1, K0: b.K0, K1: b.K1}
}

// WithHalo returns the full addressable (stored) region: the owned box grown
// by the requested halo widths, cut boundaryReach cells past the poles in y
// and past the model top/bottom in z. x is periodic and stays symmetric. It
// is the one storage rule: field layouts, the boundary fills and the halo
// exchange's addressability check all read it.
func (b Block) WithHalo() Rect {
	return Rect{
		I0: b.I0 - b.Hx, I1: b.I1 + b.Hx,
		J0: maxInt(b.J0-b.Hy, -boundaryReach.Y),
		J1: minInt(b.J1+b.Hy, b.Ny+boundaryReach.Y),
		K0: maxInt(b.K0-b.Hz, -boundaryReach.Z),
		K1: minInt(b.K1+b.Hz, b.Nz+boundaryReach.Z),
	}
}

// Shrink returns the owned region shrunk by d cells on every side in the
// decomposed directions given; it is used to express "inner part" regions for
// communication/computation overlap. Directions with width 0 are unchanged.
func (r Rect) Shrink(dx, dy, dz int) Rect {
	return Rect{
		I0: r.I0 + dx, I1: r.I1 - dx,
		J0: r.J0 + dy, J1: r.J1 - dy,
		K0: r.K0 + dz, K1: r.K1 - dz,
	}
}

// Contains reports whether the rect contains the global point (i, j, k).
func (r Rect) Contains(i, j, k int) bool {
	return i >= r.I0 && i < r.I1 && j >= r.J0 && j < r.J1 && k >= r.K0 && k < r.K1
}

// Validate panics if the block is inconsistent (empty ranges, negative halos,
// ranges outside the global mesh in the non-periodic directions).
func (b Block) Validate() {
	if b.Nx <= 0 || b.Ny <= 0 || b.Nz <= 0 {
		panic(fmt.Sprintf("field: non-positive global extents in %+v", b))
	}
	if b.I0 >= b.I1 || b.J0 >= b.J1 || b.K0 >= b.K1 {
		panic(fmt.Sprintf("field: empty owned range in %+v", b))
	}
	if b.Hx < 0 || b.Hy < 0 || b.Hz < 0 {
		panic(fmt.Sprintf("field: negative halo width in %+v", b))
	}
	if b.I0 < 0 || b.I1 > b.Nx {
		panic(fmt.Sprintf("field: x range [%d,%d) outside [0,%d)", b.I0, b.I1, b.Nx))
	}
	if b.J0 < 0 || b.J1 > b.Ny {
		panic(fmt.Sprintf("field: y range [%d,%d) outside [0,%d)", b.J0, b.J1, b.Ny))
	}
	if b.K0 < 0 || b.K1 > b.Nz {
		panic(fmt.Sprintf("field: z range [%d,%d) outside [0,%d)", b.K0, b.K1, b.Nz))
	}
}

// Rect is a half-open box of global indices, used to describe pack/unpack and
// computation regions.
type Rect struct {
	I0, I1, J0, J1, K0, K1 int
}

// Count returns the number of points in the rect (0 if empty/inverted).
func (r Rect) Count() int {
	nx, ny, nz := r.I1-r.I0, r.J1-r.J0, r.K1-r.K0
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return 0
	}
	return nx * ny * nz
}

// Empty reports whether the rect contains no points.
func (r Rect) Empty() bool { return r.Count() == 0 }

// Intersect returns the intersection of two rects (possibly empty).
func (r Rect) Intersect(o Rect) Rect {
	return Rect{
		I0: maxInt(r.I0, o.I0), I1: minInt(r.I1, o.I1),
		J0: maxInt(r.J0, o.J0), J1: minInt(r.J1, o.J1),
		K0: maxInt(r.K0, o.K0), K1: minInt(r.K1, o.K1),
	}
}

// Flat2D returns the rect restricted to a single k plane semantics for 2-D
// fields: the K range is forced to [0, 1).
func (r Rect) Flat2D() Rect {
	r.K0, r.K1 = 0, 1
	return r
}

func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)x[%d,%d)", r.I0, r.I1, r.J0, r.J1, r.K0, r.K1)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
