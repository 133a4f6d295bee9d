package field

import (
	"fmt"
	"math"
)

// The linear-combination helpers below update exactly one rect: the
// deep-halo scheme of the communication-avoiding algorithm performs redundant
// updates in halo areas, and each update writes exactly the still-valid
// region, which shrinks by a stencil radius per update. FillBounds then
// refreshes only the ghosts sourced in that region; cells outside it are
// stale and never read.

// Lin2Rect sets dst ← a·x + b·y over rect r only (global indices within the
// storage region). The deep-halo algorithm uses it to update exactly the
// still-valid region, like the production code does. Each operand may be
// stored on its own block (a work state or a tendency on its compute
// extent), is indexed by it, and must store r.
func Lin2Rect(dst *F3, a float64, x *F3, b float64, y *F3, r Rect) {
	mustStore(dst, r)
	mustStore(x, r)
	mustStore(y, r)
	n := r.I1 - r.I0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			db, xb, yb := dst.Index(r.I0, j, k), x.Index(r.I0, j, k), y.Index(r.I0, j, k)
			d, xv, yv := dst.Data[db:db+n], x.Data[xb:xb+n], y.Data[yb:yb+n]
			for i := range d {
				d[i] = a*xv[i] + b*yv[i]
			}
		}
	}
}

// MidRect sets dst ← ½·x + ½·(x + dt·y) over rect r: the midpoint state
// (ψ + η2)/2 of a nonlinear iteration's third update, with ψ = x and
// η2 = ψ + Δt·T for the tendency T = y, formed per point and never stored.
// The roundings are those of Lin2Rect(e, 1, x, dt, y) followed by
// Lin2Rect(dst, ½, x, ½, e): the conversion rounds η2 to float64 as a store
// would. dst may be the state the tendency was evaluated at. As in Lin2Rect,
// each operand is indexed by its own block, whose storage must contain r.
func MidRect(dst, x *F3, dt float64, y *F3, r Rect) {
	if r.Empty() {
		return
	}
	mustStore(dst, r)
	mustStore(x, r)
	mustStore(y, r)
	n := r.I1 - r.I0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			db, xb, yb := dst.Index(r.I0, j, k), x.Index(r.I0, j, k), y.Index(r.I0, j, k)
			d, xv, yv := dst.Data[db:db+n], x.Data[xb:xb+n], y.Data[yb:yb+n]
			for i := range d {
				eta2 := float64(1*xv[i] + dt*yv[i])
				d[i] = 0.5*xv[i] + 0.5*eta2
			}
		}
	}
}

// MaxAbsDiffOwned returns max |a − b| over the owned region. Shapes must
// match.
func MaxAbsDiffOwned(a, b *F3) float64 {
	if a.B != b.B {
		panic("field: shape mismatch")
	}
	r := a.B.Owned()
	m := 0.0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			ba := a.Index(r.I0, j, k)
			for o := 0; o < r.I1-r.I0; o++ {
				if d := math.Abs(a.Data[ba+o] - b.Data[ba+o]); d > m {
					m = d
				}
			}
		}
	}
	return m
}

// AllFiniteOwned reports whether every owned value is finite (no NaN/Inf);
// it is the cheap stability check used by the long-run tests.
func AllFiniteOwned(f *F3) bool {
	r := f.B.Owned()
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := f.Index(r.I0, j, k)
			for _, v := range f.Data[base : base+(r.I1-r.I0)] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					return false
				}
			}
		}
	}
	return true
}

// mustStore panics unless f's storage contains the non-empty rect r. The
// sweeps check only each row's first point (Index) and then slice the row, so
// a rect wider than the storage would read into the next stored row.
func mustStore(f *F3, r Rect) {
	if !r.Empty() && r.Intersect(f.B.WithHalo()) != r {
		panic(fmt.Sprintf("field: rect %v outside the storage %v of block %+v", r, f.B.WithHalo(), f.B))
	}
}
