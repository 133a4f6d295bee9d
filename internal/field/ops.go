package field

import "math"

// The linear-combination helpers below come in two forms. The plain ones
// (Copy, Axpy, Lin2, …) operate on the full storage slice, halos included.
// The Rect ones update exactly one rect: the deep-halo scheme of the
// communication-avoiding algorithm performs redundant updates in halo areas,
// and each update writes exactly the still-valid region, which shrinks by a
// stencil radius per update. FillBounds then refreshes only the ghosts
// sourced in that region; cells outside it are stale and never read.

// Copy sets dst ← src. Shapes must match.
func Copy(dst, src *F3) {
	mustSameShape(dst, src)
	copy(dst.Data, src.Data)
}

// Scale sets f ← c·f.
func Scale(f *F3, c float64) {
	for i := range f.Data {
		f.Data[i] *= c
	}
}

// Axpy sets dst ← dst + c·src.
func Axpy(dst *F3, c float64, src *F3) {
	mustSameShape(dst, src)
	d, s := dst.Data, src.Data
	for i := range d {
		d[i] += c * s[i]
	}
}

// Lin2 sets dst ← a·x + b·y.
func Lin2(dst *F3, a float64, x *F3, b float64, y *F3) {
	mustSameShape(dst, x)
	mustSameShape(dst, y)
	d, xv, yv := dst.Data, x.Data, y.Data
	for i := range d {
		d[i] = a*xv[i] + b*yv[i]
	}
}

// Mean2 sets dst ← (x + y)/2, the midpoint state used by the third internal
// update of each nonlinear iteration (Algorithm 1, lines 8/14).
func Mean2(dst, x, y *F3) { Lin2(dst, 0.5, x, 0.5, y) }

// Lin2Rect sets dst ← a·x + b·y over rect r only (global indices within the
// storage region). The deep-halo algorithm uses it to update exactly the
// still-valid region, like the production code does.
func Lin2Rect(dst *F3, a float64, x *F3, b float64, y *F3, r Rect) {
	mustSameShape(dst, x)
	mustSameShape(dst, y)
	n := r.I1 - r.I0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := dst.Index(r.I0, j, k)
			d, xv, yv := dst.Data[base:base+n], x.Data[base:base+n], y.Data[base:base+n]
			for i := range d {
				d[i] = a*xv[i] + b*yv[i]
			}
		}
	}
}

// Lin3Rect sets dst ← a·x + b·y + c·z over rect r — one fused sweep instead
// of a Lin2Rect followed by an AxpyRect, halving the memory traffic of
// three-operand combinations.
func Lin3Rect(dst *F3, a float64, x *F3, b float64, y *F3, c float64, z *F3, r Rect) {
	mustSameShape(dst, x)
	mustSameShape(dst, y)
	mustSameShape(dst, z)
	n := r.I1 - r.I0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := dst.Index(r.I0, j, k)
			d, xv, yv, zv := dst.Data[base:base+n], x.Data[base:base+n], y.Data[base:base+n], z.Data[base:base+n]
			for i := range d {
				d[i] = a*xv[i] + b*yv[i] + c*zv[i]
			}
		}
	}
}

// AxpyRect sets dst ← dst + c·src over rect r.
func AxpyRect(dst *F3, c float64, src *F3, r Rect) {
	mustSameShape(dst, src)
	n := r.I1 - r.I0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := dst.Index(r.I0, j, k)
			d, s := dst.Data[base:base+n], src.Data[base:base+n]
			for i := range d {
				d[i] += c * s[i]
			}
		}
	}
}

// AxpyRect2 is AxpyRect for 2-D fields (the k range of r is ignored).
func AxpyRect2(dst *F2, c float64, src *F2, r Rect) {
	if dst.B != src.B {
		panic("field: 2-D shape mismatch")
	}
	r = r.Flat2D()
	n := r.I1 - r.I0
	for j := r.J0; j < r.J1; j++ {
		base := dst.Index(r.I0, j)
		d, s := dst.Data[base:base+n], src.Data[base:base+n]
		for i := range d {
			d[i] += c * s[i]
		}
	}
}

// Lin2Rect2 is Lin2Rect for 2-D fields (the k range of r is ignored).
func Lin2Rect2(dst *F2, a float64, x *F2, b float64, y *F2, r Rect) {
	if dst.B != x.B || dst.B != y.B {
		panic("field: 2-D shape mismatch")
	}
	r = r.Flat2D()
	n := r.I1 - r.I0
	for j := r.J0; j < r.J1; j++ {
		base := dst.Index(r.I0, j)
		d, xv, yv := dst.Data[base:base+n], x.Data[base:base+n], y.Data[base:base+n]
		for i := range d {
			d[i] = a*xv[i] + b*yv[i]
		}
	}
}

// Copy2 sets dst ← src for 2-D fields.
func Copy2(dst, src *F2) {
	if dst.B != src.B {
		panic("field: 2-D shape mismatch")
	}
	copy(dst.Data, src.Data)
}

// Scale2 sets f ← c·f for 2-D fields.
func Scale2(f *F2, c float64) {
	for i := range f.Data {
		f.Data[i] *= c
	}
}

// Axpy2 sets dst ← dst + c·src for 2-D fields.
func Axpy2(dst *F2, c float64, src *F2) {
	if dst.B != src.B {
		panic("field: 2-D shape mismatch")
	}
	d, s := dst.Data, src.Data
	for i := range d {
		d[i] += c * s[i]
	}
}

// Lin22 sets dst ← a·x + b·y for 2-D fields.
func Lin22(dst *F2, a float64, x *F2, b float64, y *F2) {
	if dst.B != x.B || dst.B != y.B {
		panic("field: 2-D shape mismatch")
	}
	d, xv, yv := dst.Data, x.Data, y.Data
	for i := range d {
		d[i] = a*xv[i] + b*yv[i]
	}
}

// MaxAbsOwned returns max |f| over the owned region (halo excluded), so the
// value is decomposition independent.
func MaxAbsOwned(f *F3) float64 {
	r := f.B.Owned()
	m := 0.0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := f.Index(r.I0, j, k)
			for _, v := range f.Data[base : base+(r.I1-r.I0)] {
				if a := math.Abs(v); a > m {
					m = a
				}
			}
		}
	}
	return m
}

// SumOwned returns Σ f over the owned region.
func SumOwned(f *F3) float64 {
	r := f.B.Owned()
	s := 0.0
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			base := f.Index(r.I0, j, k)
			for _, v := range f.Data[base : base+(r.I1-r.I0)] {
				s += v
			}
		}
	}
	return s
}

// MaxAbsDiffOwned returns max |a − b| over the owned region. Shapes must
// match.
func MaxAbsDiffOwned(a, b *F3) float64 {
	mustSameShape(a, b)
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

// MaxAbsDiffOwned2 returns max |a − b| over the owned region for 2-D fields.
func MaxAbsDiffOwned2(a, b *F2) float64 {
	if a.B != b.B {
		panic("field: 2-D shape mismatch")
	}
	r := a.B.Owned()
	m := 0.0
	for j := r.J0; j < r.J1; j++ {
		ba := a.Index(r.I0, j)
		for o := 0; o < r.I1-r.I0; o++ {
			if d := math.Abs(a.Data[ba+o] - b.Data[ba+o]); d > m {
				m = d
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

func mustSameShape(a, b *F3) {
	if !a.SameShape(b) {
		panic("field: shape mismatch")
	}
}
