package operators

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
)

// Smoother implements the smoothing S̃ (paper Section 4.3.2):
//
//	S̃(ξ) = (P1(U), P1(V), P2(Φ), P2(p'_sa))
//	P1(φ) = φ − (β/2⁴)·δ⁴_λ φ
//	P2(φ) = φ − (β/2⁴)(δ⁴_λ φ + δ⁴_θ φ) + (β²/2⁸)·δ⁴_θ δ⁴_λ φ
//
// with δ⁴ the fourth centered difference (offsets ±2). P1 couples x only;
// P2 couples x and y. Under the Y-Z decomposition only P2's y coupling
// communicates, and the paper splits it by y rows (eq. 14) into a former
// stage S̃1 (rows available locally) and a latter stage S̃2 (the remaining
// rows, applied after the fused exchange delivers the neighbors' original
// edge rows).
//
// P2 is evaluated as a sum of per-row contributions in increasing row-offset
// order in both the full and the split paths, which makes the identity
// S̃ = S̃2∘S̃1 hold bitwise — the property TestSmoothingSplitExact asserts.
type Smoother struct {
	g    *grid.Grid
	beta float64

	// rowC1[d+2], rowC2[d+2]: P2(φ)_{i,j} = Σ_d c1_d·φ_{i,j+d} + c2_d·(δ⁴_λφ)_{i,j+d}.
	rowC1 [5]float64
	rowC2 [5]float64
}

// NewSmoother builds a smoother with coefficient β ∈ (0, 2) (β = 1 removes
// the 2Δ wave completely).
func NewSmoother(g *grid.Grid, beta float64) *Smoother {
	s := &Smoother{g: g, beta: beta}
	// δ⁴_θ weights at offsets −2…2.
	w := [5]float64{1, -4, 6, -4, 1}
	b16 := beta / 16
	b256 := beta * beta / 256
	for d := -2; d <= 2; d++ {
		s.rowC1[d+2] = -b16 * w[d+2]
		s.rowC2[d+2] = b256 * w[d+2]
	}
	// The d = 0 row additionally carries the identity and the −(β/16)δ⁴_λ
	// terms of P2.
	s.rowC1[2] += 1
	s.rowC2[2] += -b16
	return s
}

// Beta returns the smoothing coefficient.
func (s *Smoother) Beta() float64 { return s.beta }

// P1Field applies P1 (x-only smoothing) of in into out over rect r. Inputs
// must be valid on r expanded by 2 in x.
func (s *Smoother) P1Field(in, out *field.F3, r field.Rect) int {
	c := s.beta / 16
	xo := in.XOff(0)
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			src := in.Row(j, k)
			dst := out.Row(j, k)
			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				dst[o] = src[o] - c*(src[o-2]-4*src[o-1]+6*src[o]-4*src[o+1]+src[o+2])
			}
		}
	}
	return r.Count()
}

// AvailFunc reports, for a global latitude row j, the half-open row window
// [lo, hi) that was locally available to the rank that executed former
// smoothing for row j. Rows outside the window are the latter-smoothing
// contributions. A window covering [j−2, j+2] for every j means full
// smoothing in one pass.
type AvailFunc func(j int) (lo, hi int)

// FullAvail is the AvailFunc of the unsplit smoothing.
func FullAvail(j int) (lo, hi int) { return j - 2, j + 3 }

// P2Former applies the former-smoothing part of P2 of in into out over r:
// for each row j, the contributions of rows j+d (d = −2…2) that fall inside
// avail(j), accumulated in increasing d. With avail = FullAvail this is the
// complete P2. Inputs must be valid on r expanded by 2 in x and on the
// in-window rows in y.
func (s *Smoother) P2Former(in, out *field.F3, r field.Rect, avail AvailFunc) int {
	xo := in.XOff(0)
	var rows [5][]float64
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			// The avail window is contiguous, so the retained offsets form one
			// contiguous d range — the inner loop then runs without per-row
			// nil checks, in the same ascending-d order (bitwise-identical
			// accumulation).
			lo, hi := avail(j)
			dLo, dHi := clampD(lo-j, hi-1-j)
			for d := dLo; d <= dHi; d++ {
				rows[d+2] = in.Row(j+d, k)
			}
			dst := out.Row(j, k)
			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				acc := 0.0
				for d := dLo; d <= dHi; d++ {
					rw := rows[d+2]
					acc += s.rowC1[d+2]*rw[o] + s.rowC2[d+2]*(rw[o-2]-4*rw[o-1]+6*rw[o]-4*rw[o+1]+rw[o+2])
				}
				dst[o] = acc
			}
		}
	}
	return r.Count()
}

// clampD clips an inclusive offset range to the stencil offsets [−2, 2].
func clampD(lo, hi int) (int, int) {
	if lo < -2 {
		lo = -2
	}
	if hi > 2 {
		hi = 2
	}
	return lo, hi
}

// P2Latter adds the latter-smoothing contributions to cur over r: for each
// row j, the rows j+d outside avail(j), read from orig (the pre-smoothing
// values, which the fused exchange provides for neighbor rows). Accumulated
// in increasing d, completing P2Former to the exact full P2.
func (s *Smoother) P2Latter(orig, cur *field.F3, r field.Rect, avail AvailFunc) int {
	work := 0
	xo := orig.XOff(0)
	var rows [5][]float64
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			lo, hi := avail(j)
			if j-2 >= lo && j+2 < hi {
				continue // fully smoothed in the former stage
			}
			// The out-of-window offsets are the complement of one contiguous
			// window: at most two contiguous d ranges, processed in ascending
			// d (range a below the window, then range b above it) — the same
			// accumulation order as the per-offset nil-check loop.
			aHi := lo - j - 1 // last offset below the window
			if aHi > 2 {
				aHi = 2
			}
			bLo := hi - j // first offset above the window
			if bLo < -2 {
				bLo = -2
			}
			for d := -2; d <= aHi; d++ {
				rows[d+2] = orig.Row(j+d, k)
			}
			for d := bLo; d <= 2; d++ {
				rows[d+2] = orig.Row(j+d, k)
			}
			dst := cur.Row(j, k)
			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				acc := 0.0
				for d := -2; d <= aHi; d++ {
					rw := rows[d+2]
					acc += s.rowC1[d+2]*rw[o] + s.rowC2[d+2]*(rw[o-2]-4*rw[o-1]+6*rw[o]-4*rw[o+1]+rw[o+2])
				}
				for d := bLo; d <= 2; d++ {
					rw := rows[d+2]
					acc += s.rowC1[d+2]*rw[o] + s.rowC2[d+2]*(rw[o-2]-4*rw[o-1]+6*rw[o]-4*rw[o+1]+rw[o+2])
				}
				dst[o] += acc
			}
			work += r.I1 - r.I0
		}
	}
	return work
}

// SmoothFull applies the complete S̃ of in into out over rect r (the
// baseline path: P1 on U and V, full P2 on Φ and on p'_sa's level). Inputs
// must be valid on r expanded by 2 in x and y.
func (s *Smoother) SmoothFull(in *state.State, out *state.State, r field.Rect) int {
	w := s.P1Field(in.U, out.U, r)
	w += s.P1Field(in.V, out.V, r)
	w += s.P2Former(in.Phi, out.Phi, r, FullAvail)
	w += s.P2Former(&in.Psa.F3, &out.Psa.F3, r.Flat2D(), FullAvail)
	return w
}
