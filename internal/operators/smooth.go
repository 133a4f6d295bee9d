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
// with δ⁴_λ the fourth centered difference (offsets ±2). δ⁴_θ is the same
// fourth difference in flux form on the sphere, δ⁴_θ = L∘L with
//
//	(Lφ)_j = (sin θ_{j+1/2}·(φ_{j+1} − φ_j) − sin θ_{j−1/2}·(φ_j − φ_{j−1})) / sin θ_j,
//
// whose face weights vanish at the poles, so Σ_j sin θ_j·(δ⁴_θ φ)_j
// telescopes to zero: S̃ keeps the area sum of p'_sa (the dry mass), and no
// row past a pole carries weight. Where sin θ is the same on both faces it
// is the plain (1, −4, 6, −4, 1). P1 couples x only; P2 couples x and y.
// Under the Y-Z decomposition only P2's y coupling communicates, and the
// paper splits it by y rows (eq. 14) into a former stage S̃1 (rows whose
// five-row window is available locally) and a latter stage S̃2 (the rest,
// applied after the fused exchange delivers the neighbors' original rows).
// Both stages apply the one kernel P2 to whole rows, from the originals and
// in the same ascending order, so S̃ = S̃2∘S̃1 holds bitwise
// (TestSmoothingSplitMatchesFull, internal/dycore).
type Smoother struct {
	g    *grid.Grid
	beta float64

	// rows[j][0][d+2], rows[j][1][d+2]: P2(φ)_{i,j} =
	// Σ_d c1_d·φ_{i,j+d} + c2_d·(δ⁴_λφ)_{i,j+d}.
	rows [][2][5]float64
}

// NewSmoother builds a smoother with coefficient β ∈ (0, 2) (β = 1 removes
// the 2Δ wave completely).
func NewSmoother(g *grid.Grid, beta float64) *Smoother {
	s := &Smoother{g: g, beta: beta, rows: make([][2][5]float64, g.Ny)}
	// L's weights toward rows j−1 and j+1; none past a pole.
	lw := func(j int) (a, b float64) {
		if j < 0 || j >= g.Ny {
			return 0, 0
		}
		return g.SinI[j] / g.SinC[j], g.SinI[j+1] / g.SinC[j]
	}
	b16 := beta / 16
	b256 := beta * beta / 256
	for j := range s.rows {
		// δ⁴_θ weights at offsets −2…2: L applied to L's rows j−1, j, j+1.
		a, b := lw(j)
		am, bm := lw(j - 1)
		ap, bp := lw(j + 1)
		w := [5]float64{
			a * am,
			-a*(am+bm) - (a+b)*a,
			a*bm + (a+b)*(a+b) + b*ap,
			-(a+b)*b - b*(ap+bp),
			b * bp,
		}
		c := &s.rows[j]
		for d := range w {
			c[0][d] = -b16 * w[d]
			c[1][d] = b256 * w[d]
		}
		// The d = 0 row additionally carries the identity and the
		// −(β/16)δ⁴_λ terms of P2.
		c[0][2] += 1
		c[1][2] += -b16
	}
	return s
}

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

// P2 applies P2 of in into out over r, each row's offsets summed in
// ascending order. Rows past a pole carry zero weight, so it reads only the
// rows of r within 2 in y, cut at the poles, each expanded by 2 in x.
func (s *Smoother) P2(in, out *field.F3, r field.Rect) int {
	xo := in.XOff(0)
	var rows [5][]float64
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			// The in-domain offsets form one contiguous d range, so the inner
			// loop runs without per-row checks.
			dLo, dHi := max(-2, -j), min(2, s.g.Ny-1-j)
			c1, c2 := &s.rows[j][0], &s.rows[j][1]
			for d := dLo; d <= dHi; d++ {
				rows[d+2] = in.Row(j+d, k)
			}
			dst := out.Row(j, k)
			for i := r.I0; i < r.I1; i++ {
				o := i + xo
				acc := 0.0
				for d := dLo; d <= dHi; d++ {
					rw := rows[d+2]
					acc += c1[d+2]*rw[o] + c2[d+2]*(rw[o-2]-4*rw[o-1]+6*rw[o]-4*rw[o+1]+rw[o+2])
				}
				dst[o] = acc
			}
		}
	}
	return r.Count()
}

// SmoothFull applies the complete S̃ of in into out over rect r (the
// baseline path: P1 on U and V, full P2 on Φ and on p'_sa's level). Inputs
// must be valid on r expanded by 2 in x and y.
func (s *Smoother) SmoothFull(in *state.State, out *state.State, r field.Rect) int {
	w := s.P1Field(in.U, out.U, r)
	w += s.P1Field(in.V, out.V, r)
	w += s.P2(in.Phi, out.Phi, r)
	w += s.P2(&in.Psa.F3, &out.Psa.F3, r.Flat2D())
	return w
}
