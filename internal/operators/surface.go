// Package operators implements the discrete operators of the dynamical core
// (paper Sections 2.1 and 3): the adaptation stencil Â (pressure-gradient,
// Coriolis and Ω terms plus surface-pressure diffusion), the vertical
// summation Ĉ (the only z-collective), the advection stencils L̃ (L1, L2,
// L3), and the smoothing S̃ (P1, P2) together with its operator splitting
// S̃ = S̃2∘S̃1 (Section 4.3.2).
//
// Kernels are pure functions of their input fields over an explicit
// computation rectangle, so the same code serves the serial reference, both
// baseline decompositions, and the deep-halo redundant computation of the
// communication-avoiding algorithm. Every kernel returns the number of point
// updates it performed, which the callers convert into simulated compute
// time.
//
// Discretization notes (see DESIGN.md §5): Arakawa C grid with U at west
// faces and V at latitude interfaces (row 0 = north pole, where V ≡ 0);
// second-order centered differences, except fourth-order zonal flux
// interpolation in L1 which realizes the wide x footprints of the paper's
// Table 2. The paper's equation (2) lists both Coriolis terms with a minus
// sign; we use the antisymmetric pair (+f*V, −f*U), which is required for
// kinetic-energy neutrality and is evidently the intent.
package operators

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
)

// Surface holds the 2-D diagnostics derived pointwise from p'_sa:
// p_es = p_s − p_t and P = sqrt(p_es/p0). They are recomputed after every
// update of p'_sa over the full storage footprint (halo values follow the
// halo validity of p'_sa).
type Surface struct {
	B   field.Block
	Pes *field.F2
	P   *field.F2
}

// NewSurface allocates surface diagnostics for a block.
func NewSurface(b field.Block) *Surface {
	return &Surface{B: b, Pes: field.NewF2(b), P: field.NewF2(b)}
}

// Update recomputes p_es and P from p'_sa over the entire storage region
// (owned + halos) and returns the number of points updated.
func (s *Surface) Update(psa *field.F2) int {
	pes, pf, src := s.Pes.Data, s.P.Data, psa.Data
	for i, v := range src {
		ps := physics.StandardSurfacePressure + v
		pes[i] = physics.PesFromPs(ps)
		pf[i] = physics.PFromPs(ps)
	}
	return len(src)
}

// Tendency is ∂ξ/∂t on a block: the output of Â+Ĉ (adaptation) or L̃
// (advection).
type Tendency struct {
	B    field.Block
	DU   *field.F3
	DV   *field.F3
	DPhi *field.F3
	DPsa *field.F2

	// Component lists handed out by F3s/F2s, filled once at construction so
	// per-step callers get a slice of a fixed array instead of a fresh
	// literal.
	f3s [3]*field.F3
	f2s [1]*field.F2
}

// NewTendency allocates a zero tendency on the block.
func NewTendency(b field.Block) *Tendency {
	t := &Tendency{
		B:    b,
		DU:   field.NewF3(b),
		DV:   field.NewF3(b),
		DPhi: field.NewF3(b),
		DPsa: field.NewF2(b),
	}
	t.f3s = [3]*field.F3{t.DU, t.DV, t.DPhi}
	t.f2s = [1]*field.F2{t.DPsa}
	return t
}

// F3s returns the 3-D components (same order as state.State.F3s).
func (t *Tendency) F3s() []*field.F3 { return t.f3s[:] }

// F2s returns the 2-D components.
func (t *Tendency) F2s() []*field.F2 { return t.f2s[:] }

// Zero clears the tendency (storage included).
func (t *Tendency) Zero() {
	t.DU.Zero()
	t.DV.Zero()
	t.DPhi.Zero()
	t.DPsa.Zero()
}

// metric bundles the grid factors kernels use; splitting them out keeps the
// kernel signatures small.
type metric struct {
	g      *grid.Grid
	a      float64 // earth radius
	dlam   float64
	dthe   float64
	b      float64 // gravity-wave speed b
	haDlam float64 // a·Δλ
	haDthe float64 // a·Δθ
}

func newMetric(g *grid.Grid) metric {
	return metric{
		g:      g,
		a:      physics.EarthRadius,
		dlam:   g.DLambda,
		dthe:   g.DTheta,
		b:      physics.B,
		haDlam: physics.EarthRadius * g.DLambda,
		haDthe: physics.EarthRadius * g.DTheta,
	}
}

// sinC returns sin θ at center row j, valid for ghost rows via mirror.
func (m metric) sinC(j int) float64 {
	ny := m.g.Ny
	if j < 0 {
		j = -1 - j
	}
	if j >= ny {
		j = 2*ny - 1 - j
	}
	return m.g.SinC[j]
}

// cosC returns cos θ at center row j. Ghost rows reflect across a pole
// (θ → −θ at the north, θ → 2π − θ at the south), under which cosine is
// even, so the mirror copies the value unchanged.
func (m metric) cosC(j int) float64 {
	ny := m.g.Ny
	if j < 0 {
		j = -1 - j
	}
	if j >= ny {
		j = 2*ny - 1 - j
	}
	return m.g.CosC[j]
}

// sinI/cosI return the interface metric for (possibly ghost) V row j.
func (m metric) sinI(j int) float64 {
	ny := m.g.Ny
	if j < 0 {
		j = -j
	}
	if j > ny {
		j = 2*ny - j
	}
	return m.g.SinI[j]
}
