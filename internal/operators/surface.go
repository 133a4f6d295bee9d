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
	"math"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
)

// Surface holds the 2-D diagnostics derived pointwise from p'_sa:
// p_es = p_s − p_t and P = sqrt(p_es/p0). Before each kernel they are
// recomputed on the rows that kernel reads (UpdateFor); halo values follow
// the halo validity of p'_sa, and rows no kernel reads keep whatever an
// earlier state left there.
//
// Alongside them the update stores the reciprocals the stencil kernels
// multiply by instead of dividing at every level of every evaluation: 1/P
// and 1/p_es at centers, at west faces (U points, the mean of centers i−1
// and i) and at north interfaces (V points, the mean of rows j−1 and j). A
// face entry whose west or north neighbour lies outside storage is NaN, so
// reading one shows up as a non-finite tendency.
type Surface struct {
	B   field.Block
	Pes *field.F2
	P   *field.F2

	rP, rPes   *field.F2 // at centers
	rPU, rPesU *field.F2 // at west faces
	rPV, rPesV *field.F2 // at north interfaces
}

// NewSurface allocates surface diagnostics for a block.
func NewSurface(b field.Block) *Surface {
	return &Surface{B: b, Pes: field.NewF2(b), P: field.NewF2(b),
		rP: field.NewF2(b), rPes: field.NewF2(b),
		rPU: field.NewF2(b), rPesU: field.NewF2(b),
		rPV: field.NewF2(b), rPesV: field.NewF2(b)}
}

// surfaceReach is how many rows past a kernel's rect the kernels read the
// surface planes: Â reads p_es and D(P) reads P on rows j ± 1, and L̃ reads
// 1/P at the west faces of row J0 − 1 and at the north interfaces of row J1.
const surfaceReach = 1

// PsaReach is how many rows past a kernel's rect, on either side, UpdateFor
// reads p'_sa: surfaceReach, plus the row whose p_es and P the first swept
// row's north-interface reciprocals average with.
const PsaReach = surfaceReach + 1

// Update recomputes p_es, P and their reciprocal planes from p'_sa over the
// entire storage region (owned + halos) and returns the number of points
// updated.
func (s *Surface) Update(psa *field.F2) int { return s.UpdateFor(psa, s.B.WithHalo()) }

// UpdateFor recomputes the planes a kernel over r reads: every plane on r's
// rows grown by surfaceReach on each side and cut to storage, plus p_es and
// P on the row above them, which the first swept row's north-interface
// reciprocals average with. Every other stored value is left as it is. It
// returns the number of points swept.
func (s *Surface) UpdateFor(psa *field.F2, r field.Rect) int {
	w := s.B.WithHalo()
	j0, j1 := max(r.J0-surfaceReach, w.J0), min(r.J1+surfaceReach, w.J1)
	if r.Empty() || j0 >= j1 {
		return 0
	}
	rows := j1 - j0
	if j0 > w.J0 {
		s.centers(psa, j0-1)
		rows++
	}
	for j := j0; j < j1; j++ {
		s.centers(psa, j)
		s.reciprocals(j, j == w.J0)
	}
	return rows * (w.I1 - w.I0)
}

// centers computes p_es and P on row j from p'_sa.
func (s *Surface) centers(psa *field.F2, j int) {
	src := psa.Row(j)
	n := len(src)
	pes, p := window(s.Pes.Row(j), 0, n), window(s.P.Row(j), 0, n)
	for i, v := range src {
		ps := physics.StandardSurfacePressure + v
		pes[i] = physics.PesFromPs(ps)
		p[i] = physics.PFromPs(ps)
	}
}

// reciprocals fills row j of the reciprocal planes from P and p_es on rows j
// and, for the north interfaces, j − 1; first marks row j as the lowest
// stored row, whose interfaces have no northern neighbour.
func (s *Surface) reciprocals(j int, first bool) {
	p, pes := s.P.Row(j), s.Pes.Row(j)
	n := len(p)
	pes = window(pes, 0, n)
	rP, rPes := window(s.rP.Row(j), 0, n), window(s.rPes.Row(j), 0, n)
	rPU, rPesU := window(s.rPU.Row(j), 0, n), window(s.rPesU.Row(j), 0, n)
	for i := range p {
		rP[i] = 1 / p[i]
		rPes[i] = 1 / pes[i]
	}
	nan := math.NaN()
	rPU[0], rPesU[0] = nan, nan
	for e := 1; e < n; e++ {
		c := e - 1
		rPU[e] = 1 / (0.5 * (p[c] + p[e]))
		rPesU[e] = 1 / (0.5 * (pes[c] + pes[e]))
	}

	rPV, rPesV := window(s.rPV.Row(j), 0, n), window(s.rPesV.Row(j), 0, n)
	if first {
		for i := range rPV {
			rPV[i], rPesV[i] = nan, nan
		}
		return
	}
	pN, pesN := window(s.P.Row(j-1), 0, n), window(s.Pes.Row(j-1), 0, n)
	for i := range rPV {
		rPV[i] = 1 / (0.5 * (pN[i] + p[i]))
		rPesV[i] = 1 / (0.5 * (pesN[i] + pes[i]))
	}
}

// window returns row[lo : lo+n] with its length pinned to n. The kernels cut
// every row they read to the rect's x extent plus the stencil's reach; a loop
// bounded by n that indexes the windows at its variable minus constants no
// larger than its start then runs without a bounds check.
func window(row []float64, lo, n int) []float64 { return row[lo:][:n] }

// Tendency is ∂ξ/∂t on a block: the output of Â+Ĉ (adaptation) or L̃
// (advection). The kernels write it by its own rows and levels, so its block
// may store less than the state's — only the rects it is computed on — but
// it shares the state's x halo: a kernel's x offsets come from the state it
// reads (mustShareX).
type Tendency struct {
	B    field.Block
	DU   *field.F3
	DV   *field.F3
	DPhi *field.F3
	DPsa *field.F2

	// fields lists the components for Fields, filled once at construction so
	// per-step callers get a slice of a fixed array instead of a fresh
	// literal.
	fields [4]*field.F3
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
	t.fields = [4]*field.F3{t.DU, t.DV, t.DPhi, &t.DPsa.F3}
	return t
}

// Fields returns the components in state order (U, V, Φ, p'_sa), p'_sa as
// its one level.
func (t *Tendency) Fields() []*field.F3 { return t.fields[:] }

// LevelTendency is a tendency streamed one level at a time (DESIGN §8 "One
// level of tendency"): dU, dV and dΦ of at most two levels, level k in slot
// k&1, and the one dp'_sa plane. An update that consumes each level as soon
// as it is formed then never holds the tendency of a whole rect.
type LevelTendency struct {
	slots [2]*Tendency // one-level tendencies sharing DPsa
}

// NewLevelTendency allocates a level tendency on b's horizontal footprint.
func NewLevelTendency(b field.Block) *LevelTendency {
	b.K1, b.Hz = b.K0+1, 0
	dPsa := field.NewF2(b)
	lt := &LevelTendency{}
	for s := range lt.slots {
		t := &Tendency{B: b, DU: field.NewF3(b), DV: field.NewF3(b), DPhi: field.NewF3(b), DPsa: dPsa}
		t.fields = [4]*field.F3{t.DU, t.DV, t.DPhi, &t.DPsa.F3}
		lt.slots[s] = t
	}
	return lt
}

// Level returns the one-level tendency of level k, which stores dU, dV and
// dΦ at level k only and shares the dp'_sa plane. It reuses the storage of
// level k−2's: the values there are stale until a kernel writes level k.
func (lt *LevelTendency) Level(k int) *Tendency {
	t := lt.slots[k&1]
	t.B.K0, t.B.K1 = k, k+1
	t.DU.SetLevel(k)
	t.DV.SetLevel(k)
	t.DPhi.SetLevel(k)
	return t
}

// Zero clears the tendency (storage included).
func (t *Tendency) Zero() {
	for _, f := range t.fields {
		f.Zero()
	}
}

// metric bundles the grid factors kernels use; splitting them out keeps the
// kernel signatures small.
type metric struct {
	g      *grid.Grid
	a      float64 // earth radius
	dlam   float64
	dthe   float64
	b      float64 // gravity-wave speed b
	haDthe float64 // a·Δθ
}

func newMetric(g *grid.Grid) metric {
	return metric{
		g:      g,
		a:      physics.EarthRadius,
		dlam:   g.DLambda,
		dthe:   g.DTheta,
		b:      physics.B,
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
