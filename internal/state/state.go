// Package state defines the prognostic vector of the dynamical core,
// ξ = (U, V, Φ, p'_sa) (paper eq. 1), on one rank's block, together with the
// copy, boundary-fill and comparison helpers the time integration uses.
//
// U, V and Φ are 3-D (longitude × latitude × σ); p'_sa is the 2-D surface
// pressure deviation. Under decompositions with p_z > 1 every rank of a z
// column carries a full replica of p'_sa for its horizontal footprint, which
// all ranks update identically from the shared result of the vertical
// summation collective — the arrangement the original MPI code uses.
package state

import (
	"math"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/physics"
)

// State is ξ on one rank's block.
type State struct {
	B   field.Block
	U   *field.F3 // P·u at west faces (λ_{i−1/2}, θ_j)
	V   *field.F3 // P·v at latitude interfaces (λ_i, θ interfaces); row 0 = north pole
	Phi *field.F3 // P·R·(T − T̃)/b at centers
	Psa *field.F2 // p_s − p̃_s at centers

	// ShiftedPoles selects the exact spherical pole mirror (values taken
	// from the antipodal meridian; requires full longitude circles per
	// rank). The default unshifted mirror is kept for comparability with
	// decompositions that split x. See DESIGN.md §2.
	ShiftedPoles bool

	// Carry, when non-nil, is what the owning integrator carries across a
	// step boundary besides ξ. The copy helpers ignore it.
	Carry *Carry
}

// Carry is the comm-avoiding integrator's carried state beyond ξ: step k+1
// reads the Ĉ cached by step k's last iteration (paper §4.2.2) and owes ξ(k)
// the smoothing Algorithm 2 defers (§4.3.2). A checkpoint of ξ plus Carry
// restarts the operator flow bitwise; the baselines carry nothing (nil).
type Carry struct {
	// PWI and DBar are the lagged Ĉ (operators.CRes) on the state's block:
	// valid on the owned region plus PWI's bottom interface k = Nz.
	PWI  *field.F3
	DBar *field.F2
	// PendingSmooth: ξ is a step-boundary state not yet finalized.
	PendingSmooth bool
}

// CopyOwned sets the owned Ĉ values of c from o — D̄ on the owned columns,
// PWI on the owned interfaces plus, on the lowest block, interface Nz (what a
// checkpoint reads) — whatever the two storage extents. Both must belong to
// blocks that own the same cells.
func (c *Carry) CopyOwned(o *Carry) {
	r := c.PWI.B.Owned()
	c.DBar.CopyRect(r, o.DBar)
	if r.K1 == c.PWI.B.Nz {
		r.K1++
	}
	c.PWI.CopyRect(r, o.PWI)
}

// OwnedBlock returns b with no halo, except that the lowest block (K1 = Nz)
// keeps a one-level z halo, whose level past the model bottom holds a
// Carry's interface Nz (the level above K0 goes unused). It is the storage
// of a state whose readers read owned cells only, such as an initial
// condition, a restored snapshot or a run's result Carry.
func OwnedBlock(b field.Block) field.Block {
	b.Hx, b.Hy, b.Hz = 0, 0, 0
	if b.K1 == b.Nz {
		b.Hz = 1
	}
	return b
}

// New allocates a zero state on the block.
func New(b field.Block) *State {
	return &State{
		B:   b,
		U:   field.NewF3(b),
		V:   field.NewF3(b),
		Phi: field.NewF3(b),
		Psa: field.NewF2(b),
	}
}

// Clone returns a deep copy.
func (s *State) Clone() *State {
	return &State{B: s.B, U: s.U.Clone(), V: s.V.Clone(), Phi: s.Phi.Clone(),
		Psa: s.Psa.Clone(), ShiftedPoles: s.ShiftedPoles}
}

// CopyFrom sets s ← o.
func (s *State) CopyFrom(o *State) {
	field.Copy(s.U, o.U)
	field.Copy(s.V, o.V)
	field.Copy(s.Phi, o.Phi)
	field.Copy2(s.Psa, o.Psa)
}

// CopyOwned sets the owned cells of s from o, whatever the two storage
// extents (the blocks must own the same cells); ghosts of s are left as they
// are.
func (s *State) CopyOwned(o *State) {
	r := s.B.Owned()
	s.U.CopyRect(r, o.U)
	s.V.CopyRect(r, o.V)
	s.Phi.CopyRect(r, o.Phi)
	s.Psa.CopyRect(r, o.Psa)
}

// F3s returns the 3-D components in canonical order (U, V, Φ) — the order
// halo-exchange messages use.
func (s *State) F3s() []*field.F3 { return []*field.F3{s.U, s.V, s.Phi} }

// F2s returns the 2-D components (p'_sa).
func (s *State) F2s() []*field.F2 { return []*field.F2{s.Psa} }

// FillLocalBounds refreshes the locally computable boundary cells whose
// sources lie in r (field.FillBounds): periodic x halos (when the block owns
// full circles), vertical mirrors and pole mirrors. After a local update pass
// the rect it wrote; after a halo exchange, a step hook or a copy of a whole
// state pass the storage rect s.B.WithHalo().
func (s *State) FillLocalBounds(r field.Rect) {
	field.FillBounds(s.U, field.Odd, field.CenterY, s.ShiftedPoles, r)
	field.FillBounds(s.V, field.Odd, field.FaceY, s.ShiftedPoles, r)
	field.FillBounds(s.Phi, field.Even, field.CenterY, s.ShiftedPoles, r)
	field.FillBounds2(s.Psa, field.Even, s.ShiftedPoles, r)
}

// MaxAbsDiff returns the largest componentwise difference over owned points
// — the metric the decomposition-equivalence tests compare with.
func (s *State) MaxAbsDiff(o *State) float64 {
	d := field.MaxAbsDiffOwned(s.U, o.U)
	if v := field.MaxAbsDiffOwned(s.V, o.V); v > d {
		d = v
	}
	if v := field.MaxAbsDiffOwned(s.Phi, o.Phi); v > d {
		d = v
	}
	if v := field.MaxAbsDiffOwned2(s.Psa, o.Psa); v > d {
		d = v
	}
	return d
}

// AllFinite reports whether every owned value of every component is finite.
func (s *State) AllFinite() bool {
	return field.AllFiniteOwned(s.U) && field.AllFiniteOwned(s.V) &&
		field.AllFiniteOwned(s.Phi) && allFinite2(s.Psa)
}

func allFinite2(f *field.F2) bool {
	r := f.B.Owned()
	for j := r.J0; j < r.J1; j++ {
		for i := r.I0; i < r.I1; i++ {
			v := f.At(i, j)
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
	}
	return true
}

// InitFromPhysical fills the owned region (and nothing else — call
// FillLocalBounds plus a halo exchange afterwards) from physical profiles:
// uFn, vFn give winds (m/s), tFn temperature (K) and psFn surface pressure
// (Pa), each as functions of (λ, θ center/interface as appropriate, σ).
func (s *State) InitFromPhysical(g *grid.Grid,
	uFn, vFn func(lam, theta, sigma float64) float64,
	tFn func(lam, theta, sigma float64) float64,
	psFn func(lam, theta float64) float64,
) {
	b := s.B
	for j := b.J0; j < b.J1; j++ {
		thC := g.ThetaC[j]
		for i := b.I0; i < b.I1; i++ {
			lam := g.Lambda[i]
			ps := psFn(lam, thC)
			s.Psa.Set(i, j, ps-physics.StandardSurfacePressure)
		}
	}
	for k := b.K0; k < b.K1; k++ {
		sig := g.Sigma[k]
		for j := b.J0; j < b.J1; j++ {
			thC := g.ThetaC[j]
			for i := b.I0; i < b.I1; i++ {
				lam := g.Lambda[i]
				lamU := lam - 0.5*g.DLambda // U point longitude
				psU := 0.5 * (psFn(lamU, thC) + psFn(lamU, thC))
				pU := physics.PFromPs(psU)
				s.U.Set(i, j, k, pU*uFn(lamU, thC, sig))

				ps := psFn(lam, thC)
				p := physics.PFromPs(ps)
				tTil := physics.StandardTemperature(sig)
				s.Phi.Set(i, j, k, physics.PhiFromTemperature(tFn(lam, thC, sig), p, tTil))
			}
		}
		// V rows: interfaces owned by this block (skip the poles).
		for j := b.J0; j < b.J1; j++ {
			if j == 0 {
				continue // north pole: V ≡ 0
			}
			thI := g.ThetaI[j]
			for i := b.I0; i < b.I1; i++ {
				lam := g.Lambda[i]
				psV := psFn(lam, thI)
				pV := physics.PFromPs(psV)
				s.V.Set(i, j, k, pV*vFn(lam, thI, sig))
			}
		}
	}
}
