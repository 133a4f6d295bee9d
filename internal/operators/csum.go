package operators

import (
	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
)

// CRes is the result of the vertical summation operator Ĉ: everything the
// rest of a time-step update needs from the z-direction integral of the
// mass-flux divergence D(P). It is the quantity the communication-avoiding
// algorithm reuses across nonlinear iterations (Ĉ(ψ^{i−2}) standing in for
// Ĉ(ψ^{i−1}), Section 4.2.2).
//
//	DBar[i,j]  = Σ_k Δσ_k · D(P)[i,j,k]      (drives ∂p'_sa/∂t and Ω⁽¹⁾)
//	PWI[i,j,k] = PW at σ interface k          (drives W, and σ̇ = PW/P for L3)
//
// PWI is stored on the 3-D block with index k meaning "interface at the top
// of layer k"; the bottom interface of the lowest owned layer lives in the
// z halo, which is why every topology allocates Hz ≥ 1.
type CRes struct {
	B    field.Block
	DBar *field.F2
	PWI  *field.F3
	// Valid is the horizontal rect over which the result is valid; vertical
	// validity spans the same halo depth in z.
	Valid field.Rect
}

// NewCRes allocates a result container on the block.
func NewCRes(b field.Block) *CRes {
	return &CRes{B: b, DBar: field.NewF2(b), PWI: field.NewF3(b)}
}

// CopyFrom deep-copies o into c.
func (c *CRes) CopyFrom(o *CRes) {
	field.Copy2(c.DBar, o.DBar)
	field.Copy(c.PWI, o.PWI)
	c.Valid = o.Valid
}

// DivP computes the mass-flux divergence
//
//	D(P)[i,j,k] = (1/(a sinθ_j)) [ ∂(P·U)/∂λ + ∂(P·V·sinθ)/∂θ ]
//
// over rect r into out (paper eq. 6). Inputs must be valid on r expanded by
// one cell in x and y. Returns points updated.
func DivP(g *grid.Grid, u, v *field.F3, sur *Surface, out *field.F3, r field.Rect) int {
	if r.Empty() {
		return 0
	}
	m := newMetric(g)
	// Row windows reach one point each side; e indexes the east neighbour.
	lo, n := u.XOff(r.I0)-1, r.I1-r.I0+2
	invDlam := 1 / m.dlam
	invDthe := 1 / m.dthe
	for k := r.K0; k < r.K1; k++ {
		for j := r.J0; j < r.J1; j++ {
			invASin := 1 / (m.a * m.sinC(j))
			sI0, sI1 := m.sinI(j), m.sinI(j+1)
			p0 := window(sur.P.Row(j), lo, n)
			pN := window(sur.P.Row(j-1), lo, n)
			pS := window(sur.P.Row(j+1), lo, n)
			u0 := window(u.Row(j, k), lo, n)
			v0 := window(v.Row(j, k), lo, n)
			vS := window(v.Row(j+1, k), lo, n)
			dst := window(out.Row(j, k), lo, n)
			for e := 2; e < n; e++ {
				w, c := e-2, e-1
				// P at the west faces of c and e (average of neighboring centers).
				pW := 0.5 * (p0[w] + p0[c])
				pE := 0.5 * (p0[c] + p0[e])
				dPUdl := (pE*u0[e] - pW*u0[c]) * invDlam

				// P·V·sinθ at the interfaces j (north face) and j+1 (south).
				pFaceN := 0.5 * (pN[c] + p0[c])
				pFaceS := 0.5 * (p0[c] + pS[c])
				dPVdt := (pFaceS*vS[c]*sI1 - pFaceN*v0[c]*sI0) * invDthe

				dst[c] = invASin * (dPUdl + dPVdt)
			}
		}
	}
	return r.Count()
}

// CSumScratch holds the work planes of CSumWith. One instance per integrator
// makes the vertical summation allocation-free in steady state; the slices
// grow on demand to the largest plane seen.
type CSumScratch struct {
	local, all, dbar, base, prefix []float64
}

// grown resizes a scratch slice to n, reallocating only when the capacity is
// exceeded; contents are unspecified (callers zero what they accumulate).
func grown(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// CSumWith executes the collective part of Ĉ: given D(P) on the horizontal rect
// hr (for every locally stored vertical level within [loK, hiK)), it reduces
// the Δσ-weighted vertical sums across the z communicator and assembles
// DBar and the interface fluxes PWI into res.
//
// The collective is a ring Allgather of each z-rank's partial-sum plane
// (category comm.CatCollectiveZ) — one collective operation per Ĉ
// evaluation, matching the paper's communication counting. When the z
// communicator has size 1 no communication happens.
//
// The interface flux satisfies PW = σ·D̄ − ∫₀^σ D(P) dσ', which vanishes at
// σ = 0 and σ = 1, so W and σ̇ have the correct boundary behaviour.
//
// loK/hiK bound the vertical range over which divP holds valid data
// (beyond the owned range for deep-halo execution); they are clamped to the
// global domain. sc is caller-held scratch, grown on first use and reused
// afterwards. Returns points updated (for compute accounting).
func CSumWith(g *grid.Grid, cz *comm.Comm, world *comm.Comm, divP *field.F3, res *CRes, hr field.Rect, loK, hiK int, sc *CSumScratch) int {
	b := res.B
	if loK < 0 {
		loK = 0
	}
	if hiK > g.Nz {
		hiK = g.Nz
	}
	hr = hr.Flat2D()
	nxh := hr.I1 - hr.I0
	nyh := hr.J1 - hr.J0
	plane := nxh * nyh
	work := 0

	// Local Δσ-weighted sum over the owned levels.
	sc.local = grown(sc.local, plane)
	local := sc.local
	for i := range local {
		local[i] = 0
	}
	for k := b.K0; k < b.K1; k++ {
		ds := g.DSigma[k]
		w := 0
		for j := hr.J0; j < hr.J1; j++ {
			base := divP.Index(hr.I0, j, k)
			for o := 0; o < nxh; o++ {
				local[w] += ds * divP.Data[base+o]
				w++
			}
		}
	}
	work += (b.K1 - b.K0) * plane

	// The z collective: gather every z-rank's partial plane.
	var all []float64
	pz := 1
	myCz := 0
	if cz != nil {
		pz = cz.Size()
		myCz = cz.Rank()
	}
	if pz > 1 {
		prev := world.SetCategory(comm.CatCollectiveZ)
		sc.all = grown(sc.all, pz*plane)
		all = sc.all
		cz.Allgather(local, all)
		world.SetCategory(prev)
	} else {
		all = local
	}

	// DBar = total; base = partial sum of the z-ranks above (lower k).
	sc.dbar = grown(sc.dbar, plane)
	sc.base = grown(sc.base, plane)
	dbar, base := sc.dbar, sc.base
	for i := range dbar {
		dbar[i], base[i] = 0, 0
	}
	for r := 0; r < pz; r++ {
		seg := all[r*plane : (r+1)*plane]
		for i, v := range seg {
			dbar[i] += v
			if r < myCz {
				base[i] += v
			}
		}
	}
	work += pz * plane

	// Store DBar.
	w := 0
	for j := hr.J0; j < hr.J1; j++ {
		d := res.DBar.Index(hr.I0, j)
		copy(res.DBar.Data[d:d+nxh], dbar[w:w+nxh])
		w += nxh
	}

	// Assemble PWI on [loK, hiK]: march the prefix up and down from the
	// owned range using the locally stored D(P) halo levels.
	// prefix(k) = Σ_{k'<k} Δσ_{k'} D(P)_{k'}; PWI(k) = σ_I[k]·DBar − prefix(k).
	sc.prefix = grown(sc.prefix, plane)
	prefix := sc.prefix
	copy(prefix, base)
	// Downward sweep: interfaces K0 … hiK.
	for k := b.K0; k <= hiK; k++ {
		storePWI(g, res, hr, k, dbar, prefix)
		if k < hiK {
			accumulate(divP, hr, k, g.DSigma[k], prefix)
		}
	}
	// Upward sweep: interfaces K0−1 … loK (subtract layers above K0).
	copy(prefix, base)
	for k := b.K0 - 1; k >= loK; k-- {
		accumulate(divP, hr, k, -g.DSigma[k], prefix)
		storePWI(g, res, hr, k, dbar, prefix)
	}
	work += (hiK - loK + 2) * plane

	res.Valid = hr
	return work
}

// storePWI writes PWI at interface k: σ_I[k]·DBar − prefix.
func storePWI(g *grid.Grid, res *CRes, hr field.Rect, k int, dbar, prefix []float64) {
	if w := res.B.WithHalo(); k < w.K0 || k >= w.K1 {
		return // interface outside storage (cannot happen for Hz ≥ 1)
	}
	sig := g.SigmaI[k]
	nxh := hr.I1 - hr.I0
	w := 0
	for j := hr.J0; j < hr.J1; j++ {
		base := res.PWI.Index(hr.I0, j, k)
		for o := 0; o < nxh; o++ {
			res.PWI.Data[base+o] = sig*dbar[w] - prefix[w]
			w++
		}
	}
}

// accumulate adds ds·D(P) at level k into prefix.
func accumulate(divP *field.F3, hr field.Rect, k int, ds float64, prefix []float64) {
	nxh := hr.I1 - hr.I0
	w := 0
	for j := hr.J0; j < hr.J1; j++ {
		base := divP.Index(hr.I0, j, k)
		for o := 0; o < nxh; o++ {
			prefix[w] += ds * divP.Data[base+o]
			w++
		}
	}
}
