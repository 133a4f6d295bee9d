package operators

import (
	"math/bits"
	"slices"

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
}

// NewCRes allocates a result container on the block.
func NewCRes(b field.Block) *CRes {
	return &CRes{B: b, DBar: field.NewF2(b), PWI: field.NewF3(b)}
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

// Ĉ sums its leaves Δσ_k·D(P)_k by one fixed binary tree over the Nz
// levels: node [lo, hi) is the sum of its halves [lo, m) and [m, hi),
// m = ⌊(lo+hi)/2⌋. That is the z partition's own floor rule (topo), so a
// z-rank's block under any 2^d-way split of Nz is one node. DBar is the root
// and prefix(k), the sum above interface k, is the left-to-right sum of the
// maximal nodes that tile [0, k). Every node is a pure function of its
// leaves, so every layout, the serial one included, gets the same bits.

// span is the level range [lo, hi) of a tree node.
type span struct{ lo, hi int }

// maxNode returns the end of the largest node that starts at level lo and
// ends by hi.
func maxNode(lo, hi, nz int) int {
	l, h := 0, nz
	for l != lo || h > hi {
		if m := (l + h) / 2; lo < m {
			h = m
		} else {
			l = m
		}
	}
	return h
}

// CSumScratch holds the work planes of CSumWith: the gathered node planes
// and the march's open nodes, at most two per tree level. One instance per
// integrator makes the vertical summation allocation-free in steady state;
// the slices grow on demand to the most the marches hold.
type CSumScratch struct {
	all, open []float64
	spans     []span
}

// push opens the plane of node s on top of the march for the caller to fill.
func (sc *CSumScratch) push(s span, plane int) []float64 {
	i := len(sc.spans)
	sc.spans = append(sc.spans, s)
	return sc.open[i*plane : (i+1)*plane]
}

// merge adds the top node into its left neighbour while the two are the
// halves of one node: together a node, split where they meet.
func (sc *CSumScratch) merge(nz, plane int) int {
	work := 0
	for n := len(sc.spans); n > 1; n-- {
		if l, r := sc.spans[n-2], sc.spans[n-1]; maxNode(l.lo, r.hi, nz) != r.hi || (l.lo+r.hi)/2 != l.hi {
			break
		}
		a, b := sc.open[(n-2)*plane:(n-1)*plane], sc.open[(n-1)*plane:n*plane]
		for i, v := range b {
			a[i] += v
		}
		sc.spans[n-2].hi = sc.spans[n-1].hi
		sc.spans = sc.spans[:n-1]
		work += plane
	}
	return work
}

// CSumWith executes the collective part of Ĉ: given D(P) on the horizontal rect
// hr (for every locally stored vertical level within [loK, hiK)), it reduces
// the Δσ-weighted vertical sums across the z communicator and assembles
// DBar and the interface fluxes PWI into res, by the summation tree above.
//
// The collective is an Allgather of each z-rank's maximal nodes, padded to
// the most any z-rank has (category comm.CatCollectiveZ) — one collective
// operation per Ĉ evaluation, matching the paper's communication counting,
// and one plane per rank when every block is a node. When the z
// communicator has size 1 no communication happens.
//
// The interface flux satisfies PW = σ·D̄ − ∫₀^σ D(P) dσ', which vanishes at
// σ = 0 and σ = 1, so W and σ̇ have the correct boundary behaviour.
//
// loK must be the owned K0 (Â reads no level above its own), which is 0
// without a z collective; hiK may reach past the owned K1 into the deep
// halo, and is clamped to the global domain. PWI is written on the
// interfaces [K0, hiK], which it must store. divP may be res.PWI: every
// layer k is read before interface k is written, so D(P) can live in the
// result it feeds. sc is caller-held scratch, grown on first use and
// reused afterwards. Returns points updated (for compute accounting).
func CSumWith(g *grid.Grid, cz *comm.Comm, world *comm.Comm, divP *field.F3, res *CRes, hr field.Rect, loK, hiK int, sc *CSumScratch) int {
	b := res.B
	if loK != b.K0 || hiK < b.K1 || b.K0 > 0 && (cz == nil || cz.Size() == 1) {
		panic("operators: CSumWith assembles the interfaces from the owned K0 to at least K1, from 0 alone")
	}
	nz := g.Nz
	hiK = min(hiK, nz)
	hr = hr.Flat2D()
	nxh := hr.I1 - hr.I0
	plane := nxh * (hr.J1 - hr.J0)
	work := 0

	// row is row j of f over hr at level k.
	row := func(f *field.F3, j, k int) []float64 {
		d := f.Index(hr.I0, j, k)
		return f.Data[d : d+nxh]
	}
	// leaf opens the plane of level k as Δσ_k·D(P)_k.
	leaf := func(k int) {
		dst, ds := sc.push(span{k, k + 1}, plane), g.DSigma[k]
		for j := hr.J0; j < hr.J1; j++ {
			for o, v := range row(divP, j, k) {
				dst[(j-hr.J0)*nxh+o] = ds * v
			}
		}
		work += plane
	}
	// setDBar stores the left-to-right sum of the node planes in open.
	setDBar := func(open []float64) {
		for j := hr.J0; j < hr.J1; j++ {
			fold(row(&res.DBar.F3, j, 0), open, plane, (j-hr.J0)*nxh)
		}
	}

	pz := 1
	if cz != nil {
		pz = cz.Size()
	}
	// block is topo's z partition; width, the most maximal nodes a block
	// holds.
	block := func(r int) (lo, hi int) { return r * nz / pz, (r + 1) * nz / pz }
	width := 0
	for r := range pz {
		n := 0
		for lo, hi := block(r); lo < hi; n++ {
			lo = maxNode(lo, hi, nz)
		}
		width = max(width, n)
	}
	// A march from level 0 holds at most one node per tree level and one it
	// opened; one from a block's first level, the block's complete nodes too.
	if most := width + bits.Len(uint(nz-1)); len(sc.open) < most*plane || cap(sc.spans) < most {
		sc.open, sc.spans = slices.Grow(sc.open[:0], most*plane)[:most*plane], make([]span, 0, most)
	}
	// march stores prefix(k) at every interface k of [lo, hi), each after
	// pushing level k (but hiK), which it reads before that interface is
	// written; without a z collective DBar is the sum at K1 (of [0, K1)).
	march := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			open := sc.open[:len(sc.spans)*plane]
			if k < hiK {
				leaf(k)
			}
			if pz == 1 && k == b.K1 {
				setDBar(open)
			}
			for j := hr.J0; j < hr.J1; j++ {
				fold(row(res.PWI, j, k), open, plane, (j-hr.J0)*nxh)
			}
			work += plane + sc.merge(nz, plane)
		}
	}

	sc.spans = sc.spans[:0]
	from := b.K0
	if pz > 1 {
		// The z collective ships the owned block's maximal nodes, padded to
		// width. The top block's march stores its prefixes on the way, as no
		// node above it is needed; the others march again after the gather.
		if b.K0 == 0 {
			march(0, b.K1)
			from = b.K1
		}
		for k := from; k < b.K1; k++ {
			leaf(k)
			work += sc.merge(nz, plane)
		}
		send := sc.open[:width*plane]
		clear(send[len(sc.spans)*plane:])
		sc.all = slices.Grow(sc.all[:0], pz*width*plane)[:pz*width*plane]
		prev := world.SetCategory(comm.CatCollectiveZ)
		cz.Allgather(send, sc.all)
		world.SetCategory(prev)

		// gathered marches the nodes of the z-ranks whose blocks end by level
		// to, in rank order, from an empty march.
		gathered := func(to int) {
			sc.spans = sc.spans[:0]
			for r := 0; r < pz && (r+1)*nz/pz <= to; r++ {
				seg := sc.all[r*width*plane:]
				for lo, hi := block(r); lo < hi; seg = seg[plane:] {
					s := span{lo, maxNode(lo, hi, nz)}
					copy(sc.push(s, plane), seg[:plane])
					work += plane + sc.merge(nz, plane)
					lo = s.hi
				}
			}
		}
		// DBar is the root; the march goes on from the nodes that tile
		// [0, from).
		gathered(nz)
		setDBar(sc.open[:len(sc.spans)*plane])
		gathered(from)
	}
	march(from, hiK+1)
	// PWI(k) = σ_I[k]·DBar − prefix(k).
	for j := hr.J0; j < hr.J1; j++ {
		dbar := row(&res.DBar.F3, j, 0)
		for k := b.K0; k <= hiK; k++ {
			pwi, sig := row(res.PWI, j, k), g.SigmaI[k]
			for o, d := range dbar {
				pwi[o] = sig*d - pwi[o]
			}
		}
	}
	return work
}

// fold sets dst to the left-to-right sum over the node planes in open of
// their points w0, w0+1, …: zero when open is empty.
func fold(dst, open []float64, plane, w0 int) {
	if len(open) == 0 {
		clear(dst)
		return
	}
	copy(dst, open[w0:])
	for e := plane + w0; e < len(open); e += plane {
		for o, v := range open[e : e+len(dst)] {
			dst[o] += v
		}
	}
}
