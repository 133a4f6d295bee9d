package dycore

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/stencil"
	"cadycore/internal/topo"
)

// Baseline runs the original Algorithm 1 on an arbitrary process grid: a
// halo exchange before every operator evaluation, a fresh Ĉ (one
// z-collective) inside every adaptation evaluation, Fourier filtering after
// every tendency (a distributed transpose FFT when p_x > 1), and full
// smoothing with its own exchange at the end of each step.
//
// With p_x = 1 this is the paper's "original algorithm, Y-Z decomposition";
// with p_z = 1 it is the "original algorithm, X-Y decomposition". Per step
// it performs 3M + 4 halo-exchange rounds and 3M z-collectives, matching
// the counts of Section 5.2.
type Baseline struct {
	*core
	exStencil *topo.Exchanger // per-update exchange at the stencil radii
	exSmooth  *topo.Exchanger // depth-2 exchange before smoothing
}

// Halo widths for the baseline: the per-update radii of the widest tables
// (x from Tables 1/2, y from Table 3's smoothing, z from Tables 1/2).
func baselineHalo() (hx, hy, hz int) {
	r := stencil.Union(
		stencil.RadiusOf(stencil.Adaptation),
		stencil.RadiusOf(stencil.Advection),
		stencil.RadiusOf(stencil.Smoothing),
	)
	return r.X, r.Y, r.Z
}

// NewBaseline builds the baseline integrator for the calling rank. The
// topology must be built with BaselineTopology (or identical halo widths).
func NewBaseline(cfg Config, g *grid.Grid, tp *topo.Topology) *Baseline {
	b := &Baseline{core: newCore(cfg, g, tp)}
	rAd := stencil.Union(stencil.RadiusOf(stencil.Adaptation), stencil.RadiusOf(stencil.Advection))
	rSm := stencil.RadiusOf(stencil.Smoothing)
	dx := 0
	dxs := 0
	if tp.Px > 1 {
		dx = rAd.X
		dxs = rSm.X
	}
	dy, dz := rAd.Y, rAd.Z
	if tp.Py == 1 {
		dy = 0
	}
	if tp.Pz == 1 {
		dz = 0
	}
	dys := rSm.Y
	if tp.Py == 1 {
		dys = 0
	}
	b.exStencil = tp.NewExchanger(dx, dy, dz).SetLabel("baseline-stencil")
	b.exSmooth = tp.NewExchanger(dxs, dys, 0).SetLabel("baseline-smooth")
	return b
}

// ExchStats reports per-exchanger overlap accounting.
func (b *Baseline) ExchStats() []topo.ExchStats {
	return []topo.ExchStats{b.exStencil.Stats(), b.exSmooth.Stats()}
}

// SetState overwrites the owned region of ξ (and refreshes boundaries and
// the initial Ĉ cache — one startup exchange and one startup collective,
// mirroring the model's initialization phase). The smoothing a comm-avoiding
// step-boundary snapshot still owes cannot be deferred here: apply it now.
func (b *Baseline) SetState(init *state.State) {
	b.xi.CopyFrom(init)
	if init.Carry != nil && init.Carry.PendingSmooth {
		b.psi.CopyFrom(b.xi)
		b.smooth()
	}
	b.bootstrap()
}

// bootstrap fills halos and evaluates the initial Ĉ(ξ⁰) so the advection's
// σ̇ is defined from the first step (Algorithm 2 line 1: ξ^(−1) = ξ^(0)).
func (b *Baseline) bootstrap() {
	b.localFill(b.xi)
	f3, f2 := b.exchangeFields(b.xi)
	b.exStencil.Exchange(f3, f2)
	b.n.HaloExchanges++
	b.localFill(b.xi)
	b.updateSurface(b.xi)
	b.evalC(b.xi, b.cLast, b.tp.Block.Owned())
	b.fillCBounds(b.cLast)
}

// exchange performs one stencil-radius halo exchange of st (plus the cached
// Ĉ fields).
func (b *Baseline) exchange(st *state.State) {
	f3, f2 := b.exchangeFields(st)
	b.exStencil.Exchange(f3, f2)
	b.n.HaloExchanges++
	b.localFill(st)
}

// adaptUpdate computes dst = base + Δt1·F̃(Ĉ(src) + Â(src)) on the owned
// region. The halo exchange of src overlaps the interior D(P) evaluation:
// Begin → D(P) on the interior rect (whose stencil reads stay clear of
// in-flight halo cells) → Finish → D(P) on the boundary slabs → one
// z-collective over the owned block. D(P) is per-point pure, so the split
// cover produces bitwise the monolithic sweep; under Config.NoOverlap the
// exchange quiesces first and the slab cover degenerates to one owned-rect
// call, reproducing the original operation sequence exactly.
func (b *Baseline) adaptUpdate(dst, base, src *state.State) {
	owned := b.tp.Block.Owned()
	f3, f2 := b.exchangeFields(src)
	pend := b.exStencil.Begin(f3, f2)
	b.n.HaloExchanges++
	var inner field.Rect
	if b.cfg.NoOverlap {
		//cadyvet:quiesce NoOverlap ablation: the quiesced reference path blocks by design
		pend.Finish()
		b.localFill(src)
		b.updateSurface(src)
	} else {
		// The interior compute reads src's local ghosts (periodic x wrap,
		// pole and vertical mirrors), which a step hook or resume may have
		// left stale relative to the owned cells — the quiesced path hides
		// this by refilling after the blocking exchange. Refill them before
		// touching the interior; the post-Finish refill below then only
		// refreshes the ghosts derived from the received halo rows.
		b.localFill(src)
		// Surface diagnostics from the pre-exchange p'_sa: interior reads
		// stay within the owned region, where the values are current; the
		// halo cells are recomputed (uncharged) after Finish.
		b.updateSurface(src)
		inner = b.shrinkByDepths(owned, b.exStencil.ExchangeDepths())
		if !inner.Empty() {
			b.evalDivP(src, inner)
		}
		pend.Finish()
		b.localFill(src)
		b.refreshSurface(src)
	}
	for _, s := range b.slabs(owned, inner) {
		b.evalDivP(src, s)
	}
	b.sumC(b.cNew, owned)
	b.adaptTendency(src, b.cNew, owned)
	b.filterTendency(owned)
	b.applyUpdate(dst, base, b.cfg.Dt1, owned)
	// Remember the most recent Ĉ for the advection's σ̇.
	b.cLast, b.cNew = b.cNew, b.cLast
}

// advectUpdate computes dst = base + Δt2·F̃(L̃(src)) on the owned region,
// overlapping the halo exchange with the interior advection tendency the
// same way adaptUpdate overlaps D(P).
func (b *Baseline) advectUpdate(dst, base, src *state.State) {
	owned := b.tp.Block.Owned()
	f3, f2 := b.exchangeFields(src)
	pend := b.exStencil.Begin(f3, f2)
	b.n.HaloExchanges++
	var inner field.Rect
	if b.cfg.NoOverlap {
		//cadyvet:quiesce NoOverlap ablation: the quiesced reference path blocks by design
		pend.Finish()
		b.localFill(src)
		b.updateSurface(src)
	} else {
		b.localFill(src) // see adaptUpdate: entry ghosts may be hook-stale
		b.updateSurface(src)
		inner = b.shrinkByDepths(owned, b.exStencil.ExchangeDepths())
		if !inner.Empty() {
			b.advectTendency(src, b.cLast, inner)
		}
		pend.Finish()
		b.localFill(src)
		b.refreshSurface(src)
	}
	for _, s := range b.slabs(owned, inner) {
		b.advectTendency(src, b.cLast, s)
	}
	b.filterTendency(owned)
	b.applyUpdate(dst, base, b.cfg.Dt2, owned)
}

// Step advances one time step of Algorithm 1.
//
//cadyvet:allocfree
func (b *Baseline) Step() {
	owned := b.tp.Block.Owned()

	// Adaptation: M nonlinear iterations of 3 internal updates each.
	b.psi.CopyFrom(b.xi)
	for i := 1; i <= b.cfg.M; i++ {
		b.adaptUpdate(b.eta1, b.psi, b.psi)
		b.adaptUpdate(b.eta2, b.psi, b.eta1)
		b.mid.Mean2Rect(b.psi, b.eta2, owned)
		b.mid.FillLocalBounds()
		b.adaptUpdate(b.psi, b.psi, b.mid) // ψ ← η3
	}

	// Advection: one nonlinear iteration.
	b.advectUpdate(b.eta1, b.psi, b.psi)  // ζ1
	b.advectUpdate(b.eta2, b.psi, b.eta1) // ζ2
	b.mid.Mean2Rect(b.psi, b.eta2, owned)
	b.mid.FillLocalBounds()
	b.advectUpdate(b.psi, b.psi, b.mid) // ζ3

	b.smooth()

	b.n.Steps++
}

// smooth sets ξ ← S̃(ψ) with its own exchange, overlapped with the interior
// sweep: S̃ reads ψ and writes ξ, so the interior rect (clear of ψ's in-flight
// halo rows) smooths while the messages fly and the boundary slabs follow
// after Finish. Per-point pure → bitwise the monolithic sweep.
//
//cadyvet:allocfree
func (b *Baseline) smooth() {
	owned := b.tp.Block.Owned()
	f3, f2 := b.exchangeFields(b.psi)
	pend := b.exSmooth.Begin(f3, f2)
	b.n.HaloExchanges++
	var inner field.Rect
	if !b.cfg.NoOverlap {
		b.localFill(b.psi) // see adaptUpdate: entry ghosts may be hook-stale
		inner = b.shrinkByDepths(owned, b.exSmooth.ExchangeDepths())
		if !inner.Empty() {
			w := b.smo.SmoothFull(b.psi, b.xi, inner)
			b.w.Compute(float64(w) * costSmooth)
		}
	}
	//cadyvet:quiesce under NoOverlap the inner rect is empty and this Finish is the quiesced reference path
	pend.Finish()
	b.localFill(b.psi)
	for _, s := range b.slabs(owned, inner) {
		w := b.smo.SmoothFull(b.psi, b.xi, s)
		b.w.Compute(float64(w) * costSmooth)
	}
	b.n.SmoothingCalls++
	b.localFill(b.xi)
}

// Finalize is a no-op: the baseline smooths within Step.
func (b *Baseline) Finalize() {}
