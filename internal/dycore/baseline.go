package dycore

import (
	"cadycore/internal/grid"
	"cadycore/internal/operators"
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
//
// ψ is ξ, and each iteration needs one work state: η1, overwritten by the
// midpoint (ψ + η2)/2 once η2's tendency is formed (apply). The
// smoothing, which cannot write the state it reads, writes the work state
// (free once ζ3 is formed) and swaps it with ξ. Xi() therefore names a
// different buffer after every Step.
type Baseline struct {
	*core
	exStencil *topo.Exchanger // per-update exchange at the stencil radii
	exSmooth  *topo.Exchanger // depth-2 exchange before smoothing
}

// BaselineHalo returns the halo widths the baseline integrator requires: the
// per-update radii of the widest tables (x from Tables 1/2, y from Table 3's
// smoothing, z from Tables 1/2).
func BaselineHalo() (hx, hy, hz int) {
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
	// Every tendency is computed on the owned block, and L̃ reads its planes
	// one row past it. The work state swaps with ξ (smooth), so it shares
	// ξ's block.
	owned := tp.Block.Owned()
	b := &Baseline{core: newCore(cfg, g, tp, tp.Block, tp.Block, covering(tp.Block, grow(owned, 1, 0)))}
	b.tnd = operators.NewTendency(covering(tp.Block, owned))
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

// SetState overwrites the owned region of ξ from init, whatever init's
// storage extent (and refreshes boundaries and the initial Ĉ cache — one
// startup exchange and one startup collective, mirroring the model's
// initialization phase). The smoothing a comm-avoiding step-boundary
// snapshot still owes cannot be deferred here: apply it now, after
// refreshing the ghosts sourced in the restored owned cells.
func (b *Baseline) SetState(init *state.State) {
	b.xi.CopyOwned(init)
	if init.Carry != nil && init.Carry.PendingSmooth {
		b.xi.FillLocalBounds(b.tp.Block.Owned())
		b.smooth()
	}
	b.bootstrap()
}

// bootstrap fills halos and evaluates the initial Ĉ(ξ⁰) so the advection's
// σ̇ is defined from the first step (Algorithm 2 line 1: ξ^(−1) = ξ^(0)).
// sumC fills the new Ĉ's boundaries itself.
func (b *Baseline) bootstrap() {
	b.localFill(b.xi)
	f3, f2 := b.exchangeFields(b.xi)
	b.exStencil.Exchange(f3, f2)
	b.n.HaloExchanges++
	b.localFill(b.xi)
	owned := b.tp.Block.Owned()
	b.updateSurface(b.xi, owned)
	b.evalC(b.xi, owned)
}

// adaptTendencyOf evaluates F̃(Ĉ(src) + Â(src)) into the tendency on the
// owned region. The halo exchange of src overlaps the interior D(P)
// evaluation (core.overlapped); one z-collective over the owned block then
// completes Ĉ in the cache, which the advection's σ̇ reads later.
func (b *Baseline) adaptTendencyOf(src *state.State) {
	owned := b.tp.Block.Owned()
	b.overlapped(b.exStencil, src, nil, kernDivP, owned, b.exStencil.ExchangeDepths())
	b.sumC(owned)
	b.adaptTendency(src, owned)
	b.filterTendency(owned)
}

// advectTendencyOf evaluates F̃(L̃(src)) into the tendency on the owned
// region, overlapping the halo exchange with the interior advection.
func (b *Baseline) advectTendencyOf(src *state.State) {
	owned := b.tp.Block.Owned()
	b.overlapped(b.exStencil, src, nil, kernAdvect, owned, b.exStencil.ExchangeDepths())
	b.filterTendency(owned)
}

// apply writes dst over the owned block from ψ = ξ and the tendency:
// dst ← ψ + dt·T, or with mid the midpoint ½ψ + ½(ψ + dt·T) of an
// iteration's third update, whose η2 is formed per point and never stored
// (field.MidRect). The tendency is complete before the sweep writes, so dst
// may be the state it was evaluated at. The midpoint is charged what the η2
// update was; the mean never was. Then it refreshes the ghosts of dst
// sourced in the owned block: the next kernel reads nothing else of dst.
func (b *Baseline) apply(dst *state.State, dt float64, mid bool) {
	owned := b.tp.Block.Owned()
	lincomb(dst.U, b.xi.U, dt, b.tnd.DU, owned, mid)
	lincomb(dst.V, b.xi.V, dt, b.tnd.DV, owned, mid)
	lincomb(dst.Phi, b.xi.Phi, dt, b.tnd.DPhi, owned, mid)
	lincomb(&dst.Psa.F3, &b.xi.Psa.F3, dt, &b.tnd.DPsa.F3, owned.Flat2D(), mid)
	b.chargeLincomb(owned)
	dst.FillLocalBounds(owned)
}

// Step advances one time step of Algorithm 1.
func (b *Baseline) Step() {
	// A step hook or resume writes ξ's owned cells from outside the
	// integrator: refresh the ghosts sourced there once. Every other ghost
	// follows the write that made it (apply, fillReceived).
	b.xi.FillLocalBounds(b.tp.Block.Owned())

	// Adaptation: M nonlinear iterations of 3 internal updates each, on
	// ψ = ξ; η1's storage holds the midpoint once η2's tendency is formed.
	for i := 1; i <= b.cfg.M; i++ {
		b.adaptTendencyOf(b.xi)
		b.apply(b.eta1, b.cfg.Dt1, false) // η1
		b.adaptTendencyOf(b.eta1)
		b.apply(b.eta1, b.cfg.Dt1, true) // (ψ + η2)/2
		b.adaptTendencyOf(b.eta1)
		b.apply(b.xi, b.cfg.Dt1, false) // ψ ← η3
	}

	// Advection: one nonlinear iteration.
	b.advectTendencyOf(b.xi)
	b.apply(b.eta1, b.cfg.Dt2, false) // ζ1
	b.advectTendencyOf(b.eta1)
	b.apply(b.eta1, b.cfg.Dt2, true) // (ψ + ζ2)/2
	b.advectTendencyOf(b.eta1)
	b.apply(b.xi, b.cfg.Dt2, false) // ζ3

	b.smooth()

	b.n.Steps++
}

// smooth sets ξ ← S̃(ξ) with its own exchange of ξ, overlapped with the
// interior sweep. S̃ writes the work state, which nothing reads after ζ3,
// and the two buffers swap.
func (b *Baseline) smooth() {
	b.overlapped(b.exSmooth, b.xi, b.eta1, kernSmooth, b.tp.Block.Owned(), b.exSmooth.ExchangeDepths())
	b.xi, b.eta1 = b.eta1, b.xi
	b.n.SmoothingCalls++
	b.xi.FillLocalBounds(b.tp.Block.Owned())
}

// Finalize is a no-op: the baseline smooths within Step.
func (b *Baseline) Finalize() {}
