package dycore

import (
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
//
// ψ is ξ, and each iteration needs one work state: η1, overwritten by the
// midpoint (ψ + η2)/2 once η2's tendency is formed (core.applyMid). The
// smoothing, which cannot write the state it reads, writes the work state
// (free once ζ3 is formed) and swaps it with ξ. Xi() therefore names a
// different buffer after every Step.
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
	b.evalC(b.xi, b.cLast, owned)
}

// adaptTendencyOf evaluates F̃(Ĉ(src) + Â(src)) into the tendency on the
// owned region. The halo exchange of src overlaps the interior D(P)
// evaluation (core.overlapped); one z-collective over the owned block then
// completes Ĉ, which is remembered for the advection's σ̇.
func (b *Baseline) adaptTendencyOf(src *state.State) {
	owned := b.tp.Block.Owned()
	b.overlapped(b.exStencil, src, nil, kernDivP)
	b.sumC(b.cNew, owned)
	b.adaptTendency(src, b.cNew, owned)
	b.filterTendency(owned)
	b.cLast, b.cNew = b.cNew, b.cLast
}

// adaptUpdate computes dst = base + Δt1·F̃(Ĉ(src) + Â(src)) on the owned
// region.
func (b *Baseline) adaptUpdate(dst, base, src *state.State) {
	b.adaptTendencyOf(src)
	b.applyUpdate(dst, base, b.cfg.Dt1, b.tp.Block.Owned())
}

// advectTendencyOf evaluates F̃(L̃(src)) into the tendency on the owned
// region, overlapping the halo exchange with the interior advection.
func (b *Baseline) advectTendencyOf(src *state.State) {
	b.overlapped(b.exStencil, src, nil, kernAdvect)
	b.filterTendency(b.tp.Block.Owned())
}

// advectUpdate computes dst = base + Δt2·F̃(L̃(src)) on the owned region.
func (b *Baseline) advectUpdate(dst, base, src *state.State) {
	b.advectTendencyOf(src)
	b.applyUpdate(dst, base, b.cfg.Dt2, b.tp.Block.Owned())
}

// Step advances one time step of Algorithm 1.
func (b *Baseline) Step() {
	owned := b.tp.Block.Owned()
	// A step hook or resume writes ξ's owned cells from outside the
	// integrator: refresh the ghosts sourced there once. Every other ghost
	// follows the write that made it (applyUpdate, applyMid, fillReceived).
	b.xi.FillLocalBounds(owned)

	// Adaptation: M nonlinear iterations of 3 internal updates each, on
	// ψ = ξ; η1's storage holds the midpoint once η2's tendency is formed.
	for i := 1; i <= b.cfg.M; i++ {
		b.adaptUpdate(b.eta1, b.xi, b.xi) // η1
		b.adaptTendencyOf(b.eta1)
		b.applyMid(b.eta1, b.xi, b.cfg.Dt1, owned) // (ψ + η2)/2
		b.adaptUpdate(b.xi, b.xi, b.eta1)          // ψ ← η3
	}

	// Advection: one nonlinear iteration.
	b.advectUpdate(b.eta1, b.xi, b.xi) // ζ1
	b.advectTendencyOf(b.eta1)
	b.applyMid(b.eta1, b.xi, b.cfg.Dt2, owned) // (ψ + ζ2)/2
	b.advectUpdate(b.xi, b.xi, b.eta1)         // ζ3

	b.smooth()

	b.n.Steps++
}

// smooth sets ξ ← S̃(ξ) with its own exchange of ξ, overlapped with the
// interior sweep. S̃ writes the work state, which nothing reads after ζ3,
// and the two buffers swap.
func (b *Baseline) smooth() {
	b.overlapped(b.exSmooth, b.xi, b.eta1, kernSmooth)
	b.xi, b.eta1 = b.eta1, b.xi
	b.n.SmoothingCalls++
	b.xi.FillLocalBounds(b.tp.Block.Owned())
}

// Finalize is a no-op: the baseline smooths within Step.
func (b *Baseline) Finalize() {}
