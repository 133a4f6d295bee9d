package dycore

import (
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
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
	exSmooth  *topo.Exchanger // exchange before smoothing
}

// NewBaseline builds the baseline integrator for the calling rank, on a
// topology with the halo widths Setup.HaloWidths returns, with the
// exchangers and storage blocks of the rank's cover (planCover).
func NewBaseline(cfg Config, g *grid.Grid, tp *topo.Topology) *Baseline {
	b := &Baseline{core: newCore(cfg, g, tp, planCover(Setup{Alg: AlgBaselineYZ, Cfg: cfg}, tp.Block, nil))}
	b.tnd = operators.NewTendency(b.cv.tend)
	b.exStencil = tp.NewExchangerD(b.cv.stencil.depths).SetLabel("baseline-stencil")
	b.exSmooth = tp.NewExchangerD(b.cv.smooth.depths).SetLabel("baseline-smooth")
	return b
}

// ExchStats reports per-exchanger overlap accounting.
func (b *Baseline) ExchStats() []topo.ExchStats {
	return []topo.ExchStats{b.exStencil.Stats(), b.exSmooth.Stats()}
}

// SetState overwrites the owned region of ξ from init, whatever init's
// storage extent, refreshes its halos and evaluates the initial Ĉ(ξ⁰) so
// the advection's σ̇ is defined from the first step (Algorithm 2 line 1:
// ξ^(−1) = ξ^(0)) — one startup exchange and one startup collective,
// mirroring the model's initialization phase. The smoothing a comm-avoiding
// step-boundary snapshot still owes cannot be deferred here: apply it
// first, after refreshing the ghosts sourced in the restored owned cells.
func (b *Baseline) SetState(init *state.State) {
	b.xi.CopyOwned(init)
	owned := b.tp.Block.Owned()
	if init.Carry != nil && init.Carry.PendingSmooth {
		b.xi.FillLocalBounds(owned)
		b.smooth()
	}
	b.bootstrap(b.exStencil, b.xi)
	b.updateSurface(b.xi, owned)
	b.evalC(b.xi, owned)
}

// adaptTendencyOf evaluates F̃(Ĉ(src) + Â(src)) into the tendency on the
// owned region. The halo exchange of src overlaps the interior D(P)
// evaluation (core.overlapped); one z-collective over the owned block then
// completes Ĉ in the cache, which the advection's σ̇ reads later.
func (b *Baseline) adaptTendencyOf(src *state.State) {
	owned := b.tp.Block.Owned()
	b.overlapped(b.exStencil, src, nil, kernDivP, owned, b.cv.stencil.inner)
	b.sumC(owned)
	b.adaptTendency(src, owned)
	b.filterTendency(owned)
}

// advectTendencyOf evaluates F̃(L̃(src)) into the tendency on the owned
// region, overlapping the halo exchange with the interior advection.
func (b *Baseline) advectTendencyOf(src *state.State) {
	owned := b.tp.Block.Owned()
	b.overlapped(b.exStencil, src, nil, kernAdvect, owned, b.cv.stencil.inner)
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
	b.overlapped(b.exSmooth, b.xi, b.eta1, kernSmooth, b.tp.Block.Owned(), b.cv.smooth.inner)
	b.xi, b.eta1 = b.eta1, b.xi
	b.n.SmoothingCalls++
	b.xi.FillLocalBounds(b.tp.Block.Owned())
}

// Finalize is a no-op: the baseline smooths within Step.
func (b *Baseline) Finalize() {}
