package dycore

import (
	"math"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/filter"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/topo"
)

// Integrator is one rank's handle on a running dynamical core.
type Integrator interface {
	// Step advances the model by one time step (Δt2 of model time).
	Step()
	// Finalize applies any deferred smoothing so Xi() is the final ξ(K)
	// (Algorithm 2 line 30). Baselines smooth within Step, so their
	// Finalize is a no-op. Call exactly once, after the last Step.
	Finalize()
	// Xi returns this rank's block of the current state.
	Xi() *state.State
	// Counters returns algorithm-level operation counts.
	Counters() Counters
}

// Counters tracks the algorithm-level operation counts the paper reports
// (Section 4.4: exchanges per step 13 → 2, z-collectives 3M → 2M).
type Counters struct {
	Steps          int
	HaloExchanges  int64 // neighbor-exchange rounds
	CEvaluations   int64 // Ĉ evaluations (each is one z-collective round)
	FilterCalls    int64 // F̃ applications (collective only when p_x > 1)
	SmoothingCalls int64
}

// Add accumulates o into c (segments of one restarted or migrated run).
func (c *Counters) Add(o Counters) {
	c.Steps += o.Steps
	c.HaloExchanges += o.HaloExchanges
	c.CEvaluations += o.CEvaluations
	c.FilterCalls += o.FilterCalls
	c.SmoothingCalls += o.SmoothingCalls
}

// core holds the per-rank machinery shared by all integrators.
type core struct {
	cfg Config
	g   *grid.Grid
	tp  *topo.Topology
	w   *comm.Comm

	flt *filter.Filter
	smo *operators.Smoother
	sur *operators.Surface

	xi *state.State // current ξ; both integrators iterate on it in place (ψ is ξ)

	// eta1 is the one work state of the nonlinear iteration: η1, then the
	// midpoint (ψ + η2)/2 written over it (applyMid), and the smoothing's
	// target or snapshot between iterations.
	eta1 *state.State
	tnd  *operators.Tendency

	cNew  *operators.CRes
	cLast *operators.CRes
	advSc *operators.AdvScratch

	// Steady-state scratch: fixed exchange-payload arrays, the vertical-
	// summation work planes and the slab-decomposition buffer. Together these
	// make Step free of heap allocation after the first step.
	csSc    operators.CSumScratch
	exF3    [4]*field.F3
	exF2    [2]*field.F2
	slabBuf [6]field.Rect

	n Counters
}

func newCore(cfg Config, g *grid.Grid, tp *topo.Topology) *core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ShiftedPoleMirror && tp.Px != 1 {
		panic("dycore: ShiftedPoleMirror requires p_x = 1 (full longitude circles per rank)")
	}
	b := tp.Block
	c := &core{
		cfg: cfg, g: g, tp: tp, w: tp.World,
		flt:   filter.New(g, cfg.FilterCutoffDeg),
		smo:   operators.NewSmoother(g, cfg.Beta),
		sur:   operators.NewSurface(b),
		xi:    state.New(b),
		eta1:  state.New(b),
		tnd:   operators.NewTendency(b),
		cNew:  operators.NewCRes(b),
		cLast: operators.NewCRes(b),
		advSc: operators.NewAdvScratch(b),
	}
	for _, st := range []*state.State{c.xi, c.eta1} {
		st.ShiftedPoles = cfg.ShiftedPoleMirror
		// Allocation writes the whole storage: an odd mirror of its zeros is
		// −0, so the ghosts of halo cells no exchange has reached yet follow
		// their sources bitwise too.
		st.FillLocalBounds(b.WithHalo())
	}
	return c
}

// Xi returns the current state.
func (c *core) Xi() *state.State { return c.xi }

// Counters returns the operation counts.
func (c *core) Counters() Counters { return c.n }

// exchangeFields returns the message payload of one halo exchange: the state
// components plus the cached Ĉ fields (PW interfaces and D̄), which ride
// along like the diagnostic components of the original model's ξ. The slices
// alias fixed core arrays (reused per call — at most one exchange may be in
// flight, which holds by construction in both integrators).
func (c *core) exchangeFields(st *state.State) (f3s []*field.F3, f2s []*field.F2) {
	c.exF3[0], c.exF3[1], c.exF3[2], c.exF3[3] = st.U, st.V, st.Phi, c.cLast.PWI
	c.exF2[0], c.exF2[1] = st.Psa, c.cLast.DBar
	return c.exF3[:], c.exF2[:]
}

// localFill refreshes all locally computable boundary values of st and of
// the cached Ĉ fields, over the whole storage. It follows the bootstrap
// exchanges of SetState, whose initial state may carry ghosts of any
// currency, and every exchange under Config.NoOverlap (fillReceived).
func (c *core) localFill(st *state.State) {
	st.FillLocalBounds(st.B.WithHalo())
	c.fillCBounds(c.cLast)
}

// fillReceived refreshes, after ex's Finish, the ghosts sourced in what the
// exchange wrote into st: the slabs of the owned block grown by ex's depths
// (clamped to the domain in y and z) minus the owned block. Ghosts sourced in
// owned cells are current already — the write that last changed those cells
// refreshed them (applyUpdate, applyMid, or a step's entry refresh after a
// hook or resume) — and the other halo cells are not read before the next
// exchange writes them. The cached Ĉ rides along in every exchange and keeps
// its whole-storage fill. The quiesced path (Config.NoOverlap) refills the
// whole storage: it is the reference TestOverlapBitwiseAcrossLayouts holds
// the trimmed fills to.
func (c *core) fillReceived(ex *topo.Exchanger, st *state.State) {
	if c.cfg.NoOverlap {
		c.localFill(st)
		return
	}
	owned := c.tp.Block.Owned()
	d := ex.ExchangeDepths()
	grown := field.Rect{
		I0: owned.I0 - d.X, I1: owned.I1 + d.X,
		J0: max(owned.J0-d.YLo, 0), J1: min(owned.J1+d.YHi, c.g.Ny),
		K0: max(owned.K0-d.ZLo, 0), K1: min(owned.K1+d.ZHi, c.g.Nz),
	}
	for _, s := range c.slabs(grown, owned) {
		st.FillLocalBounds(s)
	}
	c.fillCBounds(c.cLast)
}

// fillCBounds refreshes the periodic-x halos and pole mirrors of a Ĉ result
// over the whole storage (vertical ghosts of PWI are never mirrored: σ̇
// interfaces stay within [0, Nz], and PWI's level Nz is the bottom interface
// itself). sumC uses it although it writes only its rect, and so does every
// exchange: later kernels read PWI's ghosts beyond the sum's rect, and level
// Nz is data, not a mirror ghost.
func (c *core) fillCBounds(cr *operators.CRes) {
	if c.tp.Block.OwnsFullX() && c.tp.Block.Hx > 0 {
		cr.PWI.FillXPeriodic()
		cr.DBar.FillXPeriodic()
	}
	if c.cfg.ShiftedPoleMirror {
		field.FillPolesYShifted(cr.PWI, field.Even, field.CenterY)
		field.FillPolesY2Shifted(cr.DBar, field.Even)
		return
	}
	field.FillPolesY(cr.PWI, field.Even, field.CenterY)
	field.FillPolesY2(cr.DBar, field.Even)
}

// evalC evaluates Ĉ at src over the tendency rect r: D(P) on r, then the
// z-collective summation into dst. The caller must have called
// c.updateSurface(src, r′) with r′ ⊇ r since the last change of src.Psa.
func (c *core) evalC(src *state.State, dst *operators.CRes, r field.Rect) {
	c.evalDivP(src, dst, r)
	c.sumC(dst, r)
}

// evalDivP computes the pointwise divergence term D(P) of Ĉ at src over r
// into dst.PWI, the result it feeds: sumC reads each layer there before it
// writes the interface above it (operators.CSumWith), and every cell written
// here is an interface sumC then writes. It is the communication-free half
// of evalC, split out so the overlap path can run it on the interior rect
// while halo messages fly and on the boundary slabs afterwards — D(P) is
// per-point pure, so any disjoint cover of r produces bitwise the monolithic
// result.
func (c *core) evalDivP(src *state.State, dst *operators.CRes, r field.Rect) {
	w := operators.DivP(c.g, src.U, src.V, c.sur, dst.PWI, r)
	c.w.Compute(float64(w) * costDivP)
}

// sumC completes Ĉ from the D(P) that evalDivP left in dst.PWI over r: the
// z-collective summation into dst. One call = one z-collective round, so the
// overlap split (which covers r with evalDivP pieces but sums once) keeps
// the algorithm's collective count identical to the monolithic path.
func (c *core) sumC(dst *operators.CRes, r field.Rect) {
	w2 := operators.CSumWith(c.g, c.tp.ColZ, c.w, dst.PWI, dst, r, r.K0, r.K1, &c.csSc)
	c.w.Compute(float64(w2) * costCSum)
	c.fillCBounds(dst)
	c.n.CEvaluations++
}

// updateSurface recomputes the 2-D surface diagnostics from src's p'_sa on
// the rows a kernel over r reads (operators.Surface.UpdateFor); r is the
// rect of the kernel that follows. The clock is charged for the owned
// footprint grown by the *requested* halo on every side, whatever r is:
// pricing the sweep at what it computes would move the simulated clock, and
// that belongs to a declared re-baseline, not to a wall-clock change.
func (c *core) updateSurface(src *state.State, r field.Rect) {
	c.sur.UpdateFor(src.Psa, r)
	b := c.tp.Block
	c.w.Compute(float64((b.I1-b.I0+2*b.Hx)*(b.J1-b.J0+2*b.Hy)) * costSurface)
}

// refreshSurface is updateSurface without the clock charge. The overlap path
// uses it after Finish: the charged pre-exchange update already priced the
// pointwise work, but rows it computed from stale halo p'_sa must be
// recomputed from the received values before any boundary-slab kernel reads
// them; r is the rect whose surface rows need it. Rows from owned p'_sa
// recompute to bitwise the same values, so the surface equals the monolithic
// path's.
func (c *core) refreshSurface(src *state.State, r field.Rect) {
	c.sur.UpdateFor(src.Psa, r)
}

// adaptTendency evaluates Â(src) + the Ĉ contributions from cres over r
// into c.tnd.
func (c *core) adaptTendency(src *state.State, cres *operators.CRes, r field.Rect) {
	w := operators.Adaptation3D(c.g, src, c.sur, cres, c.tnd, r)
	w += operators.AdaptationPsa(c.g, c.cfg.Adapt, src, cres, c.tnd, r)
	c.w.Compute(float64(w) * costAdapt)
}

// advectTendency evaluates L̃(src) with σ̇ from cres over r into c.tnd.
func (c *core) advectTendency(src *state.State, cres *operators.CRes, r field.Rect) {
	w := operators.Advection3D(c.g, src, c.sur, cres, c.tnd, r, c.advSc)
	operators.AdvectionPsa(c.tnd, r)
	c.w.Compute(float64(w) * costAdvect)
}

// filterTendency applies F̃ to the tendency over r: the serial per-latitude
// filter when this rank owns full circles (zero communication), otherwise
// the distributed transpose filter over the owned region.
func (c *core) filterTendency(r field.Rect) {
	c.n.FilterCalls++
	logn := math.Log2(float64(c.g.Nx))
	if c.tp.Block.OwnsFullX() {
		rows := 0
		rows += c.flt.Apply(c.tnd.DU, r)
		rows += c.flt.Apply(c.tnd.DV, r)
		rows += c.flt.Apply(c.tnd.DPhi, r)
		rows += c.flt.Apply2(c.tnd.DPsa, r)
		c.w.Compute(float64(rows) * float64(c.g.Nx) * logn * costFilterRow)
		return
	}
	// Distributed path: one batched transpose round-trip for all components
	// of the tendency (like a production X-Y implementation).
	rows := c.flt.ApplyDistBatch(c.tp, c.tnd.F3s(), c.tnd.F2s())
	c.w.Compute(float64(rows) * float64(c.g.Nx) * logn * costFilterRow)
}

// applyUpdate sets dst ← base + dt·tendency over rect r (the tendency's
// computed region), then refreshes the boundary cells of dst sourced in r.
// Everything else in dst is stale and never consumed: the next kernel reads
// r shrunk by its stencil radius, plus ghosts whose sources lie in r.
func (c *core) applyUpdate(dst, base *state.State, dt float64, r field.Rect) {
	field.Lin2Rect(dst.U, 1, base.U, dt, c.tnd.DU, r)
	field.Lin2Rect(dst.V, 1, base.V, dt, c.tnd.DV, r)
	field.Lin2Rect(dst.Phi, 1, base.Phi, dt, c.tnd.DPhi, r)
	field.Lin2Rect2(dst.Psa, 1, base.Psa, dt, c.tnd.DPsa, r)
	c.w.Compute(float64(4*r.Count()) * costLincomb)
	dst.FillLocalBounds(r)
}

// applyMid sets dst ← ½·base + ½·(base + dt·tendency) over rect r: the
// midpoint state (ψ + η2)/2 of a nonlinear iteration's third update, with η2
// formed per point and never stored (field.MidRect), then refreshes the
// boundary cells of dst sourced in r. η2's only consumer is that mean, and
// the tendency is complete before the sweep writes, so dst may be the state
// the tendency was evaluated at. It is charged what the η2 update was; the
// mean never was.
func (c *core) applyMid(dst, base *state.State, dt float64, r field.Rect) {
	field.MidRect(dst.U, base.U, dt, c.tnd.DU, r)
	field.MidRect(dst.V, base.V, dt, c.tnd.DV, r)
	field.MidRect(dst.Phi, base.Phi, dt, c.tnd.DPhi, r)
	field.MidRect2(dst.Psa, base.Psa, dt, c.tnd.DPsa, r)
	c.w.Compute(float64(4*r.Count()) * costLincomb)
	dst.FillLocalBounds(r)
}

// shrinkInternal shrinks r by (dy, dz) on every side that is not a global
// domain boundary (where mirror refills keep validity).
func (c *core) shrinkInternal(r field.Rect, dy, dz int) field.Rect {
	if r.J0 != 0 {
		r.J0 += dy
	}
	if r.J1 != c.g.Ny {
		r.J1 -= dy
	}
	if r.K0 != 0 {
		r.K0 += dz
	}
	if r.K1 != c.g.Nz {
		r.K1 -= dz
	}
	return r
}

// shrinkByDepths shrinks r by an exchanger's per-side depths on every side
// that is fed by communication: both x sides whenever the exchanger carries
// x traffic (longitude is periodic, so both sides are remote), and the y/z
// sides that are not global domain boundaries (those are mirror-filled
// locally and stay valid while messages fly). The result is the interior
// rect whose stencil reads cannot touch in-flight halo cells.
func (c *core) shrinkByDepths(r field.Rect, d topo.Depths) field.Rect {
	if d.X > 0 {
		r.I0 += d.X
		r.I1 -= d.X
	}
	if r.J0 != 0 {
		r.J0 += d.YLo
	}
	if r.J1 != c.g.Ny {
		r.J1 -= d.YHi
	}
	if r.K0 != 0 {
		r.K0 += d.ZLo
	}
	if r.K1 != c.g.Nz {
		r.K1 -= d.ZHi
	}
	return r
}

// slabs returns outer \ inner as a list of disjoint rects (inner must be
// contained in outer; empty slabs are dropped). Used by the overlap path:
// the inner rect is computed while messages fly, the slabs afterwards.
// The result aliases c.slabBuf (at most 6 rects), valid until the next call.
func (c *core) slabs(outer, inner field.Rect) []field.Rect {
	if inner.Empty() {
		c.slabBuf[0] = outer
		return c.slabBuf[:1]
	}
	cand := [6]field.Rect{
		// k-slabs below and above the inner box.
		{I0: outer.I0, I1: outer.I1, J0: outer.J0, J1: outer.J1, K0: outer.K0, K1: inner.K0},
		{I0: outer.I0, I1: outer.I1, J0: outer.J0, J1: outer.J1, K0: inner.K1, K1: outer.K1},
		// j-slabs within the inner k range.
		{I0: outer.I0, I1: outer.I1, J0: outer.J0, J1: inner.J0, K0: inner.K0, K1: inner.K1},
		{I0: outer.I0, I1: outer.I1, J0: inner.J1, J1: outer.J1, K0: inner.K0, K1: inner.K1},
		// i-slabs within the inner j, k ranges.
		{I0: outer.I0, I1: inner.I0, J0: inner.J0, J1: inner.J1, K0: inner.K0, K1: inner.K1},
		{I0: inner.I1, I1: outer.I1, J0: inner.J0, J1: inner.J1, K0: inner.K0, K1: inner.K1},
	}
	n := 0
	for _, r := range cand {
		if !r.Empty() {
			c.slabBuf[n] = r
			n++
		}
	}
	return c.slabBuf[:n]
}

// kernel names the per-point-pure sweep of an overlapped update. A switch
// rather than a func value keeps every call static: no closure is built on
// the step path.
type kernel int

const (
	kernDivP   kernel = iota // D(P) of Ĉ into c.cNew, which sumC completes
	kernAdvect               // L̃ with σ̇ from the most recent Ĉ into c.tnd
	kernSmooth               // dst ← S̃(src)
)

// sweep runs kernel k reading src over r and charges its work. Only the
// smoothing writes a state, dst; D(P) and L̃ write core scratch and take nil.
// D(P) goes to cNew, not cLast: the exchange in flight ships cLast.
func (c *core) sweep(k kernel, src, dst *state.State, r field.Rect) {
	switch k {
	case kernDivP:
		c.evalDivP(src, c.cNew, r)
	case kernAdvect:
		c.advectTendency(src, c.cLast, r)
	case kernSmooth:
		w := c.smo.SmoothFull(src, dst, r)
		c.w.Compute(float64(w) * costSmooth)
	}
}

// overlapped runs kernel k over the owned block with the halo exchange of src
// on ex in flight — the paper's inner/outer partition (§4.3): Begin → kernel
// on the interior rect (whose stencil reads stay clear of in-flight halo
// cells) → Finish → kernel on the boundary slabs. Every kernel is per-point
// pure, so the split cover produces bitwise the monolithic sweep. The interior
// reads src's local ghosts sourced in owned cells, which the last write of src
// refreshed (the integrators' Step refreshes ξ's after a hook or resume);
// Finish is followed by fillReceived. D(P) and L̃ read the surface diagnostics
// of src: those are charged before Finish, and the rows whose inputs include
// received p'_sa are recomputed, uncharged, after it. Under Config.NoOverlap
// the exchange quiesces first and the slab cover degenerates to one owned-rect
// call, reproducing the original operation sequence exactly.
func (c *core) overlapped(ex *topo.Exchanger, src, dst *state.State, k kernel) {
	owned := c.tp.Block.Owned()
	surface := k != kernSmooth
	f3, f2 := c.exchangeFields(src)
	pend := ex.Begin(f3, f2)
	c.n.HaloExchanges++
	var inner field.Rect
	if !c.cfg.NoOverlap {
		inner = c.shrinkByDepths(owned, ex.ExchangeDepths())
		if surface {
			// Interior reads stay within the owned region, where the
			// pre-exchange p'_sa is current.
			c.updateSurface(src, inner)
		}
		if !inner.Empty() {
			c.sweep(k, src, dst, inner)
		}
	}
	pend.Finish()
	c.fillReceived(ex, src)
	if surface {
		switch {
		case c.cfg.NoOverlap:
			c.updateSurface(src, owned)
		case inner.Empty() || c.tp.Px > 1:
			// Nothing was swept before Finish, or received x-halo p'_sa
			// feeds every row.
			c.refreshSurface(src, owned)
		default:
			// Only the owned rows outside inner's J range read received
			// p'_sa (an edge is empty on a side that is not comm-fed).
			lo, hi := owned, owned
			lo.J1, hi.J0 = inner.J0, inner.J1
			c.refreshSurface(src, lo)
			c.refreshSurface(src, hi)
		}
	}
	for _, s := range c.slabs(owned, inner) {
		c.sweep(k, src, dst, s)
	}
}
