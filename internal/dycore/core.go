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
	cv  cover // every depth, rect and storage block of the rank's step

	flt *filter.Filter
	smo *operators.Smoother
	sur *operators.Surface

	xi *state.State // current ξ; both integrators iterate on it in place (ψ is ξ)

	// eta1 is the one work state of the nonlinear iteration: η1, then the
	// midpoint (ψ + η2)/2 written over it (Baseline.apply, or stream
	// level by level), and the smoothing's target or snapshot between
	// iterations.
	eta1 *state.State
	// tnd is the baseline's whole tendency, on the owned block; lvl is
	// CommAvoid's two levels of tendency, through which it streams each
	// update one level at a time (stream). Each integrator leaves the other
	// nil.
	tnd *operators.Tendency
	lvl *operators.LevelTendency

	// cache is the one Ĉ of the rank: the one an update's tendency reads, the
	// lagged Ĉ the comm-avoiding η1 reuses and the one every exchange ships.
	// An evaluation overwrites it only once nothing reads the old one.
	cache *operators.CRes
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

// newCore builds the per-rank machinery on the storage blocks of the rank's
// cover (planCover, DESIGN §8 "The cover"), each holding only the cells
// written or read there; the integrator adds its tendency. All keep
// tp.Block's owned box and Hx, so the kernels' x offsets agree across them.
func newCore(cfg Config, g *grid.Grid, tp *topo.Topology, cv cover) *core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.ShiftedPoleMirror && tp.Px != 1 {
		panic("dycore: ShiftedPoleMirror requires p_x = 1 (full longitude circles per rank)")
	}
	c := &core{
		cfg: cfg, g: g, tp: tp, w: tp.World, cv: cv,
		flt:   filter.New(g, cfg.FilterCutoffDeg),
		smo:   operators.NewSmoother(g, cfg.Beta),
		sur:   operators.NewSurface(tp.Block),
		xi:    state.New(cv.xi),
		eta1:  state.New(cv.work),
		cache: operators.NewCRes(cv.xi),
		advSc: operators.NewAdvScratch(cv.planes),
	}
	for _, st := range []*state.State{c.xi, c.eta1} {
		st.ShiftedPoles = cfg.ShiftedPoleMirror
		// Allocation writes the whole storage: an odd mirror of its zeros is
		// −0, so the ghosts of halo cells no exchange has reached yet follow
		// their sources bitwise too.
		st.FillLocalBounds(st.B.WithHalo())
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
	c.exF3[0], c.exF3[1], c.exF3[2], c.exF3[3] = st.U, st.V, st.Phi, c.cache.PWI
	c.exF2[0], c.exF2[1] = st.Psa, c.cache.DBar
	return c.exF3[:], c.exF2[:]
}

// bootstrap exchanges st's halos on ex, blocking, between two refreshes of
// every ghost: the start-up exchange of SetState, whose state may carry
// ghosts of any currency.
func (c *core) bootstrap(ex *topo.Exchanger, st *state.State) {
	c.localFill(st)
	f3, f2 := c.exchangeFields(st)
	ex.Exchange(f3, f2)
	c.n.HaloExchanges++
	c.localFill(st)
}

// localFill refreshes all locally computable boundary values of st and of
// the cached Ĉ fields, over the whole storage. It follows the bootstrap
// exchanges of SetState, whose initial state may carry ghosts of any
// currency, and every exchange under Config.NoOverlap (fillReceived).
func (c *core) localFill(st *state.State) {
	st.FillLocalBounds(st.B.WithHalo())
	c.fillC()
}

// fillReceived refreshes, after ex's Finish, the ghosts sourced in what the
// exchange wrote into st: the slabs of its halo (topo.Exchanger.Halo) minus
// the owned block. Ghosts sourced in owned cells are current already — the
// write that last changed those cells refreshed them (Baseline.apply,
// stream, or a step's entry refresh after a hook or resume) — and the other
// halo cells are not read before the next exchange writes them. The cached Ĉ rides along in every exchange and keeps
// its whole-storage fill. The quiesced path (Config.NoOverlap) refills the
// whole storage: it is the reference TestOverlapBitwiseAcrossLayouts holds
// the trimmed fills to.
func (c *core) fillReceived(ex *topo.Exchanger, st *state.State) {
	if c.cfg.NoOverlap {
		c.localFill(st)
		return
	}
	for _, s := range c.slabs(ex.Halo(), c.tp.Block.Owned()) {
		st.FillLocalBounds(s)
	}
	c.fillC()
}

// fillC refreshes the periodic-x halos and pole mirrors of the Ĉ cache over
// the whole storage (vertical ghosts of PWI are never mirrored: σ̇ interfaces
// stay within [0, Nz], and PWI's level Nz is the bottom interface itself).
// sumC uses it although it writes only its rect, and so does every exchange:
// later kernels read PWI's ghosts beyond the sum's rect, and level Nz is
// data, not a mirror ghost.
func (c *core) fillC() {
	c.fillEven(c.cache.PWI)
	c.fillEven(&c.cache.DBar.F3)
}

// fillEven refreshes f's periodic x halos, when its block owns full
// longitude circles, and then its even CenterY pole mirror rows — shifted
// under Config.ShiftedPoleMirror — over the whole storage, leaving its
// vertical ghosts alone.
func (c *core) fillEven(f *field.F3) {
	if f.B.OwnsFullX() {
		f.FillXPeriodic()
	}
	if c.cfg.ShiftedPoleMirror {
		field.FillPolesYShifted(f, field.Even, field.CenterY)
		return
	}
	field.FillPolesY(f, field.Even, field.CenterY)
}

// evalC evaluates Ĉ at src over the tendency rect r: D(P) on r, then the
// z-collective summation into the cache, which it overwrites. The caller must
// have called c.updateSurface(src, r′) with r′ ⊇ r since the last change of
// src.Psa.
func (c *core) evalC(src *state.State, r field.Rect) {
	c.evalDivP(src, r)
	c.sumC(r)
}

// evalDivP computes the pointwise divergence term D(P) of Ĉ at src over r
// into the cache's PWI, the result it feeds: sumC reads each layer there
// before it writes the interface above it (operators.CSumWith), and every
// cell written here is an interface sumC then writes. It is the
// communication-free half of evalC, split out so the overlap path can run it
// on the interior rect while halo messages fly and on the boundary slabs
// afterwards — D(P) is per-point pure, so any disjoint cover of r produces
// bitwise the monolithic result.
func (c *core) evalDivP(src *state.State, r field.Rect) {
	w := operators.DivP(c.g, src.U, src.V, c.sur, c.cache.PWI, r)
	c.w.Compute(float64(w) * costDivP)
}

// sumC completes Ĉ from the D(P) that evalDivP left in the cache's PWI over
// r: the z-collective summation into the cache. One call = one z-collective
// round, so the overlap split (which covers r with evalDivP pieces but sums
// once) keeps the algorithm's collective count identical to the monolithic
// path.
func (c *core) sumC(r field.Rect) {
	w2 := operators.CSumWith(c.g, c.tp.ColZ, c.w, c.cache.PWI, c.cache, r, r.K0, r.K1, &c.csSc)
	c.w.Compute(float64(w2) * costCSum)
	c.fillC()
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

// adaptTendency evaluates Â(src) + the Ĉ contributions from the cache over r
// into c.tnd.
func (c *core) adaptTendency(src *state.State, r field.Rect) {
	w := operators.Adaptation(c.g, c.cfg.Adapt, src, c.sur, c.cache, c.tnd, r)
	c.w.Compute(float64(w) * costAdapt)
}

// advectTendency evaluates L̃(src) with σ̇ from the cache over r into c.tnd.
func (c *core) advectTendency(src *state.State, r field.Rect) {
	w := operators.AdvectionScratch(c.g, src, c.sur, c.cache, c.tnd, r, c.advSc)
	c.w.Compute(float64(w) * costAdvect)
}

// filterTendency applies F̃ to the tendency over r: the serial per-latitude
// filter when this rank owns full circles (zero communication), otherwise
// the distributed transpose filter over the owned region.
func (c *core) filterTendency(r field.Rect) {
	c.n.FilterCalls++
	if c.tp.Block.OwnsFullX() {
		c.chargeFilter(c.flt.Apply(c.tnd.DU, r) + c.flt.Apply(c.tnd.DV, r) +
			c.flt.Apply(c.tnd.DPhi, r) + c.flt.Apply(&c.tnd.DPsa.F3, r.Flat2D()))
		return
	}
	// Distributed path: one batched transpose round-trip for all components
	// of the tendency (like a production X-Y implementation).
	c.chargeFilter(c.flt.ApplyDistBatch(c.tp, c.tnd.Fields()))
}

// chargeFilter charges F̃ for transforming rows latitude rows.
func (c *core) chargeFilter(rows int) {
	c.w.Compute(float64(rows) * float64(c.g.Nx) * math.Log2(float64(c.g.Nx)) * costFilterRow)
}

// chargeLincomb charges the writes of an update over r: four components of
// r's points, whichever piece or level wrote them.
func (c *core) chargeLincomb(r field.Rect) {
	c.w.Compute(float64(4*r.Count()) * costLincomb)
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

// kernel names a per-point-pure sweep of an overlapped update. A switch
// rather than a func value keeps every call static: no closure is built on
// the step path.
type kernel int

const (
	kernDivP   kernel = iota // D(P) of Ĉ into the cache's PWI, which sumC completes
	kernAdvect               // L̃ with σ̇ from the cache: into tnd, or streamed into dst
	kernSmooth               // dst ← S̃(src)
	kernAdapt                // Â + the Ĉ contributions from the cache, streamed into dst
)

// streamed reports whether kernel k writes dst a level at a time (stream):
// Â always, L̃ under CommAvoid, which keeps no whole tendency.
func (c *core) streamed(k kernel) bool {
	return k == kernAdapt || (k == kernAdvect && c.lvl != nil)
}

// interiorPass reports whether an overlapped update of kernel k sweeps an
// interior while messages fly: always but under Config.NoOverlap, and never
// for Â under Config.ExactC, whose fresh Ĉ needs the received halo first.
func (c *core) interiorPass(k kernel) bool {
	return !c.cfg.NoOverlap && !(k == kernAdapt && c.cfg.ExactC)
}

// sweep runs kernel k reading src over r and charges its work. D(P) and the
// baseline's L̃ write core scratch and take nil dst. A streamed kernel forms
// dp'_sa on r's rows only with psa. D(P) may write the cache the exchange in
// flight lends: before Finish it writes only the inner rect, which no peer
// reads, and Finish writes only halo cells, which D(P) over the owned block
// never writes.
func (c *core) sweep(k kernel, src, dst *state.State, r field.Rect, psa bool) {
	switch {
	case k == kernDivP:
		c.evalDivP(src, r)
	case k == kernSmooth:
		w := c.smo.SmoothFull(src, dst, r)
		c.w.Compute(float64(w) * costSmooth)
	case c.streamed(k):
		c.stream(k, src, dst, false, r, psa)
	default:
		c.advectTendency(src, r)
	}
}

// band is an exchange begun and finished right after the one an overlapped
// update overlaps: CommAvoid's fused deep exchange ships S̃2's original edge
// rows on it.
type band struct {
	ex *topo.Exchanger
	f3 [1]*field.F3
	f2 [1]*field.F2
}

// overlapped runs kernel k over outer with the halo exchange of src on ex in
// flight — the paper's inner/outer partition (§4.3): Begin → kernel on the
// interior in, the owned block shrunk on its comm-fed sides so that its
// stencil reads stay clear of in-flight halo cells (shrink) → Finish → kernel on the
// slabs of outer around it. Every kernel is per-point pure, so the split
// cover produces bitwise the monolithic sweep. Outer is the owned block for
// the baseline and the smoothings, a comm-avoiding update's rect (reaching
// into the received deep halo) for CommAvoid, whose fused deep exchange runs
// S̃2 between the two halves.
func (c *core) overlapped(ex *topo.Exchanger, src, dst *state.State, k kernel, outer, in field.Rect) {
	c.overlapTail(src, dst, k, outer, c.overlapHead(ex, nil, src, dst, k, in))
}

// overlapHead is overlapped up to Finish and the fill of what was received,
// with b's exchange beside ex's when b is non-nil. It returns the interior
// swept, empty when none was. The interior reads src's local ghosts sourced
// in owned cells, which the last write of src refreshed (the integrators'
// Step refreshes ξ's after a hook or resume).
func (c *core) overlapHead(ex *topo.Exchanger, b *band, src, dst *state.State, k kernel, in field.Rect) field.Rect {
	f3, f2 := c.exchangeFields(src)
	pend := ex.Begin(f3, f2)
	var bpend *topo.Pending
	if b != nil {
		bpend = b.ex.Begin(b.f3[:], b.f2[:])
	}
	c.n.HaloExchanges++
	var inner field.Rect
	if c.interiorPass(k) {
		inner = in
		if k != kernSmooth {
			// Interior reads stay within the owned region, where the
			// pre-exchange p'_sa is current.
			c.updateSurface(src, inner)
		}
		if !inner.Empty() {
			c.sweep(k, src, dst, inner, true)
		}
	}
	pend.Finish()
	if bpend != nil {
		bpend.Finish()
	}
	c.fillReceived(ex, src)
	return inner
}

// overlapTail is overlapped after Finish: the surface diagnostics, Ĉ(src)
// where Â needs it fresh (freshC), the slabs and a streamed update's lincomb.
// The surface sweep is charged once, before Finish when there is an interior
// pass and after it otherwise; after an interior pass only outer's rows
// outside the interior's J range read received (or S̃2-smoothed) p'_sa, and
// they are recomputed uncharged. A streamed kernel forms dp'_sa once per row:
// on the interior's rows in the interior pass, on the rest in the slabs
// beside the interior (those span its levels; the slabs above and below it
// span its rows again).
func (c *core) overlapTail(src, dst *state.State, k kernel, outer, inner field.Rect) {
	if k != kernSmooth {
		switch {
		case !c.interiorPass(k):
			c.updateSurface(src, outer)
		case inner.Empty() || c.tp.Px > 1:
			// Nothing was swept before Finish, or received x-halo p'_sa
			// feeds every row.
			c.sur.UpdateFor(src.Psa, outer)
		default:
			lo, hi := outer, outer
			lo.J1, hi.J0 = inner.J0, inner.J1
			c.sur.UpdateFor(src.Psa, lo)
			c.sur.UpdateFor(src.Psa, hi)
		}
	}
	if c.freshC(k, src) {
		c.evalC(src, outer)
	}
	for _, s := range c.slabs(outer, inner) {
		c.sweep(k, src, dst, s, inner.Empty() || s.K0 == inner.K0 && s.K1 == inner.K1)
	}
	if c.streamed(k) {
		c.chargeLincomb(outer)
	}
}

// freshC reports whether kernel k at src needs a fresh Ĉ(src) first: Â at
// any state but ψ = ξ, and at ψ too under Config.ExactC. Â at ψ is an η1,
// which otherwise reuses the lagged Ĉ of the approximate nonlinear
// iteration (Section 4.2.2).
func (c *core) freshC(k kernel, src *state.State) bool {
	return k == kernAdapt && (src != c.xi || c.cfg.ExactC)
}

// update runs one whole, unoverlapped update of kern over r: the surface
// diagnostics of src, Ĉ(src) where Â needs it fresh, the update streamed into
// dst (stream) and its lincomb charge.
func (c *core) update(kern kernel, src, dst *state.State, mid bool, r field.Rect) {
	c.updateSurface(src, r)
	if c.freshC(kern, src) {
		c.evalC(src, r)
	}
	c.stream(kern, src, dst, mid, r, true)
	c.chargeLincomb(r)
}

// stream runs one update, or one piece of an overlapped one, over r a level
// at a time (DESIGN §8 "One level of tendency"). At each level k it forms
// the tendency plane of kern at src — kernAdapt: Â + Ĉ with Δt1, kernAdvect:
// L̃ with Δt2 — filters its polar rows and writes dst at level k from ψ = ξ:
// dst ← ψ + Δt·F̃(T), or with mid the midpoint ½ψ + ½(ψ + Δt·F̃(T))
// (field.MidRect); then it refreshes the ghosts sourced there. With psa,
// dp'_sa, one plane, goes first: the 3-D kernels read the surface
// diagnostics computed from it beforehand, never p'_sa itself.
//
// dst may be src (the midpoint overwrites the state its tendency is
// evaluated at): level k is written only once the tendency of level k+1 is
// formed, and the tendency of a level reads src at that level and its
// neighbours only (Â: k and k+1, L̃: k−1 … k+1), so none reads a level
// already written. Two levels of tendency are therefore alive at a time.
//
// The simulated clock sees one whole-rect evaluation: the kernel's and the
// filter's work, summed over the levels, are charged once each, in that
// order; the caller charges the lincomb (chargeLincomb), once per update
// however many pieces stream it.
func (c *core) stream(kern kernel, src, dst *state.State, mid bool, r field.Rect, psa bool) {
	c.n.FilterCalls++
	dt, cost := c.cfg.Dt1, costAdapt
	if kern == kernAdvect {
		dt, cost = c.cfg.Dt2, costAdvect
	}
	w, rows := 0, 0
	if psa {
		t := c.lvl.Level(r.K0)
		if kern == kernAdapt {
			w = operators.AdaptationPsa(c.g, c.cfg.Adapt, src, c.cache, t, r)
		} else {
			operators.AdvectionPsa(t, r)
		}
		rows = c.flt.Apply(&t.DPsa.F3, r.Flat2D())
		lincomb(&dst.Psa.F3, &c.xi.Psa.F3, dt, &t.DPsa.F3, r.Flat2D(), mid)
		dst.FillPsaBounds(r)
	}
	for k := r.K0; k < r.K1; k++ {
		t := c.lvl.Level(k)
		if kern == kernAdapt {
			w += operators.AdaptationLevel(c.g, src, c.sur, c.cache, t, r, k)
		} else {
			w += operators.AdvectionLevel(c.g, src, c.sur, c.cache, t, r, k, c.advSc)
		}
		rk := atLevel(r, k)
		rows += c.flt.Apply(t.DU, rk) + c.flt.Apply(t.DV, rk) + c.flt.Apply(t.DPhi, rk)
		if k > r.K0 {
			c.writeLevel(dst, dt, mid, r, k-1)
		}
	}
	c.writeLevel(dst, dt, mid, r, r.K1-1)
	c.w.Compute(float64(w) * cost)
	c.chargeFilter(rows)
}

// writeLevel writes dst's U, V and Φ at level k of r from ψ = ξ and that
// level's streamed tendency, then refreshes the ghosts sourced there.
func (c *core) writeLevel(dst *state.State, dt float64, mid bool, r field.Rect, k int) {
	t, rk := c.lvl.Level(k), atLevel(r, k)
	lincomb(dst.U, c.xi.U, dt, t.DU, rk, mid)
	lincomb(dst.V, c.xi.V, dt, t.DV, rk, mid)
	lincomb(dst.Phi, c.xi.Phi, dt, t.DPhi, rk, mid)
	dst.Fill3DBounds(rk)
}

// lincomb sets dst ← psi + dt·t over r, or with mid the midpoint
// ½·psi + ½·(psi + dt·t).
func lincomb(dst, psi *field.F3, dt float64, t *field.F3, r field.Rect, mid bool) {
	if mid {
		field.MidRect(dst, psi, dt, t, r)
		return
	}
	field.Lin2Rect(dst, 1, psi, dt, t, r)
}

// atLevel returns level k of r.
func atLevel(r field.Rect, k int) field.Rect {
	r.K0, r.K1 = k, k+1
	return r
}
