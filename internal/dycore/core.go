package dycore

import (
	"math"
	"sync"

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

	xi *state.State // current ξ

	// work states of the nonlinear iteration
	psi, eta1, eta2, mid *state.State
	tnd                  *operators.Tendency

	divp  *field.F3
	cNew  *operators.CRes
	cLast *operators.CRes
	advSc *operators.AdvScratch

	// Steady-state scratch: fixed exchange-payload arrays, the vertical-
	// summation work planes, the slab-decomposition buffer and (for Workers
	// > 1) per-worker advection scratch and result slots. Together these
	// make Step free of heap allocation after the first step.
	csSc    operators.CSumScratch
	exF3    [4]*field.F3
	exF2    [2]*field.F2
	slabBuf [6]field.Rect
	advScW  []*operators.AdvScratch
	parRes  []int

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
		psi:   state.New(b),
		eta1:  state.New(b),
		eta2:  state.New(b),
		mid:   state.New(b),
		tnd:   operators.NewTendency(b),
		divp:  field.NewF3(b),
		cNew:  operators.NewCRes(b),
		cLast: operators.NewCRes(b),
		advSc: operators.NewAdvScratch(b),
	}
	for _, st := range []*state.State{c.xi, c.psi, c.eta1, c.eta2, c.mid} {
		st.ShiftedPoles = cfg.ShiftedPoleMirror
	}
	if nw := cfg.Workers; nw > 1 {
		c.advScW = make([]*operators.AdvScratch, nw)
		c.advScW[0] = c.advSc
		for i := 1; i < nw; i++ {
			c.advScW[i] = operators.NewAdvScratch(b)
		}
		c.parRes = make([]int, nw)
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

// parKSum splits r into contiguous k chunks across cfg.Workers goroutines,
// runs fn on each and returns the summed work counts. It must only be
// reached with Workers > 1 (call sites keep a closure-free serial branch so
// that the default configuration performs no heap allocation).
//
//cadyvet:assumeclean goroutine fan-out runs only when Workers > 1; the single-worker steady state pinned by the alloc benchmark never reaches it
func (c *core) parKSum(r field.Rect, fn func(sub field.Rect, wid int) int) int {
	nw := c.cfg.Workers
	nk := r.K1 - r.K0
	if nw > nk {
		nw = nk
	}
	if nw <= 1 {
		return fn(r, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		sub := r
		sub.K0 = r.K0 + w*nk/nw
		sub.K1 = r.K0 + (w+1)*nk/nw
		wg.Add(1)
		go func(sub field.Rect, w int) {
			defer wg.Done()
			c.parRes[w] = fn(sub, w)
		}(sub, w)
	}
	wg.Wait()
	total := 0
	for w := 0; w < nw; w++ {
		total += c.parRes[w]
	}
	return total
}

// localFill refreshes all locally computable boundary values of st and of
// the cached Ĉ fields.
func (c *core) localFill(st *state.State) {
	st.FillLocalBounds()
	c.fillCBounds(c.cLast)
}

// fillCBounds refreshes the periodic-x halos of a Ĉ result (pole/vertical
// ghosts of PWI are never read: σ̇ interfaces stay within [0, Nz], and the y
// mirror of PWI follows the even mirror of its inputs).
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
// c.sur.Update(src.Psa) since the last change of src.Psa.
func (c *core) evalC(src *state.State, dst *operators.CRes, r field.Rect) {
	c.evalDivP(src, r)
	c.sumC(dst, r)
}

// evalDivP computes the pointwise divergence term D(P) of Ĉ at src over r
// into c.divp. It is the communication-free half of evalC, split out so the
// overlap path can run it on the interior rect while halo messages fly and
// on the boundary slabs afterwards — D(P) is per-point pure, so any disjoint
// cover of r produces bitwise the monolithic result.
func (c *core) evalDivP(src *state.State, r field.Rect) {
	var w1 int
	if c.cfg.Workers <= 1 {
		w1 = operators.DivP(c.g, src.U, src.V, c.sur, c.divp, r)
	} else {
		//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch above is closure-free)
		w1 = c.parKSum(r, func(sub field.Rect, _ int) int {
			return operators.DivP(c.g, src.U, src.V, c.sur, c.divp, sub)
		})
	}
	c.w.Compute(float64(w1) * costDivP)
}

// sumC completes Ĉ from the precomputed c.divp over r: the z-collective
// summation into dst. One call = one z-collective round, so the overlap
// split (which covers r with evalDivP pieces but sums once) keeps the
// algorithm's collective count identical to the monolithic path.
func (c *core) sumC(dst *operators.CRes, r field.Rect) {
	w2 := operators.CSumWith(c.g, c.tp.ColZ, c.w, c.divp, dst, r, r.K0, r.K1, &c.csSc)
	c.w.Compute(float64(w2) * costCSum)
	c.fillCBounds(dst)
	c.n.CEvaluations++
}

// updateSurface recomputes the 2-D surface diagnostics from src's p'_sa.
// The clock is charged for the owned footprint grown by the *requested* halo
// on every side, which is what Update swept while storage was symmetric; the
// sweep itself now stops where storage is cut at a pole (field.Block.WithHalo).
// Pricing ghost work at what is actually computed moves the simulated clock
// and belongs to the re-baseline of ROADMAP item 2b, not to a storage change.
func (c *core) updateSurface(src *state.State) {
	c.sur.Update(src.Psa)
	b := c.tp.Block
	c.w.Compute(float64((b.I1-b.I0+2*b.Hx)*(b.J1-b.J0+2*b.Hy)) * costSurface)
}

// refreshSurface is updateSurface without the clock charge. The overlap path
// uses it after Finish: the charged pre-exchange update already priced the
// pointwise work, but the halo cells it computed from stale p'_sa must be
// recomputed from the received values before any boundary-slab kernel reads
// them. The owned cells recompute to bitwise the same values, so the final
// surface equals the monolithic path's.
func (c *core) refreshSurface(src *state.State) {
	c.sur.Update(src.Psa)
}

// adaptTendency evaluates Â(src) + the Ĉ contributions from cres over r
// into c.tnd.
func (c *core) adaptTendency(src *state.State, cres *operators.CRes, r field.Rect) {
	var w int
	if c.cfg.Workers <= 1 {
		w = operators.Adaptation3D(c.g, src, c.sur, cres, c.tnd, r)
	} else {
		//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch above is closure-free)
		w = c.parKSum(r, func(sub field.Rect, _ int) int {
			return operators.Adaptation3D(c.g, src, c.sur, cres, c.tnd, sub)
		})
	}
	// The 2-D surface-pressure component runs once, outside the k tiling.
	w += operators.AdaptationPsa(c.g, c.cfg.Adapt, src, cres, c.tnd, r)
	c.w.Compute(float64(w) * costAdapt)
}

// advectTendency evaluates L̃(src) with σ̇ from cres over r into c.tnd.
func (c *core) advectTendency(src *state.State, cres *operators.CRes, r field.Rect) {
	var w int
	if c.cfg.Workers <= 1 {
		w = operators.Advection3D(c.g, src, c.sur, cres, c.tnd, r, c.advSc)
	} else {
		// Each worker brings its own scratch: adjacent k tiles both write
		// their shared σ̇ boundary interface (see operators.Advection3D).
		//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch above is closure-free)
		w = c.parKSum(r, func(sub field.Rect, wid int) int {
			return operators.Advection3D(c.g, src, c.sur, cres, c.tnd, sub, c.advScW[wid])
		})
	}
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
// computed region — values outside it are stale-but-finite and are never
// consumed), then refreshes dst's local boundary cells.
func (c *core) applyUpdate(dst, base *state.State, dt float64, r field.Rect) {
	field.Lin2Rect(dst.U, 1, base.U, dt, c.tnd.DU, r)
	field.Lin2Rect(dst.V, 1, base.V, dt, c.tnd.DV, r)
	field.Lin2Rect(dst.Phi, 1, base.Phi, dt, c.tnd.DPhi, r)
	field.Lin2Rect2(dst.Psa, 1, base.Psa, dt, c.tnd.DPsa, r)
	c.w.Compute(float64(4*r.Count()) * costLincomb)
	dst.FillLocalBounds()
}

// expandInternal grows the owned rect by (dy, dz) into the halo, clamped to
// the global domain (halo cells beyond the poles or the vertical boundaries
// are mirror-filled, not part of compute regions).
func (c *core) expandInternal(dy, dz int) field.Rect {
	b := c.tp.Block
	r := b.Owned()
	r.J0 -= dy
	r.J1 += dy
	r.K0 -= dz
	r.K1 += dz
	if r.J0 < 0 {
		r.J0 = 0
	}
	if r.J1 > c.g.Ny {
		r.J1 = c.g.Ny
	}
	if r.K0 < 0 {
		r.K0 = 0
	}
	if r.K1 > c.g.Nz {
		r.K1 = c.g.Nz
	}
	return r
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
	out := c.slabBuf[:0]
	if inner.Empty() {
		//cadyvet:allow appends into the fixed-capacity 6-slot slabBuf; at most 6 candidates exist, so the backing array never grows
		return append(out, outer)
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
	for _, r := range cand {
		if !r.Empty() {
			//cadyvet:allow appends into the fixed-capacity 6-slot slabBuf; at most 6 candidates exist, so the backing array never grows
			out = append(out, r)
		}
	}
	return out
}
