package dycore

import (
	"fmt"

	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
	"cadycore/internal/stencil"
	"cadycore/internal/topo"
)

// CommAvoid runs the communication-avoiding Algorithm 2 under the Y-Z
// decomposition:
//
//   - deep halo areas sized for all 3M adaptation stencil updates, so each
//     step performs exactly two neighbor-exchange rounds (one for the
//     adaptation + fused smoothing, one for the advection) instead of the
//     baseline's 3M + 4 (Section 4.3.1);
//   - inner/outer partition computing to overlap the exchanges with the
//     first update of each phase;
//   - the approximate nonlinear iteration: the η1 update of every iteration
//     reuses the previous iteration's last Ĉ evaluation, cutting the
//     z-collectives from 3M to 2M per step (Section 4.2.2);
//   - operator splitting of the smoothing into former (S̃1, before the
//     exchange) and latter (S̃2, after it) stages, fusing the smoothing
//     communication into the adaptation exchange (Section 4.3.2);
//   - p_x = 1, so Fourier filtering involves no communication at all
//     (Section 4.2.1).
//
// The Config ablation switches disable each ingredient individually.
type CommAvoid struct {
	*core
	deepEx  *topo.Exchanger // adaptation exchange: (0, 3·S+2, 3·S), S = StageDepth
	bandEx  *topo.Exchanger // original edge rows for S̃2 (the "yellow bar")
	advEx   *topo.Exchanger // advection exchange: (0, 3, 3)
	smEx    *topo.Exchanger // plain smoothing exchange (ablation/Finalize)
	stageEx *topo.Exchanger // mid-phase refresh exchange (staged mode only)
	origPhi *field.F3       // pre-smoothing Φ for the latter smoothing
	origPsa *field.F2
	bandF3  [1]*field.F3 // prebuilt payload slices for the band exchange
	bandF2  [1]*field.F2

	// lvl holds two levels of the tendency every update streams (stream).
	lvl *operators.LevelTendency

	depthY, depthZ int // valid halo depth after the adaptation exchange (= 3·S)
	stage          int // iterations per exchange round (0 = unstaged: all M)

	// availYFn is availY bound once at construction: passing a pre-bound
	// func value into the smoothers keeps the per-step path free of
	// method-value closures (a fresh `ca.availY` expression per call relies
	// on escape analysis to stay off the heap; a field read never allocates).
	availYFn operators.AvailFunc
}

// CommAvoidHalo returns the halo widths Algorithm 2 requires for M
// nonlinear iterations: 3M stencil layers plus 2 smoothing layers in y, 3M
// layers in z, and the x radius of the widest table (filled by local
// periodic copies).
func CommAvoidHalo(m int) (hx, hy, hz int) {
	r := stencil.Union(stencil.RadiusOf(stencil.Adaptation), stencil.RadiusOf(stencil.Advection))
	rs := stencil.RadiusOf(stencil.Smoothing)
	return r.X, 3*m*r.Y + rs.Y, 3 * m * r.Z
}

// BaselineHalo returns the halo widths the baseline integrator requires
// (the per-update radii of the widest stencils).
func BaselineHalo() (hx, hy, hz int) { return baselineHalo() }

// NewCommAvoid builds the communication-avoiding integrator. The topology
// must use p_x = 1 and halo widths from CommAvoidHalo(cfg.StageDepth());
// blocks must be at least 3 rows/layers thick so the overlap inner region is
// well formed.
func NewCommAvoid(cfg Config, g *grid.Grid, tp *topo.Topology) *CommAvoid {
	if tp.Px != 1 {
		panic("dycore: the communication-avoiding algorithm requires the Y-Z decomposition (p_x = 1)")
	}
	sd := cfg.StageDepth()
	_, hy, hz := CommAvoidHalo(sd)
	if tp.Block.Hy < hy || tp.Block.Hz < hz {
		panic(fmt.Sprintf("dycore: halo widths (%d,%d) too small for CommAvoid (need %d,%d)",
			tp.Block.Hy, tp.Block.Hz, hy, hz))
	}
	ca := &CommAvoid{}
	ca.depthY = hy - 2 // smoothing consumes the outermost 2 y rows
	ca.depthZ = hz
	if cfg.Staged() {
		ca.stage = sd
	}

	rAdv := stencil.RadiusOf(stencil.Advection)
	dyAdv, dzAdv := 3*rAdv.Y, 3*rAdv.Z
	if tp.Py == 1 {
		hy = 0
		dyAdv = 0
	}
	if tp.Pz == 1 {
		hz = 0
		dzAdv = 0
	}

	// Storage follows compute. The deep halo reaches toward higher k only, so
	// below K0 only the advection exchange writes (dzAdv levels); on a bottom
	// z-rank, whose deep halo is cut at σ = 1, that is all the z halo there
	// is. An update streams its tendency one level at a time (stream), so
	// the tendency stores two levels of the footprint of its compute extent,
	// region(1) ∪ advRegion(2). The work state, written there, also stores
	// the row and level past it that the stencils read, and the two rows past
	// region(2) whose p'_sa the surface update before the η2 tendency reads
	// (Surface.UpdateFor). L̃'s planes reach one row past the advection's
	// rect.
	b := tp.Block
	stor := b
	if b.K0 > 0 && b.K1 == b.Nz {
		stor.Hz = dzAdv
	}
	r1 := expandAsym(b, ca.depthY-1, ca.depthY-1, 0, ca.depthZ-1)
	r2 := expandAsym(b, ca.depthY-2, ca.depthY-2, 0, ca.depthZ-2)
	rAdv2 := expandAsym(b, 2, 2, 2, 2)
	work := covering(b, grow(r1, 1, 1), grow(r2, 2, 0), grow(rAdv2, 1, 1))
	ca.core = newCore(cfg, g, tp, stor, work, covering(b, grow(rAdv2, 1, 0)))
	ca.lvl = operators.NewLevelTendency(covering(b, r1, rAdv2))
	// S̃2's originals are read on the latter smoothing's rect s2r, grown by
	// the smoothing's two rows; the smoothing is horizontal, so no level
	// below K0 or past the domain.
	s2r := expandAsym(b, ca.depthY, ca.depthY, 0, ca.depthZ)
	orig := covering(b, grow(s2r, 2, 0))
	// The adaptation stencils are one-sided in z (Table 1 reads k and k+1
	// only), so the deep halo extends toward higher k only; this is the
	// shape of the paper's Figure 4 halo areas.
	deep := topo.Depths{X: 0, YLo: hy, YHi: hy, ZLo: 0, ZHi: hz}
	ca.deepEx = tp.NewExchangerD(deep).SetLabel("ca-deep")
	ca.bandEx = tp.NewBandExchangerY(deep, 2).SetLabel("ca-band")
	ca.advEx = tp.NewExchanger(0, dyAdv, dzAdv).SetLabel("ca-adv")
	dys := stencil.RadiusOf(stencil.Smoothing).Y
	if tp.Py == 1 {
		dys = 0
	}
	ca.smEx = tp.NewExchanger(0, dys, 0).SetLabel("ca-smooth")
	if ca.stage > 0 {
		// The refresh exchange restores the full adaptation depth (3·S per
		// side in y, one-sided 3·S in z) without the smoothing rows — the
		// fused smoothing is settled by the first (deep) exchange of the step.
		sy, sz := hy, hz
		if sy > 0 {
			sy -= 2
		}
		ca.stageEx = tp.NewExchangerD(topo.Depths{YLo: sy, YHi: sy, ZHi: sz}).SetLabel("ca-stage")
	}
	ca.origPhi = field.NewF3(orig)
	ca.origPsa = field.NewF2(orig)
	ca.availYFn = ca.availY
	ca.bandF3[0] = ca.origPhi
	ca.bandF2[0] = ca.origPsa
	ca.xi.Carry = &state.Carry{} // what a snapshot needs besides ξ
	ca.publishCarry(false)
	return ca
}

// publishCarry aims ξ's Carry at the Ĉ cache and records whether ξ owes the
// former smoothing the last Step deferred.
func (ca *CommAvoid) publishCarry(pendingSmooth bool) {
	*ca.xi.Carry = state.Carry{PWI: ca.cache.PWI, DBar: ca.cache.DBar, PendingSmooth: pendingSmooth}
}

// ExchStats reports per-exchanger overlap accounting.
func (ca *CommAvoid) ExchStats() []topo.ExchStats {
	out := []topo.ExchStats{ca.deepEx.Stats(), ca.bandEx.Stats(), ca.advEx.Stats(), ca.smEx.Stats()}
	if ca.stageEx != nil {
		out = append(out, ca.stageEx.Stats())
	}
	return out
}

// SetState overwrites ξ's owned cells and bootstraps halos. An initial
// condition (no Carry) also bootstraps the Ĉ cache (ξ^(−1) = ξ^(0),
// Algorithm 2 line 1) and owes no smoothing; a comm-avoiding snapshot brings
// both along (the deep exchange ships Ĉ too, refilling the restored cache's
// halos), so the next Step is bitwise the uninterrupted run's. Only owned
// cells of init and of its Carry are read, so either may have any storage
// extent (state.OwnedBlock is the smallest).
func (ca *CommAvoid) SetState(init *state.State) {
	ca.xi.CopyOwned(init)
	if c := init.Carry; c != nil {
		ca.xi.Carry.CopyOwned(c) // ξ's Carry names the cache (publishCarry)
	}
	ca.localFill(ca.xi)
	f3, f2 := ca.exchangeFields(ca.xi)
	ca.deepEx.Exchange(f3, f2)
	ca.n.HaloExchanges++
	ca.localFill(ca.xi)
	if init.Carry == nil {
		r1 := ca.region(1)
		ca.updateSurface(ca.xi, r1)
		ca.evalC(ca.xi, r1)
	}
	ca.publishCarry(init.Carry != nil && init.Carry.PendingSmooth)
}

// availY reports the former-smoothing row window of the rank owning global
// row j: its owned rows, extended across a pole by the mirror ghosts.
func (ca *CommAvoid) availY(j int) (lo, hi int) {
	lo, hi = ca.tp.RowWindow(j)
	if lo == 0 {
		lo = -2
	}
	if hi == ca.g.Ny {
		hi = ca.g.Ny + 2
	}
	return lo, hi
}

// region returns the compute rect of the u-th adaptation update (u counts
// 1 … 3M within the step): the owned block extended by the remaining valid
// halo depth — symmetric in y, high side only in z (the adaptation stencil
// never reads k−1).
func (ca *CommAvoid) region(u int) field.Rect {
	return expandAsym(ca.tp.Block, ca.depthY-u, ca.depthY-u, 0, ca.depthZ-u)
}

// expandAsym grows b's owned rect by per-side amounts, clamped to the global
// domain.
func expandAsym(b field.Block, yLo, yHi, zLo, zHi int) field.Rect {
	r := b.Owned()
	r.J0 = max(r.J0-yLo, 0)
	r.J1 = min(r.J1+yHi, b.Ny)
	r.K0 = max(r.K0-zLo, 0)
	r.K1 = min(r.K1+zHi, b.Nz)
	return r
}

// Step advances one time step of Algorithm 2. ψ is ξ, and the one work state
// holds η1, then the midpoint (ψ + η2)/2; every update streams its tendency
// one level at a time (stream). Ghosts follow their writes: each update,
// midpoint and smoothing stage refreshes the ghosts sourced in what it
// wrote, and each exchange those sourced in what it received
// (fillReceived). A step hook or resume writes ξ's owned cells from
// outside, so the step starts by refreshing the ghosts sourced there, once.
func (ca *CommAvoid) Step() {
	owned := ca.tp.Block.Owned()
	storage := ca.xi.B.WithHalo()
	// The former/later split runs whenever ξ owes a smoothing: every step
	// but the first after an initial condition or a finalized snapshot.
	fused := ca.xi.Carry.PendingSmooth
	ca.xi.FillLocalBounds(owned)

	// ---- Former smoothing S̃1 of ψ⁰ = ξ^(k−1) on the owned block ----
	if fused {
		ca.origPhi.CopyRect(ca.origPhi.B.WithHalo(), ca.xi.Phi)
		ca.origPsa.CopyRect(ca.origPsa.B.WithHalo(), &ca.xi.Psa.F3)
		w := ca.smo.P1Field(ca.xi.U, ca.eta1.U, owned)
		w += ca.smo.P1Field(ca.xi.V, ca.eta1.V, owned)
		w += ca.smo.P2Former(ca.xi.Phi, ca.eta1.Phi, owned, ca.availYFn)
		w += ca.smo.P2Former(&ca.xi.Psa.F3, &ca.eta1.Psa.F3, owned.Flat2D(), ca.availYFn)
		ca.w.Compute(float64(w) * costSmooth)
		ca.xi.U.CopyRect(owned, ca.eta1.U)
		ca.xi.V.CopyRect(owned, ca.eta1.V)
		ca.xi.Phi.CopyRect(owned, ca.eta1.Phi)
		ca.xi.Psa.CopyRect(owned.Flat2D(), &ca.eta1.Psa.F3)
		ca.xi.FillLocalBounds(owned)
		ca.n.SmoothingCalls++
	}

	// ---- One deep exchange for the smoothing + all 3M adaptation updates ----
	f3, f2 := ca.exchangeFields(ca.xi)
	pend := ca.deepEx.Begin(f3, f2)
	var bandPend *topo.Pending
	if fused {
		bandPend = ca.bandEx.Begin(ca.bandF3[:], ca.bandF2[:])
	}
	ca.n.HaloExchanges++ // one fused communication round

	// ---- Overlap: η1 on the inner part while messages fly ----
	// The overlapped inner computation uses the lagged Ĉ of the approximate
	// nonlinear iteration; under the ExactC ablation η1 must instead use a
	// fresh post-exchange Ĉ, so the overlap is skipped for that update. η1
	// is written on the inner part at once: its ψ cells there are owned,
	// and the latter smoothing changes only rows within two of the owned
	// block's comm-fed edges, which the inner part leaves out.
	r1 := ca.region(1)
	var inner field.Rect
	if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
		dIn := 1 // one stencil radius inside the owned block
		if fused {
			dIn = 3 // plus the two edge rows awaiting latter smoothing
		}
		// The adaptation stencil reads k+1 but never k−1, so only the
		// high-z side shrinks for the pre-exchange inner part.
		inner = ca.shrinkByDepths(owned, topo.Depths{YLo: dIn, YHi: dIn, ZHi: 1})
	}
	ca.updateSurface(ca.xi, inner)
	if !inner.Empty() {
		ca.stream(kernAdapt, ca.xi, ca.eta1, false, inner)
	}

	pend.Finish()
	if bandPend != nil {
		bandPend.Finish()
	}
	ca.fillReceived(ca.deepEx, ca.xi)

	// ---- Latter smoothing S̃2 on the edge bands of the owned block and of
	// the received deep halo ----
	if fused {
		// The received original rows carry owned columns only; refresh
		// their periodic x halos before the δ⁴_λ reads.
		ca.fillEven(ca.origPhi)
		ca.fillEven(&ca.origPsa.F3)
		s2r := expandAsym(ca.tp.Block, ca.depthY, ca.depthY, 0, ca.depthZ)
		w := ca.smo.P2Latter(ca.origPhi, ca.xi.Phi, s2r, ca.availYFn)
		w += ca.smo.P2Latter(&ca.origPsa.F3, &ca.xi.Psa.F3, s2r.Flat2D(), ca.availYFn)
		ca.w.Compute(float64(w) * costSmooth)
		ca.xi.FillLocalBounds(storage)
	}

	// ---- η1 completion on the outer region ----
	// ψ is ξ from here to the end of the step: nothing reads the step's
	// initial ξ once η1 is formed, so the iteration updates it in place.
	ca.updateSurface(ca.xi, r1)
	if ca.cfg.ExactC {
		ca.evalC(ca.xi, r1)
	}
	for _, s := range ca.slabs(r1, inner) {
		ca.stream(kernAdapt, ca.xi, ca.eta1, false, s)
	}
	ca.chargeLincomb(r1)

	// ---- Remaining adaptation updates (Algorithm 2 lines 13–22) ----
	u := 1
	for i := 1; i <= ca.cfg.M; i++ {
		if i > 1 {
			// η1 of iteration i: reuse Ĉ from the previous iteration's
			// midpoint state (the stand-in for Ĉ(ψ^{i−2})) unless ExactC.
			u++
			if ca.stage > 0 && (i-1)%ca.stage == 0 {
				// Staged mode: the shallow halo is exhausted after `stage`
				// iterations. Refresh it with a ψ exchange (the cached Ĉ
				// rides along, so the lagged η1 inputs regain full halo
				// depth too), overlapped with the η1 interior tendency the
				// same way the step's first exchange overlaps.
				u = 1
				r := ca.region(u)
				f3s, f2s := ca.exchangeFields(ca.xi)
				spend := ca.stageEx.Begin(f3s, f2s)
				ca.n.HaloExchanges++
				sInner := field.Rect{}
				if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
					sInner = ca.shrinkByDepths(owned, topo.Depths{YLo: 1, YHi: 1, ZHi: 1})
				}
				ca.updateSurface(ca.xi, sInner)
				if !sInner.Empty() {
					ca.stream(kernAdapt, ca.xi, ca.eta1, false, sInner)
				}
				spend.Finish()
				ca.fillReceived(ca.stageEx, ca.xi)
				ca.refreshSurface(ca.xi, r)
				if ca.cfg.ExactC {
					ca.evalC(ca.xi, r)
				}
				for _, s := range ca.slabs(r, sInner) {
					ca.stream(kernAdapt, ca.xi, ca.eta1, false, s)
				}
				ca.chargeLincomb(r)
			} else {
				r := ca.region(u)
				ca.updateSurface(ca.xi, r)
				if ca.cfg.ExactC {
					ca.evalC(ca.xi, r)
				}
				ca.update(kernAdapt, ca.xi, ca.eta1, false, r)
			}
		}

		// η2 = ψ + Δt1·F̃(Ĉ(η1) + Â(η1)), consumed only by the midpoint
		// mid = (ψ + η2)/2, which overwrites η1 on r. η1 is formed, so the
		// lagged Ĉ has no reader left and Ĉ(η1) overwrites it in the cache.
		u++
		r := ca.region(u)
		ca.updateSurface(ca.eta1, r)
		ca.evalC(ca.eta1, r)
		ca.update(kernAdapt, ca.eta1, ca.eta1, true, r)

		// η3 = ψ + Δt1·F̃(Ĉ(mid) + Â(mid)); Ĉ(mid) stays in the cache for
		// the next η1 and the advection
		u++
		r = ca.region(u)
		ca.updateSurface(ca.eta1, r)
		ca.evalC(ca.eta1, r)
		ca.update(kernAdapt, ca.eta1, ca.xi, false, r) // ψ ← η3
	}

	// ---- Advection phase: one exchange, overlap on ζ1 ----
	f3, f2 = ca.exchangeFields(ca.xi)
	pend = ca.advEx.Begin(f3, f2)
	ca.n.HaloExchanges++
	rz1 := ca.advRegion(2)
	inner = field.Rect{}
	if !ca.cfg.NoOverlap {
		inner = ca.shrinkByDepths(owned, topo.Sym(0, 1, 1))
	}
	ca.updateSurface(ca.xi, inner)
	if !inner.Empty() {
		ca.stream(kernAdvect, ca.xi, ca.eta1, false, inner)
	}
	pend.Finish()
	ca.fillReceived(ca.advEx, ca.xi)
	ca.updateSurface(ca.xi, rz1)
	for _, s := range ca.slabs(rz1, inner) {
		ca.stream(kernAdvect, ca.xi, ca.eta1, false, s)
	}
	ca.chargeLincomb(rz1) // ζ1

	// ζ2, consumed only by the midpoint (ψ + ζ2)/2 that overwrites ζ1 on r
	r := ca.advRegion(1)
	ca.updateSurface(ca.eta1, r)
	ca.update(kernAdvect, ca.eta1, ca.eta1, true, r)

	// ζ3
	ca.updateSurface(ca.eta1, owned)
	ca.update(kernAdvect, ca.eta1, ca.xi, false, owned)

	// Ablation: plain smoothing at the end of the step (baseline style).
	if ca.cfg.NoFusedSmoothing {
		ca.plainSmooth()
	}

	ca.n.Steps++
	ca.publishCarry(!ca.cfg.NoFusedSmoothing)
}

// update streams one whole update over r (stream) and charges its lincomb.
func (ca *CommAvoid) update(kern kernel, src, dst *state.State, mid bool, r field.Rect) {
	ca.stream(kern, src, dst, mid, r)
	ca.chargeLincomb(r)
}

// stream runs one update, or one piece of an overlapped one, over r a level
// at a time (DESIGN §8 "One level of tendency"). At each level k it forms
// the tendency plane of kern at src — kernAdapt: Â + Ĉ with Δt1, kernAdvect:
// L̃ with Δt2 — filters its polar rows and writes dst at level k from ψ = ξ:
// dst ← ψ + Δt·F̃(T), or with mid the midpoint ½ψ + ½(ψ + Δt·F̃(T))
// (field.MidRect); then it refreshes the ghosts sourced there. dp'_sa, one
// plane, goes first: the 3-D kernels read the surface diagnostics computed
// from it beforehand, never p'_sa itself. A piece writes dp'_sa on all of
// its rows, so a k-slab rewrites the inner piece's rows, with the same
// values: their p'_sa and D̄ inputs do not change in between.
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
func (ca *CommAvoid) stream(kern kernel, src, dst *state.State, mid bool, r field.Rect) {
	ca.n.FilterCalls++
	dt, cost := ca.cfg.Dt1, costAdapt
	if kern == kernAdvect {
		dt, cost = ca.cfg.Dt2, costAdvect
	}
	t := ca.lvl.Level(r.K0)
	w := 0
	if kern == kernAdapt {
		w = operators.AdaptationPsa(ca.g, ca.cfg.Adapt, src, ca.cache, t, r)
	} else {
		operators.AdvectionPsa(t, r)
	}
	rows := ca.flt.Apply(&t.DPsa.F3, r.Flat2D())
	lincomb(&dst.Psa.F3, &ca.xi.Psa.F3, dt, &t.DPsa.F3, r.Flat2D(), mid)
	dst.FillPsaBounds(r)
	for k := r.K0; k < r.K1; k++ {
		t := ca.lvl.Level(k)
		if kern == kernAdapt {
			w += operators.AdaptationLevel(ca.g, src, ca.sur, ca.cache, t, r, k)
		} else {
			w += operators.AdvectionLevel(ca.g, src, ca.sur, ca.cache, t, r, k, ca.advSc)
		}
		rk := atLevel(r, k)
		rows += ca.flt.Apply(t.DU, rk) + ca.flt.Apply(t.DV, rk) + ca.flt.Apply(t.DPhi, rk)
		if k > r.K0 {
			ca.writeLevel(dst, dt, mid, r, k-1)
		}
	}
	ca.writeLevel(dst, dt, mid, r, r.K1-1)
	ca.w.Compute(float64(w) * cost)
	ca.chargeFilter(rows)
}

// writeLevel writes dst's U, V and Φ at level k of r from ψ = ξ and that
// level's streamed tendency, then refreshes the ghosts sourced there.
func (ca *CommAvoid) writeLevel(dst *state.State, dt float64, mid bool, r field.Rect, k int) {
	t, rk := ca.lvl.Level(k), atLevel(r, k)
	lincomb(dst.U, ca.xi.U, dt, t.DU, rk, mid)
	lincomb(dst.V, ca.xi.V, dt, t.DV, rk, mid)
	lincomb(dst.Phi, ca.xi.Phi, dt, t.DPhi, rk, mid)
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

// advRegion is region() for the advection phase's shallower halo.
func (ca *CommAvoid) advRegion(depth int) field.Rect {
	return expandAsym(ca.tp.Block, depth, depth, depth, depth)
}

// plainSmooth applies full smoothing with its own exchange (ablation path
// and Finalize). The pre-smoothing state is snapshotted into the work state
// first (free between steps) so the exchange can target the snapshot
// directly: received halo rows then land in the field the smoothing reads,
// and the interior sweep (which only reads rows the exchange does not touch)
// overlaps the messages in flight. Finalize may follow a step hook, so the
// snapshot's ghosts sourced in owned cells are refreshed first.
func (ca *CommAvoid) plainSmooth() {
	owned := ca.tp.Block.Owned()
	ca.eta1.CopyStored(ca.xi)
	ca.eta1.FillLocalBounds(owned)
	ca.overlapped(ca.smEx, ca.eta1, ca.xi, kernSmooth)
	ca.n.SmoothingCalls++
	ca.xi.FillLocalBounds(owned)
}

// Finalize applies the trailing smoothing of Algorithm 2 line 30 (deferred
// from the last step), making Xi() comparable with the baseline's output.
func (ca *CommAvoid) Finalize() {
	if ca.xi.Carry.PendingSmooth {
		ca.plainSmooth()
		ca.xi.Carry.PendingSmooth = false
	}
}
