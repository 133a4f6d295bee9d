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
	ca := &CommAvoid{core: newCore(cfg, g, tp)}
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
	ca.origPhi = field.NewF3(tp.Block)
	ca.origPsa = field.NewF2(tp.Block)
	ca.availYFn = ca.availY
	ca.bandF3[0] = ca.origPhi
	ca.bandF2[0] = ca.origPsa
	ca.xi.Carry = &state.Carry{} // what a snapshot needs besides ξ
	ca.publishCarry(false)
	return ca
}

// publishCarry re-aims ξ's Carry at the current cLast (the cLast/cNew swaps
// move it between two buffers) and records whether ξ owes the former
// smoothing the last Step deferred.
func (ca *CommAvoid) publishCarry(pendingSmooth bool) {
	*ca.xi.Carry = state.Carry{PWI: ca.cLast.PWI, DBar: ca.cLast.DBar, PendingSmooth: pendingSmooth}
}

// ExchStats reports per-exchanger overlap accounting.
func (ca *CommAvoid) ExchStats() []topo.ExchStats {
	out := []topo.ExchStats{ca.deepEx.Stats(), ca.bandEx.Stats(), ca.advEx.Stats(), ca.smEx.Stats()}
	if ca.stageEx != nil {
		out = append(out, ca.stageEx.Stats())
	}
	return out
}

// SetState overwrites ξ and bootstraps halos. An initial condition (no
// Carry) also bootstraps the Ĉ cache (ξ^(−1) = ξ^(0), Algorithm 2 line 1)
// and owes no smoothing; a comm-avoiding snapshot brings both along (the
// deep exchange ships Ĉ too, refilling the restored cache's halos), so the
// next Step is bitwise the uninterrupted run's.
func (ca *CommAvoid) SetState(init *state.State) {
	ca.xi.CopyFrom(init)
	if c := init.Carry; c != nil {
		field.Copy(ca.cLast.PWI, c.PWI)
		field.Copy2(ca.cLast.DBar, c.DBar)
	}
	ca.localFill(ca.xi)
	f3, f2 := ca.exchangeFields(ca.xi)
	ca.deepEx.Exchange(f3, f2)
	ca.n.HaloExchanges++
	ca.localFill(ca.xi)
	if init.Carry == nil {
		ca.updateSurface(ca.xi)
		ca.evalC(ca.xi, ca.cLast, ca.region(1))
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
	return ca.expandAsym(ca.depthY-u, ca.depthY-u, 0, ca.depthZ-u)
}

// expandAsym grows the owned rect by per-side amounts, clamped to the
// global domain.
func (ca *CommAvoid) expandAsym(yLo, yHi, zLo, zHi int) field.Rect {
	b := ca.tp.Block
	r := b.Owned()
	r.J0 -= yLo
	r.J1 += yHi
	r.K0 -= zLo
	r.K1 += zHi
	if r.J0 < 0 {
		r.J0 = 0
	}
	if r.J1 > ca.g.Ny {
		r.J1 = ca.g.Ny
	}
	if r.K0 < 0 {
		r.K0 = 0
	}
	if r.K1 > ca.g.Nz {
		r.K1 = ca.g.Nz
	}
	return r
}

// Step advances one time step of Algorithm 2.
//
//cadyvet:allocfree
func (ca *CommAvoid) Step() {
	owned := ca.tp.Block.Owned()
	// The former/later split runs whenever ξ owes a smoothing: every step
	// but the first after an initial condition or a finalized snapshot.
	fused := ca.xi.Carry.PendingSmooth

	// ---- Former smoothing S̃1 of ψ⁰ = ξ^(k−1) on the owned block ----
	if fused {
		ca.xi.FillLocalBounds() // x halos and pole mirrors for the δ⁴ reads
		field.Copy(ca.origPhi, ca.xi.Phi)
		field.Copy2(ca.origPsa, ca.xi.Psa)
		var w int
		if ca.cfg.Workers > 1 {
			//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch below is closure-free)
			w = ca.parKSum(owned, func(sub field.Rect, _ int) int { return ca.smo.P1Field(ca.xi.U, ca.eta1.U, sub) })
			//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch below is closure-free)
			w += ca.parKSum(owned, func(sub field.Rect, _ int) int { return ca.smo.P1Field(ca.xi.V, ca.eta1.V, sub) })
			//cadyvet:allow Workers>1 tiling path; excluded from the single-worker zero-alloc invariant (serial branch below is closure-free)
			w += ca.parKSum(owned, func(sub field.Rect, _ int) int { return ca.smo.P2Former(ca.xi.Phi, ca.eta1.Phi, sub, ca.availYFn) })
		} else {
			w = ca.smo.P1Field(ca.xi.U, ca.eta1.U, owned)
			w += ca.smo.P1Field(ca.xi.V, ca.eta1.V, owned)
			w += ca.smo.P2Former(ca.xi.Phi, ca.eta1.Phi, owned, ca.availYFn)
		}
		w += ca.smo.P2Former2(ca.xi.Psa, ca.eta1.Psa, owned, ca.availYFn)
		ca.w.Compute(float64(w) * costSmooth)
		ca.xi.U.CopyRect(owned, ca.eta1.U)
		ca.xi.V.CopyRect(owned, ca.eta1.V)
		ca.xi.Phi.CopyRect(owned, ca.eta1.Phi)
		copyRect2(ca.xi.Psa, owned, ca.eta1.Psa)
		ca.xi.FillLocalBounds()
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

	// ---- Overlap: η1 tendency on the inner part while messages fly ----
	// The overlapped inner computation uses the lagged Ĉ of the approximate
	// nonlinear iteration; under the ExactC ablation η1 must instead use a
	// fresh post-exchange Ĉ, so the overlap is skipped for that update.
	r1 := ca.region(1)
	var inner field.Rect
	if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
		// Interior reads must not see hook- or resume-stale local ghosts
		// (see Baseline.adaptUpdate); the quiesced path refills after the
		// blocking Finish instead.
		ca.localFill(ca.xi)
	}
	ca.updateSurface(ca.xi)
	if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
		dIn := 1 // one stencil radius inside the owned block
		if fused {
			dIn = 3 // plus the two edge rows awaiting latter smoothing
		}
		// The adaptation stencil reads k+1 but never k−1, so only the
		// high-z side shrinks for the pre-exchange inner part.
		inner = owned
		if inner.J0 != 0 {
			inner.J0 += dIn
		}
		if inner.J1 != ca.g.Ny {
			inner.J1 -= dIn
		}
		if inner.K1 != ca.g.Nz {
			inner.K1--
		}
		if !inner.Empty() {
			ca.adaptTendency(ca.xi, ca.cLast, inner)
			ca.filterTendency(inner)
		}
	}

	pend.Finish()
	if bandPend != nil {
		bandPend.Finish()
	}
	ca.localFill(ca.xi)

	// ---- Latter smoothing S̃2 on the edge bands of the owned block and of
	// the received deep halo ----
	if fused {
		// The received original rows carry owned columns only; refresh
		// their periodic x halos before the δ⁴_λ reads.
		ca.origPhi.FillXPeriodic()
		ca.origPsa.FillXPeriodic()
		if ca.cfg.ShiftedPoleMirror {
			field.FillPolesYShifted(ca.origPhi, field.Even, field.CenterY)
			field.FillPolesY2Shifted(ca.origPsa, field.Even)
		} else {
			field.FillPolesY(ca.origPhi, field.Even, field.CenterY)
			field.FillPolesY2(ca.origPsa, field.Even)
		}
		s2r := ca.expandAsym(ca.depthY, ca.depthY, 0, ca.depthZ)
		w := ca.smo.P2Latter(ca.origPhi, ca.xi.Phi, s2r, ca.availYFn)
		w += ca.smo.P2Latter2(ca.origPsa, ca.xi.Psa, s2r, ca.availYFn)
		ca.w.Compute(float64(w) * costSmooth)
		ca.xi.FillLocalBounds()
	}

	// ---- η1 completion on the outer region, then the update ----
	ca.updateSurface(ca.xi)
	if ca.cfg.ExactC {
		ca.evalC(ca.xi, ca.cNew, r1)
		ca.cLast, ca.cNew = ca.cNew, ca.cLast
	}
	for _, s := range ca.slabs(r1, inner) {
		ca.adaptTendency(ca.xi, ca.cLast, s)
		ca.filterTendency(s)
	}
	ca.psi.CopyFrom(ca.xi)
	ca.applyUpdate(ca.eta1, ca.psi, ca.cfg.Dt1, r1)

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
				f3s, f2s := ca.exchangeFields(ca.psi)
				spend := ca.stageEx.Begin(f3s, f2s)
				ca.n.HaloExchanges++
				if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
					ca.localFill(ca.psi) // see Baseline.adaptUpdate
				}
				ca.updateSurface(ca.psi)
				sInner := field.Rect{}
				if !ca.cfg.NoOverlap && !ca.cfg.ExactC {
					sInner = owned
					if sInner.J0 != 0 {
						sInner.J0++
					}
					if sInner.J1 != ca.g.Ny {
						sInner.J1--
					}
					if sInner.K1 != ca.g.Nz {
						sInner.K1--
					}
					if !sInner.Empty() {
						ca.adaptTendency(ca.psi, ca.cLast, sInner)
						ca.filterTendency(sInner)
					}
				}
				spend.Finish()
				ca.localFill(ca.psi)
				ca.refreshSurface(ca.psi)
				cr := ca.cLast
				if ca.cfg.ExactC {
					ca.evalC(ca.psi, ca.cNew, r)
					cr = ca.cNew
				}
				for _, s := range ca.slabs(r, sInner) {
					ca.adaptTendency(ca.psi, cr, s)
					ca.filterTendency(s)
				}
				ca.applyUpdate(ca.eta1, ca.psi, ca.cfg.Dt1, r)
			} else {
				r := ca.region(u)
				ca.updateSurface(ca.psi)
				cr := ca.cLast
				if ca.cfg.ExactC {
					ca.evalC(ca.psi, ca.cNew, r)
					cr = ca.cNew
				}
				ca.adaptTendency(ca.psi, cr, r)
				ca.filterTendency(r)
				ca.applyUpdate(ca.eta1, ca.psi, ca.cfg.Dt1, r)
			}
		}

		// η2 = ψ + Δt1·F̃(Ĉ(η1) + Â(η1))
		u++
		r := ca.region(u)
		ca.updateSurface(ca.eta1)
		ca.evalC(ca.eta1, ca.cNew, r)
		ca.adaptTendency(ca.eta1, ca.cNew, r)
		ca.filterTendency(r)
		ca.applyUpdate(ca.eta2, ca.psi, ca.cfg.Dt1, r)
		r2 := r

		// η3 = ψ + Δt1·F̃(Ĉ(mid) + Â(mid)), mid = (ψ + η2)/2
		u++
		r = ca.region(u)
		ca.mid.Mean2Rect(ca.psi, ca.eta2, r2)
		ca.mid.FillLocalBounds()
		ca.updateSurface(ca.mid)
		ca.evalC(ca.mid, ca.cNew, r)
		ca.adaptTendency(ca.mid, ca.cNew, r)
		ca.filterTendency(r)
		ca.applyUpdate(ca.psi, ca.psi, ca.cfg.Dt1, r) // ψ ← η3
		ca.cLast, ca.cNew = ca.cNew, ca.cLast         // cache Ĉ(mid) for the next η1
	}

	// ---- Advection phase: one exchange, overlap on ζ1 ----
	f3, f2 = ca.exchangeFields(ca.psi)
	pend = ca.advEx.Begin(f3, f2)
	ca.n.HaloExchanges++
	if !ca.cfg.NoOverlap {
		ca.localFill(ca.psi) // see Baseline.adaptUpdate
	}
	ca.updateSurface(ca.psi)
	rz1 := ca.advRegion(2)
	inner = field.Rect{}
	if !ca.cfg.NoOverlap {
		inner = ca.shrinkInternal(owned, 1, 1)
		if !inner.Empty() {
			ca.advectTendency(ca.psi, ca.cLast, inner)
			ca.filterTendency(inner)
		}
	}
	pend.Finish()
	ca.localFill(ca.psi)
	ca.updateSurface(ca.psi)
	for _, s := range ca.slabs(rz1, inner) {
		ca.advectTendency(ca.psi, ca.cLast, s)
		ca.filterTendency(s)
	}
	ca.applyUpdate(ca.eta1, ca.psi, ca.cfg.Dt2, rz1) // ζ1

	// ζ2
	r := ca.advRegion(1)
	ca.updateSurface(ca.eta1)
	ca.advectTendency(ca.eta1, ca.cLast, r)
	ca.filterTendency(r)
	ca.applyUpdate(ca.eta2, ca.psi, ca.cfg.Dt2, r)

	// ζ3
	ca.mid.Mean2Rect(ca.psi, ca.eta2, r)
	ca.mid.FillLocalBounds()
	ca.updateSurface(ca.mid)
	ca.advectTendency(ca.mid, ca.cLast, owned)
	ca.filterTendency(owned)
	ca.applyUpdate(ca.psi, ca.psi, ca.cfg.Dt2, owned)

	ca.xi.CopyFrom(ca.psi)

	// Ablation: plain smoothing at the end of the step (baseline style).
	if ca.cfg.NoFusedSmoothing {
		ca.plainSmooth()
	}

	ca.n.Steps++
	ca.publishCarry(!ca.cfg.NoFusedSmoothing)
}

// advRegion is region() for the advection phase's shallower halo.
func (ca *CommAvoid) advRegion(depth int) field.Rect {
	return ca.expandInternal(depth, depth)
}

// plainSmooth applies full smoothing with its own exchange (ablation path
// and Finalize). The pre-smoothing state is snapshotted into ψ first so the
// exchange can target ψ directly: received halo rows then land in the field
// the smoothing reads, and the interior sweep (which only reads rows the
// exchange does not touch) overlaps the messages in flight.
func (ca *CommAvoid) plainSmooth() {
	owned := ca.tp.Block.Owned()
	ca.psi.CopyFrom(ca.xi)
	f3, f2 := ca.exchangeFields(ca.psi)
	pend := ca.smEx.Begin(f3, f2)
	ca.n.HaloExchanges++
	var inner field.Rect
	if !ca.cfg.NoOverlap {
		// ψ was copied from ξ after the step hook may have mutated the
		// owned cells, so its local ghosts can be stale (see
		// Baseline.adaptUpdate); the interior sweep must not read them.
		ca.localFill(ca.psi)
		inner = ca.shrinkByDepths(owned, ca.smEx.ExchangeDepths())
		if !inner.Empty() {
			w := ca.smo.SmoothFull(ca.psi, ca.xi, inner)
			ca.w.Compute(float64(w) * costSmooth)
		}
	}
	//cadyvet:quiesce under NoOverlap the inner rect is empty and this Finish is the quiesced reference path
	pend.Finish()
	ca.localFill(ca.psi)
	for _, s := range ca.slabs(owned, inner) {
		w := ca.smo.SmoothFull(ca.psi, ca.xi, s)
		ca.w.Compute(float64(w) * costSmooth)
	}
	ca.n.SmoothingCalls++
	ca.localFill(ca.xi)
}

// Finalize applies the trailing smoothing of Algorithm 2 line 30 (deferred
// from the last step), making Xi() comparable with the baseline's output.
func (ca *CommAvoid) Finalize() {
	if ca.xi.Carry.PendingSmooth {
		ca.plainSmooth()
		ca.xi.Carry.PendingSmooth = false
	}
}

// copyRect2 copies rect r of src into dst for 2-D fields.
func copyRect2(dst *field.F2, r field.Rect, src *field.F2) {
	r = r.Flat2D()
	for j := r.J0; j < r.J1; j++ {
		d := dst.Index(r.I0, j)
		s := src.Index(r.I0, j)
		copy(dst.Data[d:d+(r.I1-r.I0)], src.Data[s:s+(r.I1-r.I0)])
	}
}
