package dycore

import (
	"cadycore/internal/field"
	"cadycore/internal/grid"
	"cadycore/internal/operators"
	"cadycore/internal/state"
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
	deepEx  *topo.Exchanger // adaptation exchange, sized for all 3·S updates and S̃2 (S = StageDepth)
	band    band            // original edge rows for S̃2 (the "yellow bar"), beside deepEx
	advEx   *topo.Exchanger // advection exchange
	smEx    *topo.Exchanger // plain smoothing exchange (ablation/Finalize)
	stageEx *topo.Exchanger // mid-phase refresh exchange (staged mode only)
	origPhi *field.F3       // pre-smoothing Φ for the latter smoothing
	origPsa *field.F2
}

// NewCommAvoid builds the communication-avoiding integrator on a topology
// with p_x = 1 and the halo widths Setup.HaloWidths returns; blocks must be
// at least 3 rows/layers thick so the overlap inner region is well formed.
// Every exchanger, rect and array comes from the rank's cover (planCover).
func NewCommAvoid(cfg Config, g *grid.Grid, tp *topo.Topology) *CommAvoid {
	if tp.Px != 1 {
		panic("dycore: the communication-avoiding algorithm requires the Y-Z decomposition (p_x = 1)")
	}
	ca := &CommAvoid{core: newCore(cfg, g, tp, planCover(Setup{Alg: AlgCommAvoid, Cfg: cfg}, tp.Block, tp.RowWindow))}
	cv := &ca.cv
	ca.lvl = operators.NewLevelTendency(cv.tend)
	ca.deepEx = tp.NewExchangerD(cv.deep.depths).SetLabel("ca-deep")
	ca.advEx = tp.NewExchangerD(cv.adv.depths).SetLabel("ca-adv")
	ca.smEx = tp.NewExchangerD(cv.smooth.depths).SetLabel("ca-smooth")
	if cfg.Staged() {
		ca.stageEx = tp.NewExchangerD(cv.stage.depths).SetLabel("ca-stage")
	}
	if !cfg.NoFusedSmoothing {
		// The band ships a peer the original rows its S̃2 reads that the
		// sender's S̃1 smoothed. A rank reads every row it sends (the reader's
		// row within two of it lies in the sender's S̃2 rect too), so the band
		// lends from the originals' storage.
		ca.band.ex = tp.NewReadExchanger(cv.deep.depths, cv.bandReads).SetLabel("ca-band")
		ca.origPhi = field.NewF3(cv.orig)
		ca.origPsa = field.NewF2(cv.orig)
		ca.band.f3[0] = ca.origPhi
		ca.band.f2[0] = ca.origPsa
	}
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
	out := []topo.ExchStats{ca.deepEx.Stats()}
	for _, ex := range []*topo.Exchanger{ca.band.ex, ca.advEx, ca.smEx, ca.stageEx} {
		if ex != nil {
			out = append(out, ex.Stats())
		}
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
	ca.bootstrap(ca.deepEx, ca.xi)
	if init.Carry == nil {
		ca.updateSurface(ca.xi, ca.cv.eta[0][0])
		ca.evalC(ca.xi, ca.cv.eta[0][0])
	}
	ca.publishCarry(init.Carry != nil && init.Carry.PendingSmooth)
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
	// but the first after an initial condition or a finalized snapshot. The
	// no-fuse ablation pays a restored debt with its plain smoothing, which
	// is bitwise the split.
	fused := ca.xi.Carry.PendingSmooth
	ca.xi.FillLocalBounds(owned)
	switch {
	case fused && ca.cfg.NoFusedSmoothing:
		ca.plainSmooth()
		fused = false
	case fused:
		ca.formerSmooth()
	}

	// ---- One deep exchange for the smoothing + all 3M adaptation updates,
	// overlapped with η1 ----
	// The interior η1 uses the lagged Ĉ of the approximate nonlinear
	// iteration (under ExactC, Â has no interior pass: core.interiorPass).
	// It is written at once: its ψ cells are owned, and the latter smoothing
	// changes only rows within its footprint of the owned block's comm-fed
	// edges, which the fused interior also leaves out (cover.fusedInner).
	var fusedBand *band
	in := ca.cv.deep.inner
	if fused {
		fusedBand, in = &ca.band, ca.cv.fusedInner
	}
	inner := ca.overlapHead(ca.deepEx, fusedBand, ca.xi, ca.eta1, kernAdapt, in)

	// ---- Latter smoothing S̃2: P2 on the rows of the owned block and of
	// the received deep halo that their owner's S̃1 left unsmoothed ----
	if fused {
		ca.latterSmooth()
		ca.xi.FillLocalBounds(storage)
	}

	// ---- η1 completion on the outer region ----
	// ψ is ξ from here to the end of the step: nothing reads the step's
	// initial ξ once η1 is formed, so the iteration updates it in place.
	ca.overlapTail(ca.xi, ca.eta1, kernAdapt, ca.cv.eta[0][0], inner)

	// ---- Remaining adaptation updates (Algorithm 2 lines 13–22) ----
	for i, eta := range ca.cv.eta {
		switch {
		case i == 0: // η1 is formed
		case ca.stageEx != nil && i%ca.cfg.StageDepth() == 0:
			// Staged mode: the shallow halo is exhausted after StageDepth
			// iterations. Refresh it with a ψ exchange (the cached Ĉ rides
			// along, so the lagged η1 inputs regain full halo depth too),
			// overlapped with η1 like the step's first exchange.
			ca.overlapped(ca.stageEx, ca.xi, ca.eta1, kernAdapt, eta[0], ca.cv.stage.inner)
		default:
			// η1 of iteration i: reuse Ĉ from the previous iteration's
			// midpoint state (the stand-in for Ĉ(ψ^{i−2})) unless ExactC.
			ca.update(kernAdapt, ca.xi, ca.eta1, false, eta[0])
		}

		// η2 = ψ + Δt1·F̃(Ĉ(η1) + Â(η1)), consumed only by the midpoint
		// mid = (ψ + η2)/2, which overwrites η1. η1 is formed, so the lagged
		// Ĉ has no reader left and Ĉ(η1) overwrites it in the cache.
		ca.update(kernAdapt, ca.eta1, ca.eta1, true, eta[1])

		// η3 = ψ + Δt1·F̃(Ĉ(mid) + Â(mid)); Ĉ(mid) stays in the cache for
		// the next η1 and the advection
		ca.update(kernAdapt, ca.eta1, ca.xi, false, eta[2]) // ψ ← η3
	}

	// ---- Advection phase: one exchange, overlapped with ζ1 ----
	zeta := &ca.cv.zeta
	ca.overlapped(ca.advEx, ca.xi, ca.eta1, kernAdvect, zeta[0], ca.cv.adv.inner)
	// ζ2, consumed only by the midpoint (ψ + ζ2)/2 that overwrites ζ1
	ca.update(kernAdvect, ca.eta1, ca.eta1, true, zeta[1])
	ca.update(kernAdvect, ca.eta1, ca.xi, false, zeta[2]) // ζ3 on the owned block

	// Ablation: plain smoothing at the end of the step (baseline style).
	if ca.cfg.NoFusedSmoothing {
		ca.plainSmooth()
	}

	ca.n.Steps++
	ca.publishCarry(!ca.cfg.NoFusedSmoothing)
}

// formerSmooth is S̃1 of ψ⁰ = ξ^(k−1): P1 on the owned block and P2 on the
// owned rows whose window is local (cover.s1), after the originals are kept
// for S̃2.
func (ca *CommAvoid) formerSmooth() {
	owned, s1 := ca.tp.Block.Owned(), ca.cv.s1
	ca.origPhi.CopyRect(ca.origPhi.B.WithHalo(), ca.xi.Phi)
	ca.origPsa.CopyRect(ca.origPsa.B.WithHalo(), &ca.xi.Psa.F3)
	w := ca.smo.P1Field(ca.xi.U, ca.eta1.U, owned)
	w += ca.smo.P1Field(ca.xi.V, ca.eta1.V, owned)
	w += ca.smo.P2(ca.xi.Phi, ca.eta1.Phi, s1)
	w += ca.smo.P2(&ca.xi.Psa.F3, &ca.eta1.Psa.F3, s1.Flat2D())
	ca.w.Compute(float64(w) * costSmooth)
	ca.xi.U.CopyRect(owned, ca.eta1.U)
	ca.xi.V.CopyRect(owned, ca.eta1.V)
	ca.xi.Phi.CopyRect(s1, ca.eta1.Phi)
	ca.xi.Psa.CopyRect(s1.Flat2D(), &ca.eta1.Psa.F3)
	ca.xi.FillLocalBounds(owned)
	ca.n.SmoothingCalls++
}

// latterSmooth is S̃2: P2 from the originals on the rows S̃1 left
// unsmoothed. Those arrive unsmoothed in ξ and join the originals the band
// delivered and this rank kept; the received rows carry owned columns only,
// so the originals' periodic x halos are refreshed before the δ⁴_λ reads.
func (ca *CommAvoid) latterSmooth() {
	for _, r := range ca.cv.raw {
		ca.origPhi.CopyRect(r, ca.xi.Phi)
		ca.origPsa.CopyRect(r.Flat2D(), &ca.xi.Psa.F3)
	}
	ca.fillEven(ca.origPhi)
	ca.fillEven(&ca.origPsa.F3)
	w := 0
	for _, r := range ca.cv.s2 {
		w += ca.smo.P2(ca.origPhi, ca.xi.Phi, r)
		w += ca.smo.P2(&ca.origPsa.F3, &ca.xi.Psa.F3, r.Flat2D())
	}
	ca.w.Compute(float64(w) * costSmooth)
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
	ca.overlapped(ca.smEx, ca.eta1, ca.xi, kernSmooth, owned, ca.cv.smooth.inner)
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
