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
	band    band            // original edge rows for S̃2 (the "yellow bar"), beside deepEx
	advEx   *topo.Exchanger // advection exchange: (0, 3, 3)
	smEx    *topo.Exchanger // plain smoothing exchange (ablation/Finalize)
	stageEx *topo.Exchanger // mid-phase refresh exchange (staged mode only)
	origPhi *field.F3       // pre-smoothing Φ for the latter smoothing
	origPsa *field.F2

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
	dys := stencil.RadiusOf(stencil.Smoothing).Y
	if tp.Py == 1 {
		hy, dyAdv, dys = 0, 0, 0
	}
	if tp.Pz == 1 {
		hz, dzAdv = 0, 0
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
	// S̃2 reads its originals on the rows within two of a row-window edge
	// (latterReads); the band ships a peer only those rows, and the
	// originals store only their span, on S̃2's levels. A rank reads every
	// row it sends (the reader's row within two of it lies in the sender's
	// S̃2 rect too), so the band lends from that storage. Without a y split
	// S̃2 reads nothing, and the originals keep the owned rows.
	ca.availYFn = ca.availY
	orig := b
	s2r := ca.s2Rect(b)
	orig.K0, orig.K1, orig.Hy, orig.Hz = s2r.K0, s2r.K1, 0, 0
	if reads := ca.latterReads(b); len(reads) > 0 {
		orig.J0, orig.J1 = reads[0].J0, reads[len(reads)-1].J1
	}
	// The adaptation stencils are one-sided in z (Table 1 reads k and k+1
	// only), so the deep halo extends toward higher k only; this is the
	// shape of the paper's Figure 4 halo areas.
	deep := topo.Depths{X: 0, YLo: hy, YHi: hy, ZLo: 0, ZHi: hz}
	ca.deepEx = tp.NewExchangerD(deep).SetLabel("ca-deep")
	ca.band.ex = tp.NewReadExchanger(deep, ca.latterReads).SetLabel("ca-band")
	ca.advEx = tp.NewExchanger(0, dyAdv, dzAdv).SetLabel("ca-adv")
	ca.smEx = tp.NewExchanger(0, dys, 0).SetLabel("ca-smooth")
	if ca.stage > 0 {
		// The refresh exchange restores the full adaptation depth (3·S per
		// side in y, one-sided 3·S in z) without the smoothing rows — the
		// fused smoothing is settled by the first (deep) exchange of the step.
		sy := max(hy-2, 0)
		ca.stageEx = tp.NewExchangerD(topo.Depths{YLo: sy, YHi: sy, ZHi: hz}).SetLabel("ca-stage")
	}
	ca.origPhi = field.NewF3(orig)
	ca.origPsa = field.NewF2(orig)
	ca.band.f3[0] = ca.origPhi
	ca.band.f2[0] = ca.origPsa
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
	out := []topo.ExchStats{ca.deepEx.Stats(), ca.band.ex.Stats(), ca.advEx.Stats(), ca.smEx.Stats()}
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

// s2Rect returns the rect of the latter smoothing S̃2 on block b: b's owned
// block extended by the full adaptation depth, symmetric in y, high side
// only in z.
func (ca *CommAvoid) s2Rect(b field.Block) field.Rect {
	return expandAsym(b, ca.depthY, ca.depthY, 0, ca.depthZ)
}

// latterReads is the read set of the fused smoothing's band exchange: the
// original rows S̃2 reads on block b (operators.LatterReads over s2Rect(b)
// with the former smoothing's row windows). Every rank evaluates it for its
// peers' blocks, so a weighted layout's thin window still receives the far
// edges it reads.
func (ca *CommAvoid) latterReads(b field.Block) []field.Rect {
	return operators.LatterReads(ca.s2Rect(b), ca.availYFn)
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

	// ---- One deep exchange for the smoothing + all 3M adaptation updates,
	// overlapped with η1 ----
	// The interior η1 uses the lagged Ĉ of the approximate nonlinear
	// iteration (under ExactC, Â has no interior pass: core.interiorPass).
	// It is written at once: its ψ cells are owned, and the latter smoothing
	// changes only rows within two of the owned block's comm-fed edges, which
	// the interior leaves out. The adaptation stencil reads k+1 but never
	// k−1, so only the high-z side shrinks.
	var fusedBand *band
	dIn := 1 // one stencil radius inside the owned block
	if fused {
		fusedBand = &ca.band
		dIn = 3 // plus the two edge rows awaiting latter smoothing
	}
	r1 := ca.region(1)
	inner := ca.overlapHead(ca.deepEx, fusedBand, ca.xi, ca.eta1, kernAdapt, topo.Depths{YLo: dIn, YHi: dIn, ZHi: 1})

	// ---- Latter smoothing S̃2 on the edge bands of the owned block and of
	// the received deep halo ----
	if fused {
		// The received original rows carry owned columns only; refresh
		// their periodic x halos before the δ⁴_λ reads.
		ca.fillEven(ca.origPhi)
		ca.fillEven(&ca.origPsa.F3)
		s2r := ca.s2Rect(ca.tp.Block)
		w := ca.smo.P2Latter(ca.origPhi, ca.xi.Phi, s2r, ca.availYFn)
		w += ca.smo.P2Latter(&ca.origPsa.F3, &ca.xi.Psa.F3, s2r.Flat2D(), ca.availYFn)
		ca.w.Compute(float64(w) * costSmooth)
		ca.xi.FillLocalBounds(storage)
	}

	// ---- η1 completion on the outer region ----
	// ψ is ξ from here to the end of the step: nothing reads the step's
	// initial ξ once η1 is formed, so the iteration updates it in place.
	ca.overlapTail(ca.xi, ca.eta1, kernAdapt, r1, inner)

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
				// depth too), overlapped with η1 like the step's first
				// exchange.
				u = 1
				ca.overlapped(ca.stageEx, ca.xi, ca.eta1, kernAdapt, ca.region(u), topo.Depths{YLo: 1, YHi: 1, ZHi: 1})
			} else {
				ca.update(kernAdapt, ca.xi, ca.eta1, false, ca.region(u))
			}
		}

		// η2 = ψ + Δt1·F̃(Ĉ(η1) + Â(η1)), consumed only by the midpoint
		// mid = (ψ + η2)/2, which overwrites η1. η1 is formed, so the lagged
		// Ĉ has no reader left and Ĉ(η1) overwrites it in the cache.
		u++
		ca.update(kernAdapt, ca.eta1, ca.eta1, true, ca.region(u))

		// η3 = ψ + Δt1·F̃(Ĉ(mid) + Â(mid)); Ĉ(mid) stays in the cache for
		// the next η1 and the advection
		u++
		ca.update(kernAdapt, ca.eta1, ca.xi, false, ca.region(u)) // ψ ← η3
	}

	// ---- Advection phase: one exchange, overlapped with ζ1 ----
	ca.overlapped(ca.advEx, ca.xi, ca.eta1, kernAdvect, ca.advRegion(2), topo.Sym(0, 1, 1))
	// ζ2, consumed only by the midpoint (ψ + ζ2)/2 that overwrites ζ1
	ca.update(kernAdvect, ca.eta1, ca.eta1, true, ca.advRegion(1))
	ca.update(kernAdvect, ca.eta1, ca.xi, false, owned) // ζ3

	// Ablation: plain smoothing at the end of the step (baseline style).
	if ca.cfg.NoFusedSmoothing {
		ca.plainSmooth()
	}

	ca.n.Steps++
	ca.publishCarry(!ca.cfg.NoFusedSmoothing)
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
	ca.overlapped(ca.smEx, ca.eta1, ca.xi, kernSmooth, owned, ca.smEx.ExchangeDepths())
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
