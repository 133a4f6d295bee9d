package topo

import (
	"fmt"

	"cadycore/internal/comm"
	"cadycore/internal/field"
)

// Exchanger fills halo cells of depth (dx, dy, dz) by neighbor communication.
// Construction precomputes, for every peer rank, the exact rectangles to send
// (out of this rank's owned region) and to receive (into this rank's halo),
// honoring longitude periodicity. Halo cells outside the global domain in y
// and z are NOT communicated — they are boundary cells filled locally by the
// pole/vertical mirrors (field.FillPolesY, field.FillVerticalZ).
//
// One exchange sends one message per (peer, field), matching how the
// original MPI dycore posts one MPI_Isend per variable per neighbor (the
// paper counts ≈20 point-to-point operations per communication because ξ has
// ten components).
type Exchanger struct {
	t  *Topology
	d  Depths
	f3 traffic // F3 exchange partners, sorted by rank
	f2 traffic // F2 exchange partners (horizontal footprint, same Cz)

	// The exchange in flight: at most one per Exchanger (Begin … Finish),
	// which integrators satisfy by construction and Begin enforces. Its
	// messages are loans of the fields' own storage, settled in Finish.
	busy   bool
	loans  comm.Loans
	levels []*field.F3 // the 2-D fields' levels
	pend   Pending

	stats ExchStats
}

// ExchStats is one Exchanger's overlap accounting: how many rounds it ran
// and how much of its communication time the owning rank exposed (stalled
// for) vs. hid behind compute issued between Begin and Finish. Seconds are
// simulated (LogP) time.
type ExchStats struct {
	Label            string
	Begins, Finishes int64
	// ExposedSec is communication time charged to the rank's clock inside
	// this exchanger's Begin and Finish calls (send overheads + residual
	// waits). HiddenSec is message flight time that was already covered by
	// the rank's own work when Finish drained the receives.
	ExposedSec float64
	HiddenSec  float64
}

// peer describes the traffic with one neighboring rank. sendRects are in
// this rank's real coordinates; recvRects are in this rank's extended halo
// coordinates (x may be < 0 or ≥ Nx). Rect lists of the two sides pair up
// because both are derived from the same (owner block, halo block) pair in
// the same enumeration order.
type peer struct {
	rank      int
	sendRects []field.Rect
	recvRects []field.Rect
}

// traffic is the exchange pattern of one field dimension: its peers, and the
// run lists of every storage layout exchanged so far.
type traffic struct {
	peers   []peer
	layouts []layout
}

// layout holds, for one storage region (F3.B.WithHalo()), the runs of the
// field's Data that each peer's rects cover, indexed like the peers: what
// this rank lends and what it receives into. A rect is walked row by row in
// (k, j) order, so the run lists of the two sides pair up like the rects.
type layout struct {
	stored     field.Rect
	send, recv [][]comm.Run
}

// runsOf returns the run lists of f's storage layout, building them on the
// layout's first exchange.
func (tr *traffic) runsOf(f *field.F3) *layout {
	stored := f.B.WithHalo()
	for i := range tr.layouts {
		if tr.layouts[i].stored == stored {
			return &tr.layouts[i]
		}
	}
	l := layout{stored: stored, send: make([][]comm.Run, len(tr.peers)), recv: make([][]comm.Run, len(tr.peers))}
	for i, pr := range tr.peers {
		l.send[i], l.recv[i] = rectRuns(f, pr.sendRects), rectRuns(f, pr.recvRects)
	}
	tr.layouts = append(tr.layouts, l)
	return &tr.layouts[len(tr.layouts)-1]
}

// rectRuns returns the runs of f.Data holding the rects' cells in row-major
// (k, j, i) order, rect after rect, merging rows that are adjacent in storage.
func rectRuns(f *field.F3, rects []field.Rect) []comm.Run {
	var runs []comm.Run
	for _, rc := range rects {
		for k := rc.K0; k < rc.K1; k++ {
			for j := rc.J0; j < rc.J1; j++ {
				off, n := f.Index(rc.I0, j, k), rc.I1-rc.I0
				if last := len(runs) - 1; last >= 0 && runs[last].Off+runs[last].Len == off {
					runs[last].Len += n
				} else {
					runs = append(runs, comm.Run{Off: off, Len: n})
				}
			}
		}
	}
	return runs
}

// Depths gives the halo depth per direction and side. Asymmetric depths
// matter because the adaptation stencils of the paper's Table 1 are
// one-sided in z (they read k and k+1, never k−1), so the deep halo of the
// communication-avoiding algorithm only extends toward higher k.
type Depths struct {
	X        int // symmetric (longitude is periodic and symmetric)
	YLo, YHi int
	ZLo, ZHi int
}

// Sym returns symmetric depths.
func Sym(dx, dy, dz int) Depths {
	return Depths{X: dx, YLo: dy, YHi: dy, ZLo: dz, ZHi: dz}
}

// NewExchanger precomputes an exchange of the given symmetric depths.
// Every rectangle the exchange would unpack must lie inside the block's
// stored region (field.Block.WithHalo); construction panics otherwise, so a
// too-deep exchange is refused when the integrator is built. A zero depth in a
// direction disables communication in that direction (e.g. dx = 0 under the
// Y-Z decomposition, where x halos are filled by local periodic copy).
func (t *Topology) NewExchanger(dx, dy, dz int) *Exchanger {
	return t.newExchanger(Sym(dx, dy, dz), nil)
}

// NewExchangerD is NewExchanger with per-side depths.
func (t *Topology) NewExchangerD(d Depths) *Exchanger {
	return t.newExchanger(d, nil)
}

// ReadSet returns the cells a rank with block b reads out of its halo, as
// disjoint rects of b's (periodically extended) coordinates. Every rank
// evaluates it for its peers' blocks too, so it must depend on b alone.
type ReadSet func(b field.Block) []field.Rect

// NewReadExchanger is NewExchangerD restricted to the receivers' read sets:
// a rank ships a peer only the halo cells that lie in reads(peer's block).
// It implements the "yellow bar" traffic of the fused smoothing (Section
// 4.3.2): the original (pre-smoothing) edge rows a neighbor reads to
// complete the latter smoothing S̃2, without shipping whole fields.
func (t *Topology) NewReadExchanger(d Depths, reads ReadSet) *Exchanger {
	return t.newExchanger(d, reads)
}

func (t *Topology) newExchanger(d Depths, reads ReadSet) *Exchanger {
	e := &Exchanger{t: t, d: d}
	e.f3.peers = t.walkPeers(d, reads, false)
	// 2-D fields: horizontal traffic among ranks of the same Cz plane.
	e.f2.peers = t.walkPeers(d, reads, true)
	e.mustFitStorage(e.f3.peers, t.Block.WithHalo())
	e.mustFitStorage(e.f2.peers, t.Block.WithHalo().Flat2D())
	return e
}

// walkPeers computes the exchange partners of this rank in ascending rank
// order: for every x shift of the periodic domain, the owned data that lies
// in the other rank's halo, and the other rank's owned data that lies in
// this rank's halo, each restricted to the receiver's read set when there is
// one. With flat it is the 2-D (surface field) exchange: the same horizontal
// intersections on flattened rects, among the ranks sharing this rank's Cz
// (its K range).
func (t *Topology) walkPeers(d Depths, reads ReadSet, flat bool) []peer {
	b := t.Block
	view := func(r field.Rect) field.Rect { return r }
	if flat {
		d.ZLo, d.ZHi = 0, 0
		view = field.Rect.Flat2D
	}
	myOwned, myHalo := view(b.Owned()), view(haloRect(b, d))
	myReads := readRects(reads, b, myHalo, view)
	var peers []peer
	for r := 0; r < t.World.Size(); r++ {
		rb := t.BlockOf(r)
		if r == t.World.Rank() || flat && rb.K0 != b.K0 {
			continue
		}
		rOwned, rHalo := view(rb.Owned()), view(haloRect(rb, d))
		rReads := readRects(reads, rb, rHalo, view)
		pr := peer{rank: r}
		for _, s := range xShifts(t.G.Nx, d.X) {
			// What I send to r: my owned data that lies in what r reads of
			// its halo when my coordinates are shifted by s.
			for _, rd := range rReads {
				if inter := shiftX(myOwned, s).Intersect(rd); !inter.Empty() {
					pr.sendRects = append(pr.sendRects, shiftX(inter, -s)) // back to my real coords
				}
			}
			// What I receive from r: r's owned data lying in what I read of
			// my halo when r's coordinates are shifted by s.
			for _, rd := range myReads {
				if inter := shiftX(rOwned, s).Intersect(rd); !inter.Empty() {
					pr.recvRects = append(pr.recvRects, inter) // my extended coords
				}
			}
		}
		if len(pr.sendRects) > 0 || len(pr.recvRects) > 0 {
			peers = append(peers, pr)
		}
	}
	return peers
}

// readRects returns the parts of a receiver's halo rect it reads: the halo
// itself without a read set, else each read rect (in view) cut to it.
func readRects(reads ReadSet, b field.Block, halo field.Rect, view func(field.Rect) field.Rect) []field.Rect {
	if reads == nil {
		return []field.Rect{halo}
	}
	var out []field.Rect
	for _, rd := range reads(b) {
		if inter := view(rd).Intersect(halo); !inter.Empty() {
			out = append(out, inter)
		}
	}
	return out
}

// mustFitStorage panics unless every rectangle the exchange packs from or
// unpacks into lies inside the block's stored region. Storage is cut at the
// poles and the model top/bottom (field.Block.WithHalo), so this — not a
// comparison of depths with the requested halo widths — is what says whether
// Finish can address what it receives.
func (e *Exchanger) mustFitStorage(peers []peer, stored field.Rect) {
	for _, pr := range peers {
		for _, rects := range [2][]field.Rect{pr.sendRects, pr.recvRects} {
			for _, rc := range rects {
				if rc.Intersect(stored) != rc {
					panic(fmt.Sprintf("topo: exchange depths %+v reach %v (peer rank %d), outside the stored region %v of block %+v",
						e.d, rc, pr.rank, stored, e.t.Block))
				}
			}
		}
	}
}

// haloRect returns the halo region of the given per-side depths around b's
// owned region, clamped to the global domain in y and z (pole and vertical
// ghost cells are boundary-filled, not communicated) but unclamped in the
// periodic x direction.
func haloRect(b field.Block, d Depths) field.Rect {
	return field.Rect{
		I0: b.I0 - d.X, I1: b.I1 + d.X,
		J0: max(b.J0-d.YLo, 0), J1: min(b.J1+d.YHi, b.Ny),
		K0: max(b.K0-d.ZLo, 0), K1: min(b.K1+d.ZHi, b.Nz),
	}
}

// xShifts returns the periodic image shifts to consider. Without x
// decomposition depth there is no x traffic and only the identity shift
// matters.
func xShifts(nx, dx int) []int {
	if dx == 0 {
		return []int{0}
	}
	return []int{-nx, 0, nx}
}

func shiftX(r field.Rect, s int) field.Rect {
	r.I0 += s
	r.I1 += s
	return r
}

// Pending tracks an exchange whose sends have been posted but whose receives
// have not been drained, enabling computation/communication overlap
// (Section 4.3.1: compute the inner part between Begin and Finish).
type Pending struct {
	e   *Exchanger
	f3s []*field.F3
	f2s []*field.F3 // the 2-D fields' levels
}

// SetLabel names the exchanger for per-exchanger overlap accounting and
// returns the receiver (so construction chains).
func (e *Exchanger) SetLabel(label string) *Exchanger {
	e.stats.Label = label
	return e
}

// Stats returns a snapshot of the exchanger's overlap accounting.
func (e *Exchanger) Stats() ExchStats { return e.stats }

// Begin posts all sends of one halo exchange: for every peer, one message
// per 3-D field (tag = field index) and one per 2-D field, each a loan of the
// field's cells in the peer's send rects, in rect order. A 2-D field travels
// as its one level on the f2 rects (flattened at construction), since its
// peers are those of its z plane.
//
// The contract of a loan: between Begin and the return of Finish the rank
// must not write the owned cells it sends (the edge cells within the
// exchange depths of its block); peers copy them straight out of its fields.
// Cells no peer reads — the inner rect an overlapped sweep writes — and the
// halo cells are free. A second Begin before Finish panics.
func (e *Exchanger) Begin(f3s []*field.F3, f2s []*field.F2) *Pending {
	if e.busy {
		panic(fmt.Sprintf("topo: Begin on exchanger %q with an exchange already in flight", e.stats.Label))
	}
	e.busy = true
	c := e.t.World
	prev := c.SetCategory(comm.CatStencil)
	defer c.SetCategory(prev)
	t0 := c.Stats().CommTime[comm.CatStencil]
	e.levels = e.levels[:0]
	for _, f := range f2s {
		e.levels = append(e.levels, &f.F3)
	}
	e.lend(&e.f3, f3s, tagF3Base)
	e.lend(&e.f2, e.levels, tagF2Base)
	e.stats.Begins++
	e.stats.ExposedSec += c.Stats().CommTime[comm.CatStencil] - t0
	e.pend = Pending{e: e, f3s: f3s, f2s: e.levels}
	return &e.pend
}

// lend sends each peer one message per field: a loan of the field's cells in
// the peer's send rects.
func (e *Exchanger) lend(tr *traffic, fs []*field.F3, tagBase int) {
	for i, pr := range tr.peers {
		for fi, f := range fs {
			if runs := tr.runsOf(f).send[i]; runs != nil {
				e.t.World.Lend(pr.rank, tagBase+fi, f.Data, runs, &e.loans)
			}
		}
	}
}

// Finish receives every message of the exchange straight into the halo
// cells, then waits until the peers have copied out everything this rank
// lent, so its sent cells are writable again when Finish returns.
func (p *Pending) Finish() {
	e := p.e
	c := e.t.World
	prev := c.SetCategory(comm.CatStencil)
	defer c.SetCategory(prev)
	s0 := c.Stats()
	t0, h0 := s0.CommTime[comm.CatStencil], s0.HiddenTime[comm.CatStencil]
	e.receive(&e.f3, p.f3s, tagF3Base)
	e.receive(&e.f2, p.f2s, tagF2Base)
	e.loans.Wait()
	e.busy = false
	s1 := c.Stats()
	e.stats.Finishes++
	e.stats.ExposedSec += s1.CommTime[comm.CatStencil] - t0
	e.stats.HiddenSec += s1.HiddenTime[comm.CatStencil] - h0
}

// receive copies each peer's message per field into the peer's recv rects.
func (e *Exchanger) receive(tr *traffic, fs []*field.F3, tagBase int) {
	for i, pr := range tr.peers {
		for fi, f := range fs {
			if runs := tr.runsOf(f).recv[i]; runs != nil {
				e.t.World.RecvRuns(pr.rank, tagBase+fi, f.Data, runs)
			}
		}
	}
}

// Exchange performs a full blocking halo exchange of the given fields.
func (e *Exchanger) Exchange(f3s []*field.F3, f2s []*field.F2) {
	e.Begin(f3s, f2s).Finish()
}

// Tags: the exchanger owns the tag ranges [tagF3Base, …) and [tagF2Base, …).
// Exchanges are issued in identical program order on all ranks and messages
// between one (src, dst, tag) pair are FIFO, so reusing tags across
// exchanges is safe.
const (
	tagF3Base = 1 << 20
	tagF2Base = 1 << 21
)

// Halo returns the halo the exchange fills around the rank's owned block:
// clamped to the domain in y and z, periodic in x.
func (e *Exchanger) Halo() field.Rect { return haloRect(e.t.Block, e.d) }

// ExchangeDepths returns the exchange depths.
func (e *Exchanger) ExchangeDepths() Depths { return e.d }
