package topo

import (
	"fmt"
	"sort"

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
	t        *Topology
	d        Depths
	bandY    int    // >0: restrict traffic to the sender's y-edge bands
	peers    []peer // F3 exchange partners, sorted by rank
	peers2   []peer // F2 exchange partners (horizontal footprint, same Cz)
	maxCount int    // largest single-field message length (for buffers)

	// Persistent pack/unpack buffers and Pending, so steady-state exchanges
	// allocate nothing. At most one exchange may be outstanding per
	// Exchanger (Begin … Finish); integrators satisfy this by construction.
	sendBuf, recvBuf []float64
	pend             Pending

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
	sendN     int
	recvN     int
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
	return t.newExchanger(Sym(dx, dy, dz), 0)
}

// NewExchangerD is NewExchanger with per-side depths.
func (t *Topology) NewExchangerD(d Depths) *Exchanger {
	return t.newExchanger(d, 0)
}

// NewBandExchangerY is NewExchanger restricted to the sender's y-edge bands:
// only rows within `band` of the sending rank's y-block edges are
// transferred. It implements the "yellow bar" traffic of the fused smoothing
// (Section 4.3.2): the original (pre-smoothing) edge rows each neighbor
// needs to complete the later smoothing S̃2, without shipping whole fields.
func (t *Topology) NewBandExchangerY(d Depths, band int) *Exchanger {
	return t.newExchanger(d, band)
}

func (t *Topology) newExchanger(d Depths, bandY int) *Exchanger {
	b := t.Block
	e := &Exchanger{t: t, d: d, bandY: bandY}

	myHalo := haloRect(b, d)
	myOwned := b.Owned()
	p := t.World.Size()
	type traffic struct {
		send, recv []field.Rect
	}
	m := make(map[int]*traffic)
	get := func(r int) *traffic {
		tr := m[r]
		if tr == nil {
			tr = &traffic{}
			m[r] = tr
		}
		return tr
	}

	for r := 0; r < p; r++ {
		if r == t.World.Rank() {
			continue
		}
		rb := t.BlockOf(r)
		rHalo := haloRect(rb, d)
		rOwned := rb.Owned()
		for _, s := range xShifts(t.G.Nx, d.X) {
			// What I send to r: my owned data that lies in r's halo when my
			// coordinates are shifted by s (restricted to my y-edge bands in
			// band mode).
			for _, mine := range bandRestrict(myOwned, t.Block, bandY) {
				if inter := shiftX(mine, s).Intersect(rHalo); !inter.Empty() {
					tr := get(r)
					tr.send = append(tr.send, shiftX(inter, -s)) // back to my real coords
				}
			}
			// What I receive from r: r's owned data lying in my halo when
			// r's coordinates are shifted by s (restricted to r's bands).
			for _, theirs := range bandRestrict(rOwned, rb, bandY) {
				if inter := shiftX(theirs, s).Intersect(myHalo); !inter.Empty() {
					tr := get(r)
					tr.recv = append(tr.recv, inter) // my extended coords
				}
			}
		}
	}

	ranks := make([]int, 0, len(m))
	for r := range m {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		tr := m[r]
		pr := peer{rank: r, sendRects: tr.send, recvRects: tr.recv}
		for _, rc := range tr.send {
			pr.sendN += rc.Count()
		}
		for _, rc := range tr.recv {
			pr.recvN += rc.Count()
		}
		if pr.sendN > e.maxCount {
			e.maxCount = pr.sendN
		}
		if pr.recvN > e.maxCount {
			e.maxCount = pr.recvN
		}
		e.peers = append(e.peers, pr)
	}

	// 2-D fields: horizontal traffic among ranks of the same Cz plane.
	e.peers2 = e.buildPeers2(d, bandY)
	e.mustFitStorage(e.peers, b.WithHalo())
	e.mustFitStorage(e.peers2, b.WithHalo().Flat2D())
	return e
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

// buildPeers2 computes the 2-D (surface field) exchange partners: the same
// horizontal intersections restricted to ranks sharing this rank's Cz.
func (e *Exchanger) buildPeers2(d Depths, bandY int) []peer {
	t := e.t
	b := t.Block
	d.ZLo, d.ZHi = 0, 0
	myOwned := b.Owned().Flat2D()
	myHalo := haloRect(b, d).Flat2D()
	var peers []peer
	for cy := 0; cy < t.Py; cy++ {
		for cx := 0; cx < t.Px; cx++ {
			r := t.RankAt(cx, cy, t.Cz)
			if r == t.World.Rank() {
				continue
			}
			rb := t.BlockOf(r)
			rOwned := rb.Owned().Flat2D()
			rHalo := haloRect(rb, d).Flat2D()
			var pr peer
			pr.rank = r
			for _, s := range xShifts(t.G.Nx, d.X) {
				for _, mine := range bandRestrict(myOwned, b, bandY) {
					if inter := shiftX(mine, s).Intersect(rHalo); !inter.Empty() {
						pr.sendRects = append(pr.sendRects, shiftX(inter, -s))
						pr.sendN += inter.Count()
					}
				}
				for _, theirs := range bandRestrict(rOwned, rb, bandY) {
					if inter := shiftX(theirs, s).Intersect(myHalo); !inter.Empty() {
						pr.recvRects = append(pr.recvRects, inter)
						pr.recvN += inter.Count()
					}
				}
			}
			if len(pr.sendRects) > 0 || len(pr.recvRects) > 0 {
				peers = append(peers, pr)
			}
		}
	}
	sort.Slice(peers, func(a, b int) bool { return peers[a].rank < peers[b].rank })
	return peers
}

// bandRestrict returns the owner's rect restricted to its y-edge bands of
// the given width (two sub-rects in fixed low-then-high order), merging them
// when they overlap; band = 0 means no restriction.
func bandRestrict(owned field.Rect, b field.Block, band int) []field.Rect {
	if band <= 0 {
		return []field.Rect{owned}
	}
	if 2*band >= b.J1-b.J0 {
		return []field.Rect{owned} // bands cover the whole block
	}
	lo := owned
	lo.J1 = minInt2(lo.J1, b.J0+band)
	hi := owned
	hi.J0 = maxInt2(hi.J0, b.J1-band)
	out := make([]field.Rect, 0, 2)
	if !lo.Empty() {
		out = append(out, lo)
	}
	if !hi.Empty() {
		out = append(out, hi)
	}
	return out
}

func minInt2(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt2(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// haloRect returns the halo region of the given per-side depths around b's
// owned region, clamped to the global domain in y and z (pole and vertical
// ghost cells are boundary-filled, not communicated) but unclamped in the
// periodic x direction.
func haloRect(b field.Block, d Depths) field.Rect {
	r := field.Rect{
		I0: b.I0 - d.X, I1: b.I1 + d.X,
		J0: b.J0 - d.YLo, J1: b.J1 + d.YHi,
		K0: b.K0 - d.ZLo, K1: b.K1 + d.ZHi,
	}
	if r.J0 < 0 {
		r.J0 = 0
	}
	if r.J1 > b.Ny {
		r.J1 = b.Ny
	}
	if r.K0 < 0 {
		r.K0 = 0
	}
	if r.K1 > b.Nz {
		r.K1 = b.Nz
	}
	return r
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
	f2s []*field.F2
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
// per 3-D field (tag = field index) and one per 2-D field. Payloads for
// multiple rectangles to the same peer are concatenated in rect order.
func (e *Exchanger) Begin(f3s []*field.F3, f2s []*field.F2) *Pending {
	c := e.t.World
	prev := c.SetCategory(comm.CatStencil)
	defer c.SetCategory(prev)
	t0 := c.Stats().CommTime[comm.CatStencil]
	if len(e.sendBuf) < e.maxCount {
		//cadyvet:allow first-exchange lazy buffer growth; steady-state exchanges reuse the buffer (0 allocs/op pinned by the dycore alloc benchmark)
		e.sendBuf = make([]float64, e.maxCount)
	}
	buf := e.sendBuf
	for _, pr := range e.peers {
		for fi, f := range f3s {
			n := 0
			for _, rc := range pr.sendRects {
				n += f.Pack(rc, buf[n:])
			}
			if n > 0 {
				c.Isend(pr.rank, tagF3Base+fi, buf[:n])
			}
		}
	}
	for _, pr := range e.peers2 {
		for fi, f := range f2s {
			n := 0
			for _, rc := range pr.sendRects {
				n += f.Pack(rc, buf[n:])
			}
			if n > 0 {
				c.Isend(pr.rank, tagF2Base+fi, buf[:n])
			}
		}
	}
	e.stats.Begins++
	e.stats.ExposedSec += c.Stats().CommTime[comm.CatStencil] - t0
	e.pend = Pending{e: e, f3s: f3s, f2s: f2s}
	return &e.pend
}

// Finish drains all receives of the exchange and unpacks them into the halo
// regions.
func (p *Pending) Finish() {
	e := p.e
	c := e.t.World
	prev := c.SetCategory(comm.CatStencil)
	defer c.SetCategory(prev)
	s0 := c.Stats()
	t0, h0 := s0.CommTime[comm.CatStencil], s0.HiddenTime[comm.CatStencil]
	if len(e.recvBuf) < e.maxCount {
		//cadyvet:allow first-exchange lazy buffer growth; steady-state exchanges reuse the buffer (0 allocs/op pinned by the dycore alloc benchmark)
		e.recvBuf = make([]float64, e.maxCount)
	}
	buf := e.recvBuf
	for _, pr := range e.peers {
		for fi, f := range p.f3s {
			if pr.recvN == 0 {
				continue
			}
			c.RecvInto(pr.rank, tagF3Base+fi, buf[:pr.recvN])
			n := 0
			for _, rc := range pr.recvRects {
				n += f.Unpack(rc, buf[n:])
			}
		}
	}
	for _, pr := range e.peers2 {
		for fi, f := range p.f2s {
			if pr.recvN == 0 {
				continue
			}
			c.RecvInto(pr.rank, tagF2Base+fi, buf[:pr.recvN])
			n := 0
			for _, rc := range pr.recvRects {
				n += f.Unpack(rc, buf[n:])
			}
		}
	}
	s1 := c.Stats()
	e.stats.Finishes++
	e.stats.ExposedSec += s1.CommTime[comm.CatStencil] - t0
	e.stats.HiddenSec += s1.HiddenTime[comm.CatStencil] - h0
}

// Exchange performs a full blocking halo exchange of the given fields.
func (e *Exchanger) Exchange(f3s []*field.F3, f2s []*field.F2) {
	//cadyvet:quiesce Exchange is the deliberately blocking convenience form for bootstrap fills and quiesced reference paths
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

// ExchangeDepths returns the exchange depths.
func (e *Exchanger) ExchangeDepths() Depths { return e.d }

// PeerCount returns the number of ranks this rank exchanges 3-D halos with
// (the paper's "eight neighbors" in the decomposed plane, for shallow
// depths).
func (e *Exchanger) PeerCount() int { return len(e.peers) }
