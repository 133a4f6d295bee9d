package dycore

import (
	"slices"

	"cadycore/internal/field"
	"cadycore/internal/operators"
	"cadycore/internal/stencil"
	"cadycore/internal/topo"
)

// A cover is one rank's plan of a step (DESIGN §8 "The cover"): the
// topology's halo widths, every exchanger's depths and the interior its
// overlapped update sweeps while messages fly, the compute rect of every
// update, the storage block of every array the integrator allocates and the
// band's read set. planCover derives all of it once, at construction.
type cover struct {
	hx, hy, hz int // the topology's halo widths

	// CA's deep exchange (its band ships S̃2's originals at the same
	// depths), staged refresh, advection and plain smoothing exchanges; the
	// baselines' stencil and smooth. fusedInner: deep's interior beside S̃2.
	deep, stage, adv, smooth, stencil exchange
	fusedInner                        field.Rect

	s1   field.Rect      // the rows the former smoothing S̃1 applies P2 to
	s2   []field.Rect    // the rows the latter smoothing S̃2 applies P2 to, one rect per run
	raw  []field.Rect    // the unsmoothed rows S̃2 reads, which it takes from ξ
	eta  [][3]field.Rect // η1…η3 of each adaptation iteration
	zeta [3]field.Rect   // ζ1…ζ3

	// ξ and the Ĉ cache, the work state, L̃'s planes, the tendency (the
	// baselines' whole one, CA's two levels) and S̃2's originals.
	xi, work, planes, tend, orig field.Block

	s2Reach topo.Depths // S̃2's reach past any block
	// smoothed reports whether S̃1 smooths row j: its owner holds the row's
	// five-row window, past a pole the mirror rows too.
	smoothed func(j int) bool
}

// exchange is one exchanger of a cover: the depths it ships, zero in a
// direction the block spans, and the interior its overlapped update sweeps
// while the messages fly (shrink).
type exchange struct {
	depths topo.Depths
	inner  field.Rect
}

// term is one rect a storage block holds: an update's rect (reach past the
// owned block, clamped to the domain) grown by fp, what its consumer reads
// around it (mirror ghosts past a pole or σ = 0/1), or an exchange's halo:
// the owned block grown by its depths, cut only where storage stops past a
// physical boundary (field.Block.Cut), as the mirror fills reach there.
type term struct {
	reach, fp topo.Depths
	halo      bool
}

// planCover walks one step of s back from the owned block of b through the
// stencil footprints of internal/stencil. An update's rect is its
// consumer's rect grown by the consumer's footprint, and an exchange ships
// what its consumers read, so the walk restarts at the owned block before
// each exchange. Rects are clamped to the domain, depths are dropped in a
// direction b spans (no peer lies there) and each array stores its terms
// within the topology's halo. The halo widths do not depend on b. rows is
// the topology's row partition (topo.Topology.RowWindow), which sets the
// rows S̃1 smooths and with them S̃2's rows and read set; the baselines take
// nil.
func planCover(s Setup, b field.Block, rows func(j int) (lo, hi int)) cover {
	adapt, advect, smooth := footprint(stencil.Adaptation), footprint(stencil.Advection), footprint(stencil.Smoothing)
	// L̃ stages its planes on its rect's rows and one past each side, and
	// the surface sweep before every tendency reads its source's p'_sa
	// around the tendency's rect (operators.Surface.UpdateFor).
	planes := topo.Depths{YLo: advect.YLo, YHi: advect.YHi}
	psa := topo.Depths{YLo: operators.PsaReach, YHi: operators.PsaReach}
	var cv cover
	var xi, work, pl, tend []term
	if s.Alg != AlgCommAvoid {
		// Every tendency is computed on the owned block behind one exchange,
		// which serves both processes' tables; the smoothing has its own.
		// The work state swaps with ξ, so it shares ξ's block.
		tables := footprint(slices.Concat(stencil.Adaptation, stencil.Advection))
		cv.stencil, cv.smooth = exchange{tables, shrink(b, tables)}, exchange{smooth, shrink(b, smooth)}
		xi = []term{{fp: tables}, {fp: psa}, {fp: smooth}, {reach: tables, halo: true}, {reach: smooth, halo: true}}
		work, pl, tend = xi, []term{{fp: planes}}, []term{{}}
	} else {
		cv.smoothed = func(j int) bool {
			lo, hi := rows(j)
			return (lo == 0 || j-smooth.YLo >= lo) && (hi == b.Ny || j+smooth.YHi < hi)
		}
		// Adaptation: one stage of S iterations, back from its last η3, which
		// writes the owned block for the exchange that follows. Every stage
		// repeats the first one's rects, a shorter last stage too.
		S := s.Cfg.StageDepth()
		stage := make([]topo.Depths, 3*S) // the reach of the stage's u-th update
		var r topo.Depths
		for u := 3 * S; u > 0; u-- {
			stage[u-1], r = r, plus(r, adapt)
		}
		// r is what the stage's first η1 reads of ψ: S̃2 completes it after
		// the deep exchange, which adds what S̃2 reads unless the smoothing is
		// not fused, and a refresh ships it. S̃1 smooths the owned rows whose
		// window is local; the fused interior keeps clear of the others,
		// which S̃2 rewrites.
		cv.s2Reach = r
		cv.s1, cv.s2 = shrink(b, smooth), cv.latter(b)
		cv.deep, cv.fusedInner = exchange{plus(r, smooth), shrink(b, adapt)}, shrink(b, plus(adapt, smooth))
		if s.Cfg.NoFusedSmoothing {
			cv.deep.depths = r
		}
		if s.Cfg.Staged() {
			cv.stage = exchange{r, shrink(b, adapt)}
		}
		// Advection: back from ζ3 on the owned block to the exchange before
		// ζ1. The plain smoothing (ablation and Finalize) reads its snapshot
		// of ξ behind its own exchange.
		zeta := [3]topo.Depths{plus(advect, advect), advect, {}}
		cv.adv, cv.smooth = exchange{plus(zeta[0], advect), shrink(b, advect)}, exchange{smooth, shrink(b, smooth)}

		// ψ = ξ: ζ3's owned block read by the next S̃1, the halos of the
		// exchanges that ship it, S̃2 read by η1, each η3 read by the next η1
		// or by ζ1, and the p'_sa rows those two read. The work state: S̃1's
		// output, the smoothing's snapshot, ζ1 and its midpoint, each η1 and
		// midpoint, and the p'_sa rows their consumers read.
		xi = []term{{fp: smooth}, {reach: cv.deep.depths, halo: true}, {reach: cv.stage.depths, halo: true},
			{reach: cv.adv.depths, halo: true}, {reach: r, fp: adapt}, {reach: zeta[0], fp: psa}}
		work = []term{{}, {reach: smooth, halo: true}, {reach: zeta[0], fp: advect}, {reach: zeta[1], fp: advect},
			{reach: zeta[1], fp: psa}, {reach: zeta[2], fp: psa}}
		for i := range s.Cfg.M {
			e := [3]topo.Depths(stage[3*(i%S):])
			next := adapt
			if i == s.Cfg.M-1 {
				next = advect // past the advection's exchange
			}
			cv.eta = append(cv.eta, [3]field.Rect{around(b, e[0]), around(b, e[1]), around(b, e[2])})
			xi = append(xi, term{reach: e[2], fp: next}, term{reach: e[0], fp: psa})
			work = append(work, term{reach: e[0], fp: adapt}, term{reach: e[1], fp: adapt},
				term{reach: e[1], fp: psa}, term{reach: e[2], fp: psa})
			tend = append(tend, term{reach: e[0]}, term{reach: e[1]}, term{reach: e[2]}) // streamed
		}
		for i, z := range zeta {
			cv.zeta[i] = around(b, z)
			tend, pl = append(tend, term{reach: z}), append(pl, term{reach: z, fp: planes})
		}
		// S̃2's originals store the rows S̃2 reads, on its levels; without a
		// y split S̃2 reads none and they keep the owned rows.
		s2 := around(b, r)
		cv.orig = b
		cv.orig.K0, cv.orig.K1, cv.orig.Hy, cv.orig.Hz = s2.K0, s2.K1, 0, 0
		if n := len(cv.s2); n > 0 {
			cv.orig.J0, cv.orig.J1 = max(cv.s2[0].J0-smooth.YLo, 0), min(cv.s2[n-1].J1+smooth.YHi, b.Ny)
		}
		o := cv.orig.Owned()
		cv.raw = runs(o, o.J0, o.J1, func(j int) bool { return !cv.smoothed(j) })
	}

	for _, e := range []*exchange{&cv.deep, &cv.stage, &cv.adv, &cv.smooth, &cv.stencil} {
		d := &e.depths
		cv.hx, cv.hy, cv.hz = max(cv.hx, d.X), max(cv.hy, d.YLo, d.YHi), max(cv.hz, d.ZLo, d.ZHi)
		if b.OwnsFullX() {
			d.X = 0
		}
		if b.J0 == 0 && b.J1 == b.Ny {
			d.YLo, d.YHi = 0, 0
		}
		if b.K0 == 0 && b.K1 == b.Nz {
			d.ZLo, d.ZHi = 0, 0
		}
	}
	store := func(terms []term) field.Block {
		st := b
		st.Hy, st.Hz = 0, 0
		for _, t := range terms {
			r := around(b, t.reach)
			if t.halo {
				r = b.Cut(grow(b.Owned(), t.reach))
			}
			r = grow(r, t.fp)
			st.Hy, st.Hz = max(st.Hy, b.J0-r.J0, r.J1-b.J1), max(st.Hz, b.K0-r.K0, r.K1-b.K1)
		}
		st.Hy, st.Hz = min(st.Hy, cv.hy), min(st.Hz, cv.hz)
		return st
	}
	cv.xi, cv.work, cv.planes, cv.tend = store(xi), store(work), store(pl), store(tend)
	return cv
}

// latter returns the rows of S̃2's rect on block b that their owner's S̃1
// leaves unsmoothed, which S̃2 smooths: one rect per maximal run, ascending,
// across the rect's x and z extent.
func (cv *cover) latter(b field.Block) []field.Rect {
	r := around(b, cv.s2Reach)
	return runs(r, r.J0, r.J1, func(j int) bool { return !cv.smoothed(j) })
}

// bandReads is the read set of the fused smoothing's band exchange: the rows
// S̃2 reads on block b that their owner's S̃1 smoothed, whose originals only
// the owner holds. The other rows S̃2 reads are unsmoothed, and arrive in
// the deep exchange. Every rank evaluates it for its peers' blocks, so a
// weighted layout's thin window still receives the far rows it reads.
func (cv *cover) bandReads(b field.Block) []field.Rect {
	sm, s2 := footprint(stencil.Smoothing), cv.latter(b)
	return runs(around(b, cv.s2Reach), 0, b.Ny, func(j int) bool {
		return cv.smoothed(j) && slices.ContainsFunc(s2, func(r field.Rect) bool { return r.J0-sm.YHi <= j && j < r.J1+sm.YLo })
	})
}

// runs returns the rows j in [lo, hi) with keep(j) as one rect per maximal
// run, ascending, across r's x and z extent.
func runs(r field.Rect, lo, hi int, keep func(j int) bool) []field.Rect {
	var out []field.Rect
	for j := lo; j < hi; j++ {
		switch n := len(out); {
		case !keep(j):
		case n > 0 && out[n-1].J1 == j:
			out[n-1].J1++
		default:
			run := r
			run.J0, run.J1 = j, j+1
			out = append(out, run)
		}
	}
	return out
}

// footprint returns a stencil table's read footprint as per-side depths; x
// is symmetric (longitude is periodic).
func footprint(terms []stencil.Term) topo.Depths {
	r := stencil.ReachOf(terms)
	return topo.Depths{X: max(r.Lo.X, r.Hi.X), YLo: r.Lo.Y, YHi: r.Hi.Y, ZLo: r.Lo.Z, ZHi: r.Hi.Z}
}

// plus chains two reaches. y and z add up update by update; x does not:
// every write refills the x ghosts sourced in it (periodic copy, or the next
// exchange under an x split), so an x reach is one footprint's.
func plus(a, b topo.Depths) topo.Depths {
	return topo.Depths{X: max(a.X, b.X), YLo: a.YLo + b.YLo, YHi: a.YHi + b.YHi, ZLo: a.ZLo + b.ZLo, ZHi: a.ZHi + b.ZHi}
}

// around returns b's owned block grown by d in y and z, clamped to the
// domain. Compute never extends in x: x ghosts are copies or received.
func around(b field.Block, d topo.Depths) field.Rect {
	r := grow(b.Owned(), d)
	r.J0, r.J1, r.K0, r.K1 = max(r.J0, 0), min(r.J1, b.Ny), max(r.K0, 0), min(r.K1, b.Nz)
	return r
}

// shrink returns b's owned block less d on each side fed by communication:
// both x sides unless b owns full circles (longitude is periodic), and the y
// and z sides off the domain's boundary, whose mirror ghosts stay valid while
// messages fly.
func shrink(b field.Block, d topo.Depths) field.Rect {
	r := b.Owned()
	if !b.OwnsFullX() {
		r.I0, r.I1 = r.I0+d.X, r.I1-d.X
	}
	if r.J0 != 0 {
		r.J0 += d.YLo
	}
	if r.J1 != b.Ny {
		r.J1 -= d.YHi
	}
	if r.K0 != 0 {
		r.K0 += d.ZLo
	}
	if r.K1 != b.Nz {
		r.K1 -= d.ZHi
	}
	return r
}

// grow returns r grown by d in y and z, unclamped.
func grow(r field.Rect, d topo.Depths) field.Rect {
	r.J0, r.J1, r.K0, r.K1 = r.J0-d.YLo, r.J1+d.YHi, r.K0-d.ZLo, r.K1+d.ZHi
	return r
}
