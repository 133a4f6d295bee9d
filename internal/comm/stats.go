package comm

import "slices"

// Category classifies communication for the paper's per-figure accounting:
// Figure 6 plots collective time (z summation + x Fourier filtering) and
// Figure 7 plots the neighbor-exchange time of the stencil computations.
type Category int

const (
	// CatOther is the default category.
	CatOther Category = iota
	// CatCollectiveZ is the vertical summation collective of Ĉ.
	CatCollectiveZ
	// CatCollectiveX is the distributed-FFT communication of F̃.
	CatCollectiveX
	// CatStencil is halo exchange for the stencil operators Â, L̃, S̃.
	CatStencil
	numCategories
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CatCollectiveZ:
		return "collective-z"
	case CatCollectiveX:
		return "collective-x"
	case CatStencil:
		return "stencil"
	default:
		return "other"
	}
}

// Categories lists all categories in display order.
func Categories() []Category {
	return []Category{CatCollectiveZ, CatCollectiveX, CatStencil, CatOther}
}

// Stats accumulates one rank's communication/computation accounting.
type Stats struct {
	// BytesSent and MsgsSent count outgoing point-to-point traffic
	// (collectives are built on point-to-point, so they are included).
	BytesSent int64
	MsgsSent  int64
	// BytesByCat / MsgsByCat break the same counters down by category.
	BytesByCat [numCategories]int64
	MsgsByCat  [numCategories]int64
	// Collectives counts collective operations entered.
	Collectives int64
	// CollByCat breaks Collectives down by category, so a z summation
	// (CatCollectiveZ), a filter transpose (CatCollectiveX) and an
	// uncategorized communicator split are distinguishable in post-run
	// accounting.
	CollByCat [numCategories]int64
	// CommTime is simulated seconds spent in communication per category
	// (send/receive overheads plus stall time waiting for messages).
	CommTime [numCategories]float64
	// HiddenTime is simulated seconds of message flight time that did NOT
	// stall this rank: for every received message, the part of
	// availAt−sentAt the receiver had already covered with its own work by
	// the time it drained the message. It measures overlap; it does not
	// advance the clock.
	HiddenTime [numCategories]float64
	// CompTime is simulated seconds of computation (Compute calls).
	CompTime float64
	// Clock is the rank's simulated time.
	Clock float64

	cat Category

	trace     *Recorder
	traceRank int
}

// TotalCommTime returns the sum of CommTime over all categories.
func (s *Stats) TotalCommTime() float64 {
	t := 0.0
	for _, v := range s.CommTime {
		t += v
	}
	return t
}

// addCommTime charges dt seconds of communication to the current category
// and advances the clock.
func (s *Stats) addCommTime(dt float64) {
	if s.trace != nil {
		s.trace.record(Event{Rank: s.traceRank, Kind: EvComm, Cat: s.cat, T0: s.Clock, T1: s.Clock + dt})
	}
	s.Clock += dt
	s.CommTime[s.cat] += dt
}

// addHiddenTime credits dt seconds of overlapped (hidden) flight time to the
// current category. The clock does not move: hidden time is by definition
// time the rank spent doing something else.
func (s *Stats) addHiddenTime(dt float64) {
	s.HiddenTime[s.cat] += dt
}

// countColl records entry into a collective operation under the current
// category.
func (s *Stats) countColl() {
	s.Collectives++
	s.CollByCat[s.cat]++
}

// countSend records an outgoing message of the given payload size.
func (s *Stats) countSend(bytes int) {
	s.BytesSent += int64(bytes)
	s.MsgsSent++
	s.BytesByCat[s.cat] += int64(bytes)
	s.MsgsByCat[s.cat]++
}

// Aggregate summarizes a whole world run: counter totals across ranks and
// critical-path (max over ranks) times.
type Aggregate struct {
	Ranks       int
	BytesSent   int64
	MsgsSent    int64
	Collectives int64
	// BytesByCat/MsgsByCat/CollByCat are summed over ranks.
	BytesByCat [numCategories]int64
	MsgsByCat  [numCategories]int64
	CollByCat  [numCategories]int64
	// CommTimeMax[cat] is the maximum over ranks of per-category simulated
	// communication time; CompTimeMax and SimTime likewise.
	CommTimeMax [numCategories]float64
	// HiddenTimeMax[cat] is the maximum over ranks of per-category hidden
	// (overlapped) flight time — seconds of communication the busiest rank
	// covered with its own compute instead of stalling.
	HiddenTimeMax [numCategories]float64
	CompTimeMax   float64
	SimTime       float64
	// RankClock and RankComp are the per-rank simulated clock and compute
	// seconds in rank order — the telemetry the load-rebalancing runtime
	// consumes. Under a straggler the clocks stay nearly uniform (peers
	// stall at collectives), so RankComp is the imbalance observable.
	RankClock []float64
	RankComp  []float64
}

// CommTime returns the critical-path communication time for a category.
func (a Aggregate) CommTime(cat Category) float64 { return a.CommTimeMax[cat] }

// TotalCommTime returns the summed critical-path communication time over
// categories (an upper estimate of total communication time).
func (a Aggregate) TotalCommTime() float64 {
	t := 0.0
	for _, v := range a.CommTimeMax {
		t += v
	}
	return t
}

// TotalHiddenTime returns the summed critical-path hidden time over
// categories.
func (a Aggregate) TotalHiddenTime() float64 {
	t := 0.0
	for _, v := range a.HiddenTimeMax {
		t += v
	}
	return t
}

// OverlapFraction returns hidden/(hidden+exposed) over all categories: the
// share of communication the critical-path ranks covered with compute. 0
// when no communication happened.
func (a Aggregate) OverlapFraction() float64 {
	h, e := a.TotalHiddenTime(), a.TotalCommTime()
	if h+e <= 0 {
		return 0
	}
	return h / (h + e)
}

// CollectiveTime returns the combined z- and x-collective time (Figure 6's
// quantity).
func (a Aggregate) CollectiveTime() float64 {
	return a.CommTimeMax[CatCollectiveZ] + a.CommTimeMax[CatCollectiveX]
}

// StencilTime returns the halo-exchange time (Figure 7's quantity).
func (a Aggregate) StencilTime() float64 { return a.CommTimeMax[CatStencil] }

// ExchangeBytes returns bytes sent as stencil halo exchange.
func (a Aggregate) ExchangeBytes() int64 { return a.BytesByCat[CatStencil] }

// ExchangeMsgs returns the number of stencil halo-exchange messages sent.
func (a Aggregate) ExchangeMsgs() int64 { return a.MsgsByCat[CatStencil] }

// CompImbalance returns the max/min ratio of per-rank compute time — 1 for a
// perfectly balanced run, 0 when the telemetry is absent or degenerate.
func (a Aggregate) CompImbalance() float64 {
	if len(a.RankComp) == 0 {
		return 0
	}
	least := slices.Min(a.RankComp)
	if least <= 0 {
		return 0
	}
	return slices.Max(a.RankComp) / least
}

// MergeAggregate folds a later execution segment b into the cumulative a:
// counters and times sum (segments run back to back), Ranks follows the
// latest segment. Per-rank telemetry sums elementwise when both segments ran
// the same rank count; a rank-count change (a migration to a different
// factorization) restarts it from the new segment.
func MergeAggregate(a, b Aggregate) Aggregate {
	if a.Ranks == 0 {
		return b
	}
	out := a
	out.Ranks = b.Ranks
	out.BytesSent += b.BytesSent
	out.MsgsSent += b.MsgsSent
	out.Collectives += b.Collectives
	for i := range out.BytesByCat {
		out.BytesByCat[i] += b.BytesByCat[i]
		out.MsgsByCat[i] += b.MsgsByCat[i]
		out.CollByCat[i] += b.CollByCat[i]
		out.CommTimeMax[i] += b.CommTimeMax[i]
		out.HiddenTimeMax[i] += b.HiddenTimeMax[i]
	}
	out.CompTimeMax += b.CompTimeMax
	out.SimTime += b.SimTime
	out.RankClock = mergeRankSeries(a.RankClock, b.RankClock)
	out.RankComp = mergeRankSeries(a.RankComp, b.RankComp)
	return out
}

// mergeRankSeries sums two per-rank series elementwise; mismatched lengths
// (a migration changed the rank count) keep only the newer one.
func mergeRankSeries(a, b []float64) []float64 {
	if len(a) != len(b) {
		if b == nil {
			return a
		}
		out := make([]float64, len(b))
		copy(out, b)
		return out
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

func aggregate(comms []*Comm) Aggregate {
	a := Aggregate{
		Ranks:     len(comms),
		RankClock: make([]float64, len(comms)),
		RankComp:  make([]float64, len(comms)),
	}
	for r, c := range comms {
		s := c.stats
		a.RankClock[r] = s.Clock
		a.RankComp[r] = s.CompTime
		a.BytesSent += s.BytesSent
		a.MsgsSent += s.MsgsSent
		a.Collectives += s.Collectives
		for i := 0; i < int(numCategories); i++ {
			a.BytesByCat[i] += s.BytesByCat[i]
			a.MsgsByCat[i] += s.MsgsByCat[i]
			a.CollByCat[i] += s.CollByCat[i]
			if s.CommTime[i] > a.CommTimeMax[i] {
				a.CommTimeMax[i] = s.CommTime[i]
			}
			if s.HiddenTime[i] > a.HiddenTimeMax[i] {
				a.HiddenTimeMax[i] = s.HiddenTime[i]
			}
		}
		if s.CompTime > a.CompTimeMax {
			a.CompTimeMax = s.CompTime
		}
		if s.Clock > a.SimTime {
			a.SimTime = s.Clock
		}
	}
	return a
}
