package comm

import (
	"fmt"
	"sync"
)

// World owns the mailboxes and statistics of a set of ranks. Create one with
// NewWorld, then call Run, which spawns one goroutine per rank.
type World struct {
	size   int
	model  NetModel
	eps    []*endpoint
	comms  []*Comm
	faults *Faults // nil = fault-free (the default); see SetFaults
}

// NewWorld creates a world of p ranks with the given cost model.
func NewWorld(p int, model NetModel) *World {
	if p <= 0 {
		panic(fmt.Sprintf("comm: world size %d must be positive", p))
	}
	if model.ComputeRate <= 0 {
		model.ComputeRate = 1
	}
	w := &World{size: p, model: model}
	w.eps = make([]*endpoint, p)
	w.comms = make([]*Comm, p)
	for r := 0; r < p; r++ {
		w.eps[r] = newEndpoint()
		w.comms[r] = &Comm{
			world: w,
			id:    worldCommID,
			group: nil, // nil group means identity mapping
			rank:  r,
			size:  p,
			stats: &Stats{},
		}
	}
	return w
}

// Run executes fn on every rank concurrently and returns when all ranks have
// finished. A panic on any rank is re-raised on the caller as a RankPanic
// (preserving the original value) after the other ranks have been given the
// chance to finish or deadlock-free ranks have drained; to keep failures
// debuggable the first panic wins, except that an injected-fault panic (a
// value with an InjectedFault method, such as dycore.RankFailure) displaces
// the receive-poison panics it cascades into.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstPanic any
	var firstInjected bool
	wg.Add(w.size)
	for r := 0; r < w.size; r++ {
		go func(c *Comm) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					_, injected := p.(injectedFault)
					mu.Lock()
					if firstPanic == nil || (injected && !firstInjected) {
						firstPanic = RankPanic{Rank: c.rank, Val: p}
						firstInjected = injected
					}
					mu.Unlock()
					// Unblock peers that may be waiting on this rank.
					w.poison()
				}
			}()
			fn(c)
		}(w.comms[r])
	}
	wg.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// poison wakes every endpoint with a failure marker so ranks blocked in a
// receive or a Loans.Wait panic instead of deadlocking after a peer died.
func (w *World) poison() {
	for _, ep := range w.eps {
		ep.poison()
	}
}

// Stats returns a snapshot aggregate of all ranks' statistics: per-category
// simulated communication time is the maximum over ranks (critical-path
// estimate), counters are summed, and SimTime is the maximum clock.
func (w *World) Stats() Aggregate {
	return aggregate(w.comms)
}

// Comm is one rank's handle on a communicator. The world communicator spans
// all ranks; Split derives sub-communicators. A Comm is confined to its
// rank's goroutine (it is not safe for concurrent use, matching MPI).
type Comm struct {
	world *World
	id    uint64
	group []int // group[i] = world rank of communicator rank i; nil = identity
	rank  int   // rank within this communicator
	size  int
	stats *Stats

	splitSeq uint64 // per-communicator split counter (same on all members)
	lent     Loans  // the collectives' loans, settled before each returns
}

const worldCommID uint64 = 1

// Rank returns this rank's index within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the communicator size.
func (c *Comm) Size() int { return c.size }

// worldRank translates a communicator rank to a world rank.
func (c *Comm) worldRank(r int) int {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("comm: rank %d outside communicator of size %d", r, c.size))
	}
	if c.group == nil {
		return r
	}
	return c.group[r]
}

// Compute advances this rank's simulated clock by work/ComputeRate and
// accounts it as computation time. work is measured in point-updates (one
// stencil update of one mesh point ≈ 1).
func (c *Comm) Compute(work float64) {
	dt := work / c.world.model.ComputeRate
	if f := c.world.faults; f != nil {
		// Straggler injection: scale the rank's effective compute rate.
		// (Scale 1 is a bitwise no-op, so an inert profile changes nothing.)
		dt *= f.computeScale(c.worldRank(c.rank))
	}
	if c.stats.trace != nil {
		c.stats.trace.record(Event{Rank: c.stats.traceRank, Kind: EvCompute, T0: c.stats.Clock, T1: c.stats.Clock + dt})
	}
	c.stats.Clock += dt
	c.stats.CompTime += dt
}

// Clock returns the rank's current simulated time.
func (c *Comm) Clock() float64 { return c.stats.Clock }

// CompTime returns the rank's accumulated simulated compute seconds (Compute
// calls since the last ResetStats). Unlike Clock it excludes communication
// stalls, so comparing it across ranks isolates compute imbalance — the
// signal a straggler leaves even when collectives keep the clocks in step.
func (c *Comm) CompTime() float64 { return c.stats.CompTime }

// Stats returns a snapshot of this rank's statistics.
func (c *Comm) Stats() Stats { return *c.stats }

// ResetStats zeroes this rank's counters and simulated clock (the current
// accounting category is preserved). Drivers call it after topology setup so
// one-time initialization collectives (communicator splits, bootstrap
// exchanges) are not billed to the measured run.
func (c *Comm) ResetStats() {
	cat := c.stats.cat
	tr, trank := c.stats.trace, c.stats.traceRank
	*c.stats = Stats{cat: cat, trace: tr, traceRank: trank}
	if tr != nil {
		tr.perRank[trank] = nil // drop pre-reset events (setup phase)
	}
}

// SetCategory sets the accounting category for subsequent communication
// costs and returns the previous category, enabling
//
//	prev := c.SetCategory(comm.CatStencil)
//	defer c.SetCategory(prev)
func (c *Comm) SetCategory(cat Category) Category {
	prev := c.stats.cat
	c.stats.cat = cat
	return prev
}
