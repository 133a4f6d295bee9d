package dycore

import (
	"sync"

	"cadycore/internal/comm"
	"cadycore/internal/state"
)

// RunOpts bundles the optional controls of a run. The zero value reproduces
// plain Run.
type RunOpts struct {
	// Hook runs on each rank after every step (Held–Suarez forcing etc.);
	// it must be pointwise. Identical to the hook of RunWithHook.
	Hook StepHook
	// Boundary, if non-nil, engages a step-boundary barrier: after every
	// step all ranks park on a real (wall-clock) barrier — invisible to the
	// simulated LogP clock and the communication statistics — and the last
	// rank to arrive calls Boundary once, with the completed-step count
	// (1-based), the per-rank states and the per-rank cumulative simulated
	// compute seconds, both in rank order. Every rank is quiesced, so the
	// states are a consistent snapshot; both slices are reused across
	// boundaries, so Boundary copies what it keeps. Returning true stops
	// every rank at that boundary (Finalize still runs, so Finals are
	// well-formed): each rank gets the same decision, so none runs ahead
	// into a collective its peers abandoned. tally reads the segment's
	// statistics up to this boundary.
	Boundary func(done int, sts []*state.State, comp []float64, tally Tally) (stop bool)
	// Traced enables per-rank event tracing; RunWithOpts then also returns
	// the recorder for timeline rendering (internal/trace).
	Traced bool
	// Faults, if non-nil, installs a fault-injection profile (stragglers,
	// message jitter, transient send errors) on the world before the run
	// starts; see comm.SetFaults. Nil keeps the run bitwise identical to a
	// fault-free one.
	Faults *comm.Faults
	// CrashAt, if non-nil, is consulted on every rank after each completed
	// step (with the 1-based completed-step count); returning true kills
	// that rank with a RankFailure panic, which surfaces to the caller as a
	// typed abort in RunResult.Abort instead of a panic. The crash fires
	// before the step-boundary barrier, so Boundary never sees the crash
	// boundary — recovery is from the latest periodic checkpoint, like a
	// real mid-step rank death.
	CrashAt func(rank, done int) bool
}

// Tally returns a run's statistics up to the current step boundary: what
// RunResult.Agg and Count would read had the run ended there, less the work
// of finalizing the states (a comm-avoiding rank's pending smoothing), which
// a run resumed from this boundary does. It is valid only inside
// RunOpts.Boundary, while every rank is parked.
type Tally func() (comm.Aggregate, Counters)

// stepCtl is the step-boundary barrier. Ranks call arrive after each step;
// the last rank to arrive becomes the leader, calls Boundary under the lock
// (all peers are parked in Wait), publishes the stop decision and releases
// the generation.
type stepCtl struct {
	mu       sync.Mutex
	cond     *sync.Cond
	boundary func(done int, sts []*state.State, comp []float64) bool

	n       int
	arrived int
	gen     uint64
	stop    bool
	broken  bool
	// sts and comp are registered at each arrival, preallocated once so the
	// boundary stays allocation-free.
	sts  []*state.State
	comp []float64
}

func newStepCtl(n int, boundary func(int, []*state.State, []float64) bool) *stepCtl {
	c := &stepCtl{boundary: boundary, n: n, sts: make([]*state.State, n), comp: make([]float64, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// arrive parks the rank at the boundary after `done` completed steps and
// returns the leader's stop decision for that boundary. st is the rank's
// current state and cmp its cumulative simulated compute seconds.
func (c *stepCtl) arrive(done, rank int, st *state.State, cmp float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return true
	}
	c.sts[rank] = st
	c.comp[rank] = cmp
	c.arrived++
	if c.arrived < c.n {
		gen := c.gen
		for gen == c.gen && !c.broken {
			c.cond.Wait()
		}
		if c.broken {
			return true
		}
		return c.stop
	}
	// Leader: every rank is parked at this boundary.
	c.stop = c.boundary(done, c.sts, c.comp)
	c.arrived = 0
	c.gen++
	c.cond.Broadcast()
	return c.stop
}

// abort releases every parked rank with a stop decision. It is called when a
// rank panics so its peers do not wait forever on a barrier the dead rank
// can never reach (the comm layer's poison only wakes ranks blocked in
// Recv, not on this barrier).
func (c *stepCtl) abort() {
	c.mu.Lock()
	c.broken = true
	c.gen++
	c.cond.Broadcast()
	c.mu.Unlock()
}
