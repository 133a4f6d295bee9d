package dycore

import (
	"sync"

	"cadycore/internal/comm"
	"cadycore/internal/state"
)

// RunOpts bundles the optional controls of a run. The zero value reproduces
// plain Run. Progress, ShouldStop and Snapshot engage a step-boundary
// barrier: after every step all ranks park on a real (wall-clock) barrier —
// invisible to the simulated LogP clock and the communication statistics —
// where a single leader samples the callbacks. This gives every rank the
// same stop decision (no rank can run ahead into a collective its peers
// abandoned) and gives Snapshot a quiesced, consistent view of all per-rank
// states.
type RunOpts struct {
	// Hook runs on each rank after every step (Held–Suarez forcing etc.);
	// it must be pointwise. Identical to the hook of RunWithHook.
	Hook StepHook
	// Progress, if non-nil, is called once per step boundary with the
	// number of completed steps (1-based). It runs on one goroutine at a
	// time, while all ranks are parked.
	Progress func(done int)
	// ShouldStop, if non-nil, is sampled once per step boundary by the
	// barrier leader; returning true stops every rank at that boundary
	// (Finalize still runs, so Finals are well-formed). Use it to plumb a
	// context cancellation or deadline into the run.
	ShouldStop func() bool
	// Snapshot, if non-nil, is called while all ranks are quiesced at a
	// step boundary, with the completed-step count and the per-rank states
	// in rank order. It fires every SnapshotEvery-th boundary and, in any
	// case, at a ShouldStop-triggered stop (so a cancelled run always
	// leaves a checkpoint at its exact stop point).
	Snapshot func(done int, sts []*state.State)
	// SnapshotEvery is the cadence of Snapshot in steps; <= 0 means only
	// stop-triggered snapshots.
	SnapshotEvery int
	// Traced enables per-rank event tracing (see RunTraced).
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
	// before the step-boundary barrier, so no snapshot is taken at the
	// crash boundary — recovery is from the latest periodic checkpoint,
	// like a real mid-step rank death.
	CrashAt func(rank, done int) bool
	// Rebalance, if non-nil, is sampled once per step boundary by the
	// barrier leader — after Progress, and only when ShouldStop has not
	// already stopped the run — with the completed-step count and the
	// per-rank simulated clock and compute seconds in rank order. The two
	// slices are preallocated and reused across boundaries (zero allocations
	// on the hot path); callers must copy what they retain. Returning true
	// stops every rank at that boundary exactly like ShouldStop, including
	// the stop-triggered Snapshot — which is how the load-rebalancing
	// controller quiesces a run for an in-flight migration. Like the barrier
	// itself, the sampling is invisible to the LogP clock.
	Rebalance func(done int, clock, comp []float64) bool
}

// controlled reports whether the step-boundary barrier is needed.
func (o RunOpts) controlled() bool {
	return o.Progress != nil || o.ShouldStop != nil || o.Snapshot != nil || o.Rebalance != nil
}

// stepCtl is the step-boundary barrier. Ranks call arrive after each step;
// the last rank to arrive becomes the leader, runs the callbacks under the
// lock (all peers are parked in Wait), publishes the stop decision and
// releases the generation.
type stepCtl struct {
	mu   sync.Mutex
	cond *sync.Cond
	opts RunOpts

	n       int
	arrived int
	gen     uint64
	stop    bool
	broken  bool
	sts     []*state.State
	// clock and comp are the per-rank telemetry registered at each arrival,
	// preallocated once so the boundary stays allocation-free.
	clock []float64
	comp  []float64
}

func newStepCtl(n int, opts RunOpts) *stepCtl {
	c := &stepCtl{opts: opts, n: n, sts: make([]*state.State, n),
		clock: make([]float64, n), comp: make([]float64, n)}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// arrive parks the rank at the boundary after `done` completed steps and
// returns the leader's stop decision for that boundary. st is the rank's
// current state, registered for Snapshot; clk and cmp are its simulated
// clock and compute seconds, registered for Rebalance.
func (c *stepCtl) arrive(done, rank int, st *state.State, clk, cmp float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken {
		return true
	}
	c.sts[rank] = st
	c.clock[rank] = clk
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
	// Leader: every rank is parked at this boundary. Progress is reported
	// before the stop decision so a controller reacting to it (deadline,
	// cancellation) takes effect at this same boundary.
	if c.opts.Progress != nil {
		c.opts.Progress(done)
	}
	stop := c.opts.ShouldStop != nil && c.opts.ShouldStop()
	if !stop && c.opts.Rebalance != nil {
		stop = c.opts.Rebalance(done, c.clock, c.comp)
	}
	if c.opts.Snapshot != nil && (stop || (c.opts.SnapshotEvery > 0 && done%c.opts.SnapshotEvery == 0)) {
		c.opts.Snapshot(done, c.sts)
	}
	c.stop = stop
	c.arrived = 0
	c.gen++
	c.cond.Broadcast()
	return stop
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
