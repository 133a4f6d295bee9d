// Fixture for the commsym analyzer: rank-conditional collectives, the
// early-exit pattern, taint through locals and topology coordinates, the
// rankuniform waiver, and Begin/Finish pairing.
package commsym

import (
	"comm"
	"topo"
)

func leaderOnly(c *comm.Comm) {
	if c.Rank() == 0 {
		c.Barrier() // want "collective Barrier is control-dependent on a rank-valued condition"
	}
}

func earlyExit(c *comm.Comm, buf []float64) {
	if c.Rank() != 0 {
		return
	}
	c.Bcast(buf, 0) // want "collective Bcast is control-dependent on a rank-valued condition"
}

func derived(c *comm.Comm) {
	leader := c.Rank() == 0
	if leader {
		c.Barrier() // want "collective Barrier is control-dependent"
	}
}

func coordGate(t *topo.Topology, c *comm.Comm) {
	if t.Cz == 0 {
		c.Barrier() // want "collective Barrier is control-dependent"
	}
}

func helper(c *comm.Comm) { c.Barrier() }

func indirect(c *comm.Comm) {
	if c.Rank() == 0 {
		helper(c) // want "collective-bearing call to helper is control-dependent"
	}
}

func uniformOK(c *comm.Comm, n int) {
	if n > 0 {
		c.Barrier() // ok: the condition is not rank-derived
	}
}

func p2pOK(c *comm.Comm, buf []float64) {
	if c.Rank() == 0 {
		c.Send(1, 7, buf) // ok: point-to-point is rank-addressed by design
	}
}

// Waivers.

//cadyvet:rankuniform the schedule flag is computed identically on every rank
func waivedFunc(c *comm.Comm) {
	if c.Rank() == 0 {
		c.Barrier()
	}
}

func waivedCall(c *comm.Comm) {
	if c.Size() == 1 || c.Rank() == 0 {
		//cadyvet:rankuniform single-rank fast path: the branch is uniform when it matters
		c.Barrier()
	}
}

// Begin/Finish pairing.

func discarded(e *topo.Exchanger, fs [][]float64) {
	e.Begin(fs) // want "Begin result discarded"
}

func blankAssign(e *topo.Exchanger, fs [][]float64) {
	_ = e.Begin(fs) // want "Begin result discarded"
}

func incomplete(e *topo.Exchanger, fs [][]float64) {
	p := e.Begin(fs) // want "never completed with Finish on any path in incomplete"
	if p == nil {
		panic("nil pending")
	}
}

func paired(e *topo.Exchanger, fs [][]float64) {
	p := e.Begin(fs)
	p.Finish() // ok
}

func chained(e *topo.Exchanger, fs [][]float64) {
	e.Begin(fs).Finish() // ok
}

func escapes(e *topo.Exchanger, fs [][]float64) *topo.Pending {
	p := e.Begin(fs)
	return p // ok: the caller completes it
}

func waivedPairing(e *topo.Exchanger, fs [][]float64) {
	//cadyvet:allow completion is driven by the step scheduler at the next barrier
	e.Begin(fs)
}
