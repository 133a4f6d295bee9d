// Fixture for the commsym analyzer: rank-conditional collectives, the
// early-exit pattern, taint through locals and topology coordinates, the
// rankuniform waiver, and Begin/Finish pairing.
package commsym

import (
	"comm"
	"topo"
)

func leaderOnly(c *comm.Comm, buf []float64) {
	if c.Rank() == 0 {
		c.Allgather(buf, buf) // want "collective Allgather is control-dependent on a rank-valued condition"
	}
}

func earlyExit(c *comm.Comm, bufs [][]float64) {
	if c.Rank() != 0 {
		return
	}
	c.Alltoall(bufs, bufs) // want "collective Alltoall is control-dependent on a rank-valued condition"
}

func derived(c *comm.Comm, buf []float64) {
	leader := c.Rank() == 0
	if leader {
		c.Allgather(buf, buf) // want "collective Allgather is control-dependent"
	}
}

func coordGate(t *topo.Topology, c *comm.Comm, buf []float64) {
	if t.Cz == 0 {
		c.Allgather(buf, buf) // want "collective Allgather is control-dependent"
	}
}

func helper(c *comm.Comm) { c.Split(0, 0) }

func indirect(c *comm.Comm) {
	if c.Rank() == 0 {
		helper(c) // want "collective-bearing call to helper is control-dependent"
	}
}

func uniformOK(c *comm.Comm, n int, buf []float64) {
	if n > 0 {
		c.Allgather(buf, buf) // ok: the condition is not rank-derived
	}
}

func p2pOK(c *comm.Comm, buf []float64) {
	if c.Rank() == 0 {
		c.Send(1, 7, buf) // ok: point-to-point is rank-addressed by design
	}
}

// Waivers.

//cadyvet:rankuniform the schedule flag is computed identically on every rank
func waivedFunc(c *comm.Comm, buf []float64) {
	if c.Rank() == 0 {
		c.Allgather(buf, buf)
	}
}

func waivedCall(c *comm.Comm, bufs [][]float64) {
	if c.Size() == 1 || c.Rank() == 0 {
		//cadyvet:rankuniform single-rank fast path: the branch is uniform when it matters
		c.Alltoall(bufs, bufs)
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
