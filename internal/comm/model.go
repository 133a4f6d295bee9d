// Package comm implements the message-passing substrate the dynamical core
// runs on: a rank-SPMD runtime in pure Go that replaces MPI (which has no Go
// ecosystem), as documented in DESIGN.md §2.
//
// Ranks are goroutines; point-to-point messages are matched by (source, tag)
// with FIFO order per pair, like MPI. Ranks share one address space, so a
// message is a loan, as in single-copy shared-memory MPI transports: Lend
// posts runs of memory the sender already holds, the receiver (RecvInto,
// RecvRuns) copies them straight into its own storage, and the sender waits
// on its Loans before writing that memory again. Send lends a private copy.
// Communicator Split and the two collectives the schemes make — the ring
// Allgather of Ĉ's z-summation and the pairwise Alltoall of F̃'s transposes —
// are built *on top of* the point-to-point layer, so every byte and message
// the algorithms move is counted by construction rather than estimated.
//
// In addition to functional message passing, the runtime keeps a LogP-style
// simulated clock per rank: a message sent at sender-time t becomes available
// at the receiver at t + α + β·bytes; receiving earlier than that stalls the
// receiver's clock. Computation advances the clock through Compute. The
// simulated clock is deterministic (it depends only on the program order of
// each rank), which lets the benchmark harness reproduce the paper's
// communication-time figures with up to 1024 virtual ranks on one machine
// while the real computation still runs and is verified.
package comm

// NetModel parameterizes the simulated cost of communication and computation.
// All times are in seconds.
type NetModel struct {
	// Latency α: end-to-end time for a zero-byte message.
	Latency float64
	// ByteTime β: additional seconds per payload byte (1/bandwidth).
	ByteTime float64
	// SendOverhead o: CPU time a rank spends injecting one message; also
	// charged on the receive side when a message is drained.
	SendOverhead float64
	// ComputeRate: point-updates per second a rank sustains; Compute(w)
	// advances the clock by w/ComputeRate.
	ComputeRate float64
}

// TianheLike returns network parameters shaped like the paper's platform at
// production scale (Tianhe-2, TH Express-2 with a customized MPICH, ~1000
// MPI ranks sharing the fabric). The paper's own stencil timings put one
// halo-exchange round at ≈2.5 ms on 1024 ranks (17 400 s over ≈5·10⁵ steps
// of 13 rounds of ~20 messages), far above the wire latency: at that scale
// the effective per-message cost is synchronization noise and software
// overhead, tens of microseconds, which is what makes "reduce the frequency
// from 13 to 2" worth 3–6x. Latency and SendOverhead encode that effective
// cost; ByteTime is the sustained link bandwidth. ComputeRate approximates
// one Ivy Bridge core on the memory-bound dycore kernels.
func TianheLike() NetModel {
	return NetModel{
		Latency:      150e-6,
		ByteTime:     1.0 / 12.0e9, // TH Express-2 sustains 10-16 GB/s
		SendOverhead: 8e-6,
		ComputeRate:  4e8, // point-updates per second
	}
}

// Zero returns a model with no simulated costs; functional tests use it so
// clock bookkeeping cannot mask correctness issues.
func Zero() NetModel { return NetModel{ComputeRate: 1} }

// msgCost returns the availability delay α + β·bytes of one message.
func (m NetModel) msgCost(bytes int) float64 {
	return m.Latency + m.ByteTime*float64(bytes)
}
