package comm

import "fmt"

// Collective tags live in their own negative tag space derived from a
// per-communicator sequence number; user point-to-point tags must be ≥ 0.
// All ranks of a communicator execute the same collectives in the same
// program order, so sequence numbers agree.
func (c *Comm) nextCollTag() int {
	c.splitSeq++ // reuse the counter: it only needs to advance identically on all ranks
	return -int(c.splitSeq)
}

// Allgather concatenates each rank's equal-length send buffer into recv,
// ordered by rank (recv length must be p·len(send)). Ring algorithm:
// p−1 steps of len(send) values each, every block lent out of recv; it
// returns once its loans are settled, so recv is the caller's again.
func (c *Comm) Allgather(send, recv []float64) {
	c.stats.countColl()
	tag := c.nextCollTag()
	p := c.size
	n := len(send)
	if len(recv) != p*n {
		panic(fmt.Sprintf("comm: Allgather recv length %d != %d ranks x %d", len(recv), p, n))
	}
	copy(recv[c.rank*n:(c.rank+1)*n], send)
	if p == 1 || n == 0 {
		return
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p
	// Pass blocks around the ring; at step s forward the block that arrived
	// at step s−1 (initially our own).
	blk := (c.rank) % p
	for s := 0; s < p-1; s++ {
		c.Lend(right, tag, recv[blk*n:(blk+1)*n], nil, &c.lent)
		blk = (blk - 1 + p) % p
		c.RecvInto(left, tag, recv[blk*n:(blk+1)*n])
	}
	c.lent.Wait()
}

// Alltoall exchanges send[r] (equal lengths) with every rank r; recv[r]
// receives the block rank r sent to this rank. Pairwise-exchange algorithm,
// p−1 rounds. send[c.Rank()] is copied locally; the other blocks are lent,
// so no send block may overlap a recv block. It returns once its loans are
// settled, so the caller may write send again at once.
func (c *Comm) Alltoall(send, recv [][]float64) {
	c.stats.countColl()
	tag := c.nextCollTag()
	p := c.size
	if len(send) != p || len(recv) != p {
		panic(fmt.Sprintf("comm: Alltoall needs %d blocks, got send=%d recv=%d", p, len(send), len(recv)))
	}
	copy(recv[c.rank], send[c.rank])
	for s := 1; s < p; s++ {
		dst := (c.rank + s) % p
		src := (c.rank - s + p) % p
		c.Lend(dst, tag, send[dst], nil, &c.lent)
		c.RecvInto(src, tag, recv[src])
	}
	c.lent.Wait()
}
