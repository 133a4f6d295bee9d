package comm

import "fmt"

// Op is a pointwise reduction kernel: dst[i] = dst[i] ⊕ src[i].
type Op func(dst, src []float64)

// Sum is pointwise addition.
func Sum(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

// Max is the pointwise maximum.
func Max(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Min is the pointwise minimum.
func Min(dst, src []float64) {
	for i, v := range src {
		if v < dst[i] {
			dst[i] = v
		}
	}
}

// Collective tags live in their own negative tag space derived from a
// per-communicator sequence number; user point-to-point tags must be ≥ 0.
// All ranks of a communicator execute the same collectives in the same
// program order, so sequence numbers agree.
func (c *Comm) nextCollTag() int {
	c.splitSeq++ // reuse the counter: it only needs to advance identically on all ranks
	return -int(c.splitSeq)
}

// Barrier blocks until every rank of the communicator has entered it
// (dissemination algorithm, ⌈log₂ p⌉ rounds).
func (c *Comm) Barrier() {
	c.stats.countColl()
	tag := c.nextCollTag()
	if c.size == 1 {
		return
	}
	token := []float64{0}
	for dist := 1; dist < c.size; dist *= 2 {
		dst := (c.rank + dist) % c.size
		src := (c.rank - dist%c.size + c.size) % c.size
		c.Send(dst, tag, token)
		c.RecvInto(src, tag, token)
	}
}

// Bcast broadcasts data from root to every rank (binomial tree). Every rank
// must pass a slice of identical length; non-root contents are overwritten.
func (c *Comm) Bcast(root int, data []float64) {
	c.stats.countColl()
	tag := c.nextCollTag()
	if c.size == 1 {
		return
	}
	// Rotate so the root is virtual rank 0.
	vr := (c.rank - root + c.size) % c.size
	// Receive from parent.
	if vr != 0 {
		// parent: clear the lowest set bit
		parent := (vr & (vr - 1))
		c.RecvInto((parent+root)%c.size, tag, data)
	}
	// Forward to children: vr + 2^k for 2^k > lowest set bit range.
	for dist := 1; dist < c.size; dist *= 2 {
		if vr&(dist-1) == 0 && vr&dist == 0 {
			child := vr + dist
			if child < c.size {
				c.Send((child+root)%c.size, tag, data)
			}
		}
	}
}

// Allreduce reduces data pointwise across all ranks with op and leaves the
// result in data on every rank, selecting the algorithm like MPICH (Thakur
// et al. 2005, the paper's reference [19]): recursive doubling for short
// vectors (latency-bound: ⌈log₂ p⌉ rounds) and ring reduce-scatter +
// allgather for long ones (bandwidth-bound: 2·(p−1)·n/p values per rank,
// attaining the lower bound of the paper's Theorem 4.2).
//
// Both algorithms produce the same reduction order only for commutative,
// exactly-associative ops; with floating-point addition the results can
// differ in the last bits between the two regimes. The dynamical core's
// vertical summation always uses vectors far above the threshold, so its
// results do not depend on p through this choice.
func (c *Comm) Allreduce(data []float64, op Op) {
	if len(data) <= shortAllreduce {
		c.AllreduceRD(data, op)
		return
	}
	c.AllreduceRing(data, op)
}

// shortAllreduce is the message length (values) below which recursive
// doubling beats the ring (MPICH's default crossover is 2 KiB).
const shortAllreduce = 256

// AllreduceRD is allreduce by recursive doubling: ⌈log₂ p⌉ exchange rounds
// of the full vector. Optimal in rounds, not in volume. Non-power-of-two
// sizes fold the excess ranks onto the low ranks first (like MPICH).
func (c *Comm) AllreduceRD(data []float64, op Op) {
	c.stats.countColl()
	tag := c.nextCollTag()
	p := c.size
	if p == 1 || len(data) == 0 {
		return
	}
	// Largest power of two ≤ p.
	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	// Fold: ranks ≥ pof2 send their data to rank − pof2 and sit out.
	newRank := -1
	switch {
	case c.rank >= pof2:
		c.Send(c.rank-pof2, tag, data)
	case c.rank < rem:
		in := c.Recv(c.rank+pof2, tag)
		op(data, in)
		c.release(in)
		newRank = c.rank
	default:
		newRank = c.rank
	}
	if newRank >= 0 {
		for dist := 1; dist < pof2; dist *= 2 {
			partner := newRank ^ dist
			c.Send(partner, tag, data)
			in := c.Recv(partner, tag)
			op(data, in)
			c.release(in)
		}
	}
	// Unfold: the folded ranks receive the result.
	if c.rank >= pof2 {
		c.RecvInto(c.rank-pof2, tag, data)
	} else if c.rank < rem {
		c.Send(c.rank+pof2, tag, data)
	}
}

// AllreduceRing is the ring reduce-scatter + allgather allreduce.
func (c *Comm) AllreduceRing(data []float64, op Op) {
	c.stats.countColl()
	tag := c.nextCollTag()
	p := c.size
	if p == 1 || len(data) == 0 {
		return
	}
	n := len(data)
	bound := func(r int) int { return r * n / p }
	chunk := func(r int) []float64 {
		r = ((r % p) + p) % p
		return data[bound(r):bound(r+1)]
	}
	right := (c.rank + 1) % p
	left := (c.rank - 1 + p) % p

	// Reduce-scatter: after step s, this rank holds the partial reduction of
	// chunk (rank − s − 1).
	for s := 0; s < p-1; s++ {
		c.Send(right, tag, chunk(c.rank-s))
		in := c.Recv(left, tag)
		op(chunk(c.rank-s-1), in)
		c.release(in)
	}
	// Allgather of the fully reduced chunks: rank r now owns chunk r+1.
	for s := 0; s < p-1; s++ {
		c.Send(right, tag, chunk(c.rank+1-s+p))
		c.RecvInto(left, tag, chunk(c.rank-s+p))
	}
}

// Allgather concatenates each rank's equal-length send buffer into recv,
// ordered by rank (recv length must be p·len(send)). Ring algorithm:
// p−1 steps of len(send) values each.
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
		c.Send(right, tag, recv[blk*n:(blk+1)*n])
		blk = (blk - 1 + p) % p
		c.RecvInto(left, tag, recv[blk*n:(blk+1)*n])
	}
}

// Exscan computes the exclusive prefix reduction: rank r receives
// op(data₀, …, data_{r−1}); rank 0's buffer is zeroed. Linear pipeline,
// which is optimal in volume for the short z communicators it is used on.
func (c *Comm) Exscan(data []float64, op Op) {
	c.stats.countColl()
	tag := c.nextCollTag()
	p := c.size
	if p == 1 {
		zero(data)
		return
	}
	switch c.rank {
	case 0:
		c.Send(1, tag, data) // Send copies, so data may be cleared at once
		zero(data)
	default:
		prefix := c.Recv(c.rank-1, tag)
		if c.rank < p-1 {
			next := make([]float64, len(data))
			copy(next, prefix)
			op(next, data)
			c.Send(c.rank+1, tag, next)
		}
		copy(data, prefix)
		c.release(prefix)
	}
}

// Alltoall exchanges send[r] (equal lengths) with every rank r; recv[r]
// receives the block rank r sent to this rank. Pairwise-exchange algorithm,
// p−1 rounds. send[c.Rank()] is copied locally.
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
		c.Send(dst, tag, send[dst])
		c.RecvInto(src, tag, recv[src])
	}
}

// Reduce reduces pointwise onto root (binomial tree). Non-root buffers are
// clobbered with partial reductions.
func (c *Comm) Reduce(root int, data []float64, op Op) {
	c.stats.countColl()
	tag := c.nextCollTag()
	if c.size == 1 {
		return
	}
	vr := (c.rank - root + c.size) % c.size
	dist := 1
	for dist < c.size {
		if vr&dist != 0 {
			parent := vr - dist
			c.Send((parent+root)%c.size, tag, data)
			return
		}
		child := vr + dist
		if child < c.size {
			in := c.Recv((child+root)%c.size, tag)
			op(data, in)
			c.release(in)
		}
		dist *= 2
	}
}

// AllreduceScalar is Allreduce for a single value.
func (c *Comm) AllreduceScalar(v float64, op Op) float64 {
	buf := []float64{v}
	c.Allreduce(buf, op)
	return buf[0]
}

func zero(s []float64) {
	for i := range s {
		s[i] = 0
	}
}
