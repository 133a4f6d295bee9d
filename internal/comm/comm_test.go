package comm

import (
	"math"
	"math/rand"
	"testing"
)

// recv1 receives one value from src with the given tag.
func recv1(c *Comm, src, tag int) float64 {
	buf := make([]float64, 1)
	c.RecvInto(src, tag, buf)
	return buf[0]
}

func TestSendRecvBasic(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
		case 1:
			got := make([]float64, 4)
			n := c.RecvInto(0, 7, got)
			if n != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("rank 1 got n=%d %v", n, got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			buf := []float64{42}
			c.Send(1, 0, buf)
			buf[0] = -1 // must not affect the message
		} else if got := recv1(c, 0, 0); got != 42 {
			t.Errorf("payload aliased sender buffer: got %v", got)
		}
	})
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 5, []float64{5})
			c.Send(1, 3, []float64{3})
		} else {
			// Receive out of send order: tag matching must reorder.
			if got := recv1(c, 0, 3); got != 3 {
				t.Errorf("tag 3 got %v", got)
			}
			if got := recv1(c, 0, 5); got != 5 {
				t.Errorf("tag 5 got %v", got)
			}
		}
	})
}

func TestFIFOPerPair(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		const n = 100
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 1, []float64{float64(i)})
			}
		} else {
			for i := 0; i < n; i++ {
				if got := recv1(c, 0, 1); got != float64(i) {
					t.Fatalf("message %d arrived as %v", i, got)
				}
			}
		}
	})
}

func TestAllgather(t *testing.T) {
	for _, p := range []int{1, 2, 4, 6} {
		w := NewWorld(p, Zero())
		w.Run(func(c *Comm) {
			send := []float64{float64(c.Rank() * 10), float64(c.Rank()*10 + 1)}
			recv := make([]float64, 2*p)
			c.Allgather(send, recv)
			for r := 0; r < p; r++ {
				if recv[2*r] != float64(r*10) || recv[2*r+1] != float64(r*10+1) {
					t.Errorf("p=%d rank=%d recv=%v", p, c.Rank(), recv)
					return
				}
			}
		})
	}
}

func TestAlltoall(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5} {
		w := NewWorld(p, Zero())
		w.Run(func(c *Comm) {
			send := make([][]float64, p)
			recv := make([][]float64, p)
			for r := 0; r < p; r++ {
				send[r] = []float64{float64(c.Rank()*100 + r)}
				recv[r] = make([]float64, 1)
			}
			c.Alltoall(send, recv)
			for r := 0; r < p; r++ {
				want := float64(r*100 + c.Rank())
				if recv[r][0] != want {
					t.Errorf("p=%d rank=%d from %d: got %v want %v", p, c.Rank(), r, recv[r][0], want)
				}
			}
		})
	}
}

// TestCollectivesPropertyRandom: for random rank counts and lengths, Allgather
// leaves every rank's block in rank order on every rank and Alltoall delivers
// block (r → s) to rank s's slot r, bit for bit.
func TestCollectivesPropertyRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for trial := 0; trial < 25; trial++ {
		p := 1 + rng.Intn(9)
		n := 1 + rng.Intn(50)
		blocks := make([][][]float64, p) // blocks[r][s]: what rank r sends rank s
		for r := range blocks {
			blocks[r] = make([][]float64, p)
			for s := range blocks[r] {
				blocks[r][s] = make([]float64, n)
				for i := range blocks[r][s] {
					blocks[r][s][i] = rng.NormFloat64()
				}
			}
		}
		w := NewWorld(p, Zero())
		w.Run(func(c *Comm) {
			me := c.Rank()
			gathered := make([]float64, p*n)
			c.Allgather(blocks[me][0], gathered)
			recv := make([][]float64, p)
			for r := range recv {
				recv[r] = make([]float64, n)
			}
			c.Alltoall(blocks[me], recv)
			for r := 0; r < p; r++ {
				for i := 0; i < n; i++ {
					if gathered[r*n+i] != blocks[r][0][i] {
						t.Errorf("trial %d p=%d n=%d rank=%d: Allgather block %d elem %d wrong", trial, p, n, me, r, i)
						return
					}
					if recv[r][i] != blocks[r][me][i] {
						t.Errorf("trial %d p=%d n=%d rank=%d: Alltoall block from %d elem %d wrong", trial, p, n, me, r, i)
						return
					}
				}
			}
		})
	}
}

// TestRingCollectiveVolume pins the traffic of the two collectives: the ring
// Allgather moves (p−1) blocks of n values per rank (the lower bound of the
// paper's Theorem 4.2 for the z summation), the pairwise Alltoall p−1 blocks,
// each in p−1 messages per rank.
func TestRingCollectiveVolume(t *testing.T) {
	const p, n = 4, 16
	run := func(fn func(c *Comm)) Aggregate {
		w := NewWorld(p, Zero())
		w.Run(fn)
		return w.Stats()
	}
	ag := run(func(c *Comm) { c.Allgather(make([]float64, n), make([]float64, p*n)) })
	a2a := run(func(c *Comm) {
		send, recv := make([][]float64, p), make([][]float64, p)
		for r := range send {
			send[r], recv[r] = make([]float64, n), make([]float64, n)
		}
		c.Alltoall(send, recv)
	})
	for name, a := range map[string]Aggregate{"Allgather": ag, "Alltoall": a2a} {
		if want := int64(p * (p - 1) * n * 8); a.BytesSent != want {
			t.Errorf("%s moved %d bytes, want %d", name, a.BytesSent, want)
		}
		if want := int64(p * (p - 1)); a.MsgsSent != want {
			t.Errorf("%s sent %d messages, want %d", name, a.MsgsSent, want)
		}
		if a.Collectives != p {
			t.Errorf("%s counted %d collectives, want %d", name, a.Collectives, p)
		}
	}
}

func TestSplitGrid(t *testing.T) {
	// 2x3 process grid: split into row and column communicators and gather
	// independently in each.
	const py, pz = 2, 3
	w := NewWorld(py*pz, Zero())
	w.Run(func(c *Comm) {
		y := c.Rank() / pz
		z := c.Rank() % pz
		rowComm := c.Split(y, z) // members share y
		colComm := c.Split(z, y) // members share z
		if rowComm.Size() != pz || colComm.Size() != py {
			t.Errorf("split sizes: row=%d col=%d", rowComm.Size(), colComm.Size())
		}
		if rowComm.Rank() != z || colComm.Rank() != y {
			t.Errorf("split ranks: row=%d (want %d) col=%d (want %d)", rowComm.Rank(), z, colComm.Rank(), y)
		}
		row := make([]float64, pz)
		rowComm.Allgather([]float64{float64(c.Rank())}, row)
		for i, v := range row {
			if v != float64(y*pz+i) {
				t.Errorf("rank %d: row gather %v", c.Rank(), row)
				break
			}
		}
		col := make([]float64, py)
		colComm.Allgather([]float64{float64(c.Rank())}, col)
		for i, v := range col {
			if v != float64(i*pz+z) {
				t.Errorf("rank %d: column gather %v", c.Rank(), col)
				break
			}
		}
	})
}

func TestSplitUndefined(t *testing.T) {
	w := NewWorld(4, Zero())
	w.Run(func(c *Comm) {
		color := -1
		if c.Rank() < 2 {
			color = 0
		}
		sub := c.Split(color, 0)
		if c.Rank() < 2 {
			if sub == nil || sub.Size() != 2 {
				t.Errorf("rank %d expected sub of size 2, got %v", c.Rank(), sub)
			}
		} else if sub != nil {
			t.Errorf("rank %d expected nil sub-communicator", c.Rank())
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2, TianheLike())
	w.Run(func(c *Comm) {
		c.SetCategory(CatStencil)
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 100))
		} else {
			c.RecvInto(0, 0, make([]float64, 100))
		}
	})
	a := w.Stats()
	if a.MsgsSent != 1 {
		t.Errorf("MsgsSent = %d, want 1", a.MsgsSent)
	}
	if a.BytesSent != 800 {
		t.Errorf("BytesSent = %d, want 800", a.BytesSent)
	}
	if a.MsgsByCat[CatStencil] != 1 {
		t.Errorf("stencil msgs = %d, want 1", a.MsgsByCat[CatStencil])
	}
	if a.StencilTime() <= 0 {
		t.Errorf("stencil time should be positive, got %v", a.StencilTime())
	}
}

func TestCollectiveKindBreakdown(t *testing.T) {
	const p = 4
	w := NewWorld(p, TianheLike())
	w.Run(func(c *Comm) {
		buf := []float64{float64(c.Rank()), 1}
		c.SetCategory(CatCollectiveZ)
		gathered := make([]float64, 2*p)
		c.Allgather(buf, gathered)
		c.Allgather(buf, gathered)
		c.SetCategory(CatCollectiveX)
		send, recv := make([][]float64, p), make([][]float64, p)
		for r := range send {
			send[r], recv[r] = buf, make([]float64, 2)
		}
		c.Alltoall(send, recv)
		c.SetCategory(CatStencil)
		if c.Rank() == 0 {
			c.Send(1, 7, buf)
		} else if c.Rank() == 1 {
			c.RecvInto(0, 7, buf)
		}
	})
	a := w.Stats()
	if got := a.CollByCat[CatCollectiveZ]; got != 2*p {
		t.Errorf("z collectives = %d, want %d", got, 2*p)
	}
	if got := a.CollByCat[CatCollectiveX]; got != p {
		t.Errorf("x collectives = %d, want %d", got, p)
	}
	if a.CollByCat[CatStencil] != 0 {
		t.Errorf("stencil collectives = %d, want 0", a.CollByCat[CatStencil])
	}
	// Each collective moves p−1 two-value messages per rank.
	if got, want := a.BytesByCat[CatCollectiveZ], int64(2*p*(p-1)*16); got != want {
		t.Errorf("z bytes = %d, want %d", got, want)
	}
	if got, want := a.BytesByCat[CatCollectiveX], int64(p*(p-1)*16); got != want {
		t.Errorf("x bytes = %d, want %d", got, want)
	}
	if got := a.ExchangeMsgs(); got != 1 {
		t.Errorf("ExchangeMsgs = %d, want 1", got)
	}
	if got := a.ExchangeBytes(); got != 16 {
		t.Errorf("ExchangeBytes = %d, want 16", got)
	}
	var coll int64
	for _, v := range a.CollByCat {
		coll += v
	}
	if coll != a.Collectives {
		t.Errorf("CollByCat sum %d != Collectives %d", coll, a.Collectives)
	}
}

func TestSimulatedClockMessageDelay(t *testing.T) {
	m := NetModel{Latency: 1e-3, ByteTime: 0, SendOverhead: 0, ComputeRate: 1}
	w := NewWorld(2, m)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1})
		} else {
			recv1(c, 0, 0)
			// Receiver must have stalled at least the latency.
			if c.Clock() < 1e-3 {
				t.Errorf("receiver clock %v < latency", c.Clock())
			}
		}
	})
}

func TestSimulatedOverlapHidesLatency(t *testing.T) {
	// If the receiver computes past the message availability time before
	// receiving, the receive costs (almost) nothing: overlap is modeled.
	m := NetModel{Latency: 1e-3, ByteTime: 0, SendOverhead: 0, ComputeRate: 1}
	run := func(overlapWork float64) (commTime float64) {
		w := NewWorld(2, m)
		w.Run(func(c *Comm) {
			if c.Rank() == 0 {
				c.Send(1, 0, []float64{1})
			} else {
				c.Compute(overlapWork)
				recv1(c, 0, 0)
			}
		})
		return w.Stats().TotalCommTime()
	}
	withOverlap := run(1e-2) // compute 10 ms before receiving
	noOverlap := run(0)
	if withOverlap >= noOverlap {
		t.Errorf("overlap did not reduce comm time: with=%v without=%v", withOverlap, noOverlap)
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	m := NetModel{ComputeRate: 100}
	w := NewWorld(1, m)
	w.Run(func(c *Comm) {
		c.Compute(50)
		if math.Abs(c.Clock()-0.5) > 1e-12 {
			t.Errorf("clock = %v, want 0.5", c.Clock())
		}
	})
}

func TestRunPropagatesPanic(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Error("expected panic to propagate from Run")
		}
	}()
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("boom")
		}
		// Rank 1 blocks in RecvInto; poisoning must unblock it.
		defer func() { recover() }() // swallow the poison panic on rank 1
		recv1(c, 0, 0)
	})
}

func TestPoisonUnblocksCollective(t *testing.T) {
	// A rank dying mid-collective must not deadlock the others: the
	// poison propagates a panic out of their blocked receives.
	defer func() {
		if recover() == nil {
			t.Error("expected the rank-0 panic to propagate")
		}
	}()
	w := NewWorld(4, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			panic("node failure")
		}
		defer func() { recover() }() // swallow the poison on survivors
		c.Allgather(make([]float64, 256), make([]float64, 4*256))
	})
}

func TestSendToSelfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-send should panic")
		}
	}()
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			defer func() {
				if r := recover(); r != nil {
					panic(r) // re-raise so Run reports it
				}
			}()
			c.Send(0, 0, []float64{1})
		}
	})
}

func TestSubCommIsolation(t *testing.T) {
	// Messages on a sub-communicator must not be visible to the parent
	// communicator's matching (communicator ids isolate them).
	w := NewWorld(4, Zero())
	w.Run(func(c *Comm) {
		sub := c.Split(c.Rank()%2, c.Rank())
		// Within each 2-member sub-communicator, exchange with tag 0; also
		// exchange on the world with the SAME tag — no cross-talk allowed.
		peerSub := 1 - sub.Rank()
		sub.Send(peerSub, 0, []float64{float64(100 + c.Rank())})
		peerW := (c.Rank() + 2) % 4
		c.Send(peerW, 0, []float64{float64(200 + c.Rank())})

		fromSub := recv1(sub, peerSub, 0)
		fromW := recv1(c, peerW, 0)
		if fromSub < 100 || fromSub >= 200 {
			t.Errorf("rank %d: sub-communicator got %v", c.Rank(), fromSub)
		}
		if fromW < 200 {
			t.Errorf("rank %d: world got %v", c.Rank(), fromW)
		}
	})
}

func TestCompImbalance(t *testing.T) {
	for _, tc := range []struct {
		comp []float64
		want float64
	}{
		{nil, 0},
		{[]float64{2, 2}, 1},
		{[]float64{1, 4, 2}, 4},
		{[]float64{0, 3}, 0},
	} {
		if got := (Aggregate{RankComp: tc.comp}).CompImbalance(); got != tc.want {
			t.Errorf("CompImbalance(%v) = %v, want %v", tc.comp, got, tc.want)
		}
	}
}
