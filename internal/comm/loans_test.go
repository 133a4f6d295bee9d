package comm

import (
	"fmt"
	"testing"
)

// TestTakeReleasesVacatedSlot: removing a message from the middle of the
// queue must not leave its payload reachable from the backing array.
func TestTakeReleasesVacatedSlot(t *testing.T) {
	ep := newEndpoint()
	for tag := 0; tag < 3; tag++ {
		ep.deliver(message{commID: worldCommID, src: 0, tag: tag, data: []float64{float64(tag)}})
	}
	if m := ep.take(worldCommID, 0, 1); m.data[0] != 1 {
		t.Fatalf("took %v", m.data)
	}
	if len(ep.queue) != 2 || ep.queue[0].tag != 0 || ep.queue[1].tag != 2 {
		t.Fatalf("queue after take: %+v", ep.queue)
	}
	if slot := ep.queue[:3][2]; slot.data != nil {
		t.Errorf("vacated slot still references payload %v", slot.data)
	}
}

// TestCrashedWorldKeepsItsBuffers: a world whose rank crashed mid-traffic
// (messages still queued) is followed by a fresh world in the same process,
// as a supervised restart does; the fresh world receives exactly what its own
// ranks sent and ends with empty queues.
func TestCrashedWorldKeepsItsBuffers(t *testing.T) {
	traffic := func(c *Comm, crash bool) {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		out, in := make([]float64, 500), make([]float64, 500)
		for r := 0; r < 20; r++ {
			out[0] = float64(100*c.Rank() + r)
			c.Send(next, r, out)
			c.Send(prev, 100+r, out)
			if crash && c.Rank() == 2 && r == 10 {
				panic("injected rank death")
			}
			c.RecvInto(prev, r, in)
			if want := float64(100*prev + r); in[0] != want {
				panic(fmt.Sprintf("rank %d round %d: got %v from the left, want %v", c.Rank(), r, in[0], want))
			}
			c.RecvInto(next, 100+r, in)
		}
	}
	dead := NewWorld(4, Zero())
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("crashed world did not re-raise the rank panic")
			}
		}()
		dead.Run(func(c *Comm) { traffic(c, true) })
	}()
	queued := 0
	for _, ep := range dead.eps {
		queued += len(ep.queue)
	}
	if queued == 0 {
		t.Fatal("the crashed world left nothing queued; the test exercises nothing")
	}

	fresh := NewWorld(4, Zero())
	fresh.Run(func(c *Comm) { traffic(c, false) })
	for r, ep := range fresh.eps {
		if len(ep.queue) != 0 {
			t.Errorf("rank %d: %d messages left queued in the restarted world", r, len(ep.queue))
		}
	}
}

// TestCollectiveBuffersFreeOnReturn: Allgather and Alltoall lend their
// blocks, so they may return only once every receiver has copied them out.
// Each rank overwrites its buffers the moment a collective returns; a
// receiver still reading would see the garbage (and the race detector, which
// the CI race list runs on this package, would flag the overlap).
func TestCollectiveBuffersFreeOnReturn(t *testing.T) {
	for _, p := range []int{2, 3, 5} {
		t.Run(fmt.Sprintf("p=%d", p), func(t *testing.T) {
			const n, rounds = 64, 50
			NewWorld(p, Zero()).Run(func(c *Comm) {
				me := c.Rank()
				send, gathered := make([]float64, n), make([]float64, p*n)
				blocks, got := make([][]float64, p), make([][]float64, p)
				for r := range blocks {
					blocks[r], got[r] = make([]float64, n), make([]float64, n)
				}
				for round := 0; round < rounds; round++ {
					val := func(from, to, i int) float64 { return float64(((round*p+from)*p+to)*n + i) }
					for i := range send {
						send[i] = val(me, 0, i)
					}
					c.Allgather(send, gathered)
					for r := 0; r < p; r++ {
						for i := 0; i < n; i++ {
							if g := gathered[r*n+i]; g != val(r, 0, i) {
								panic(fmt.Sprintf("round %d: Allgather block %d[%d] = %v, want %v", round, r, i, g, val(r, 0, i)))
							}
						}
					}
					for i := range gathered {
						gathered[i], send[i%n] = -1, -1
					}
					for to := range blocks {
						for i := range blocks[to] {
							blocks[to][i] = val(me, to, i)
						}
					}
					c.Alltoall(blocks, got)
					for from := range got {
						for i, g := range got[from] {
							if g != val(from, me, i) {
								panic(fmt.Sprintf("round %d: Alltoall block from %d [%d] = %v, want %v", round, from, i, g, val(from, me, i)))
							}
						}
					}
					for to := range blocks {
						for i := range blocks[to] {
							blocks[to][i], got[to][i] = -1, -1
						}
					}
				}
			})
		})
	}
}

// TestRecvRunsNonContiguous: a message lent from scattered runs and received
// into differently cut runs carries exactly the sender's values, in order,
// and touches nothing outside the receiving runs.
func TestRecvRunsNonContiguous(t *testing.T) {
	src := make([]float64, 40)
	for i := range src {
		src[i] = float64(i)
	}
	sendRuns := []Run{{Off: 2, Len: 5}, {Off: 10, Len: 1}, {Off: 20, Len: 7}, {Off: 35, Len: 3}} // 16 values
	recvRuns := []Run{{Off: 30, Len: 4}, {Off: 0, Len: 9}, {Off: 15, Len: 3}}                    // 16 slots
	var want []float64
	for _, r := range sendRuns {
		want = append(want, src[r.Off:r.Off+r.Len]...)
	}
	NewWorld(2, Zero()).Run(func(c *Comm) {
		if c.Rank() == 0 {
			var l Loans
			c.Lend(1, 4, src, sendRuns, &l)
			l.Wait()
			return
		}
		dst := make([]float64, 40)
		for i := range dst {
			dst[i] = -1
		}
		if n := c.RecvRuns(0, 4, dst, recvRuns); n != len(want) {
			panic(fmt.Sprintf("RecvRuns returned %d, want %d", n, len(want)))
		}
		var got []float64
		inRun := make([]bool, len(dst))
		for _, r := range recvRuns {
			got = append(got, dst[r.Off:r.Off+r.Len]...)
			for i := r.Off; i < r.Off+r.Len; i++ {
				inRun[i] = true
			}
		}
		for i := range want {
			if got[i] != want[i] {
				panic(fmt.Sprintf("value %d: got %v, want %v (got %v)", i, got[i], want[i], got))
			}
		}
		for i, v := range dst {
			if !inRun[i] && v != -1 {
				panic(fmt.Sprintf("slot %d outside the receiving runs written: %v", i, v))
			}
		}
	})
}

// TestLoanWaitPoisonedByDeadReceiver: a rank waiting for loans whose
// receiver died must not hang; Run re-raises the injected failure, not the
// poison panic of the waiter. Run with -timeout so a hang fails the test.
func TestLoanWaitPoisonedByDeadReceiver(t *testing.T) {
	defer func() {
		rp, ok := recover().(RankPanic)
		if !ok {
			t.Fatalf("recovered %v, want RankPanic", rp)
		}
		if _, ok := rp.Val.(injectedTestFault); !ok || rp.Rank != 1 {
			t.Fatalf("RankPanic{Rank: %d, Val: %v}, want rank 1's injected fault", rp.Rank, rp.Val)
		}
	}()
	NewWorld(3, Zero()).Run(func(c *Comm) {
		buf, in := make([]float64, 8), make([]float64, 8)
		var l Loans
		for dst := 0; dst < c.Size(); dst++ {
			if dst != c.Rank() {
				c.Lend(dst, 0, buf, nil, &l)
			}
		}
		if c.Rank() == 1 {
			panic(injectedTestFault{}) // dies holding peers' loans unreceived
		}
		for src := 0; src < c.Size(); src++ {
			if src != c.Rank() && src != 1 {
				c.RecvInto(src, 0, in)
			}
		}
		l.Wait()
	})
	t.Fatal("Run returned without panicking")
}
