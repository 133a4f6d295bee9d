package comm

import "testing"

// bufID identifies a payload buffer by the address of its backing array.
func bufID(b []float64) *float64 { return &b[:1][0] }

// pooled returns the identities of every buffer on the world's free lists.
func pooled(w *World) map[*float64]bool {
	ids := map[*float64]bool{}
	for _, ep := range w.eps {
		ep.mu.Lock()
		for _, class := range ep.free {
			for _, b := range class {
				ids[bufID(b)] = true
			}
		}
		ep.mu.Unlock()
	}
	return ids
}

// pingPong is a steady two-way traffic pattern of fixed-size messages drained
// with RecvInto, plus a ring allreduce whose internal receives are recycled.
func pingPong(c *Comm, rounds, n int) {
	peer := 1 - c.Rank()
	out, in := make([]float64, n), make([]float64, n)
	red := make([]float64, 2*shortAllreduce)
	for r := 0; r < rounds; r++ {
		out[0] = float64(r)
		c.Isend(peer, 3, out)
		c.RecvInto(peer, 3, in)
		c.Allreduce(red, Sum)
	}
}

func TestPayloadsAreRecycled(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) { pingPong(c, 200, 1000) })
	// 200 rounds × 2 ranks × (1 halo-like message + 2 allreduce chunks): with
	// a fresh make per message that is 1200 buffers; recycled, each endpoint
	// keeps the handful that were ever in flight at once.
	if n := len(pooled(w)); n == 0 || n > 12 {
		t.Errorf("%d buffers on the free lists after 1200 messages, want a handful", n)
	}
	for r, ep := range w.eps {
		got := 0
		for k, class := range ep.free {
			for _, b := range class {
				if cap(b) != 1<<k {
					t.Errorf("rank %d: buffer of capacity %d filed under class %d", r, cap(b), k)
				}
				got += 8 * cap(b)
			}
		}
		if got != ep.freeBytes {
			t.Errorf("rank %d: freeBytes %d, lists hold %d", r, ep.freeBytes, got)
		}
	}
}

// TestRecvTransfersOwnership: a slice returned by Recv belongs to its caller
// and is never recycled under it, however much same-sized traffic follows.
func TestRecvTransfersOwnership(t *testing.T) {
	const n = 1000
	var held []float64
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 9, make([]float64, n))
		} else {
			held = c.Recv(0, 9)
			for i := range held {
				held[i] = -7 // sentinel
			}
		}
		pingPong(c, 50, n) // a step's worth of traffic in the same size class
		if c.Rank() == 1 {
			for i, v := range held {
				if v != -7 {
					t.Errorf("Recv'd slice overwritten at %d: %v", i, v)
					break
				}
			}
		}
	})
	if pooled(w)[bufID(held)] {
		t.Error("a payload handed out by Recv is on a free list")
	}
}

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

// TestIsendSharesCompletedRequest: buffered sends complete at once, so they
// all return one request and allocate none.
func TestIsendSharesCompletedRequest(t *testing.T) {
	w := NewWorld(2, Zero())
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			a := c.Isend(1, 0, []float64{1})
			b := c.Isend(1, 1, []float64{2})
			if a != b || a.Wait() != 0 {
				t.Errorf("Isend handles %p %p, Wait %d", a, b, a.Wait())
			}
		} else {
			c.Recv(0, 0)
			c.Recv(0, 1)
		}
	})
}

// TestFreeListBudget: past poolBudget a consumed payload is dropped, not kept.
func TestFreeListBudget(t *testing.T) {
	ep := newEndpoint()
	const c = poolBudget / 8 / 2 // two of these fill the budget exactly
	for i := 0; i < 3; i++ {
		ep.recycle(make([]float64, c))
	}
	if ep.freeBytes != poolBudget {
		t.Errorf("free list pins %d bytes, want the budget %d", ep.freeBytes, poolBudget)
	}
	ep.recycle(make([]float64, 3, 5)) // not a payload() capacity
	if ep.freeBytes != poolBudget {
		t.Error("foreign buffer accepted")
	}
	if b := ep.payload(c - 1); cap(b) != c || len(b) != c-1 || ep.freeBytes != poolBudget/2 {
		t.Errorf("payload: len %d cap %d, %d bytes left", len(b), cap(b), ep.freeBytes)
	}
}

// TestCrashedWorldKeepsItsBuffers: the free lists die with their world. A
// world whose rank crashed mid-traffic (messages queued, buffers pooled) is
// followed by a fresh world in the same process, as a supervised restart
// does; the new world never sees a buffer of the dead one.
func TestCrashedWorldKeepsItsBuffers(t *testing.T) {
	traffic := func(c *Comm, crash bool) {
		next, prev := (c.Rank()+1)%c.Size(), (c.Rank()+c.Size()-1)%c.Size()
		out, in := make([]float64, 500), make([]float64, 500)
		for r := 0; r < 20; r++ {
			c.Isend(next, r, out)
			c.Isend(prev, 100+r, out)
			if crash && c.Rank() == 2 && r == 10 {
				panic("injected rank death")
			}
			c.RecvInto(prev, r, in)
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
	deadBufs := pooled(dead)
	for _, ep := range dead.eps {
		for _, m := range ep.queue {
			deadBufs[bufID(m.data)] = true // undelivered payloads of the dead world
		}
	}
	if len(deadBufs) == 0 {
		t.Fatal("the crashed world pooled nothing; the test exercises nothing")
	}

	fresh := NewWorld(4, Zero())
	fresh.Run(func(c *Comm) { traffic(c, false) })
	for id := range pooled(fresh) {
		if deadBufs[id] {
			t.Fatalf("restarted world holds buffer %p of the crashed world", id)
		}
	}
}

// TestFreeListSharedBySenders hammers one endpoint's free list from every
// other rank at once while its owner drains and recycles; it is here for the
// race detector (the CI race list runs this package).
func TestFreeListSharedBySenders(t *testing.T) {
	const p, rounds, n = 6, 200, 64
	w := NewWorld(p, Zero())
	sum := 0.0 // written by rank 0's goroutine only, read after Run returns
	w.Run(func(c *Comm) {
		if c.Rank() != 0 {
			out := make([]float64, n)
			for r := 0; r < rounds; r++ {
				out[0] = float64(c.Rank())
				c.Send(0, r, out)
			}
			return
		}
		in := make([]float64, n)
		for r := 0; r < rounds; r++ {
			for src := 1; src < p; src++ {
				c.RecvInto(src, r, in)
				sum += in[0]
			}
		}
	})
	if want := float64(rounds * (p - 1) * p / 2); sum != want {
		t.Errorf("received sum %v, want %v (a payload was overwritten in flight)", sum, want)
	}
}
