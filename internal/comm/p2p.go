package comm

import (
	"fmt"
	"math/bits"
	"sync"
)

// message is one in-flight point-to-point message. Payloads are copied on
// send (buffered-send semantics, like MPI_Bsend), so senders never block and
// the algorithms above are deadlock-free by construction as long as every
// send is eventually matched by a receive.
type message struct {
	commID  uint64
	src     int // communicator rank of the sender
	tag     int
	data    []float64
	sentAt  float64 // sender's simulated time when the payload departed
	availAt float64 // simulated time at which the payload is available
}

// endpoint is the receive queue of one world rank, plus the free list the
// payloads of its messages are drawn from and returned to. Both belong to the
// World, so a finished or crashed world takes its buffers with it.
type endpoint struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool

	// free[k] holds recycled payload buffers of capacity 1<<k; freeBytes is
	// what they pin, kept at or below poolBudget. Guarded by mu.
	free      [bits.UintSize][][]float64
	freeBytes int
}

// poolBudget bounds the bytes one endpoint's free list may pin. A class of
// buffers only grows to the number of its messages that were ever in flight
// to the endpoint at once, so the budget is a backstop, not a tuning knob:
// past it a consumed payload is simply left to the garbage collector.
const poolBudget = 32 << 20

// payload returns a buffer of length n for a message bound for this
// endpoint: a recycled one of n's capacity class when the free list has it,
// a fresh one (capacity rounded up to the class) otherwise.
func (ep *endpoint) payload(n int) []float64 {
	if n == 0 {
		return nil
	}
	k := bits.Len(uint(n - 1))
	ep.mu.Lock()
	if l := ep.free[k]; len(l) > 0 {
		buf := l[len(l)-1]
		l[len(l)-1] = nil
		ep.free[k] = l[:len(l)-1]
		ep.freeBytes -= 8 << k
		ep.mu.Unlock()
		return buf[:n]
	}
	ep.mu.Unlock()
	return make([]float64, n, 1<<k)
}

// recycle returns the payload of a consumed message to the free list. Only
// the transport calls it, and only once nothing else references the buffer.
func (ep *endpoint) recycle(buf []float64) {
	c := cap(buf)
	if c == 0 || c&(c-1) != 0 {
		return // not a payload() buffer
	}
	ep.mu.Lock()
	if ep.freeBytes+8*c <= poolBudget {
		k := bits.TrailingZeros(uint(c))
		ep.free[k] = append(ep.free[k], buf)
		ep.freeBytes += 8 * c
	}
	ep.mu.Unlock()
}

func newEndpoint() *endpoint {
	ep := &endpoint{}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

func (ep *endpoint) deliver(m message) {
	ep.mu.Lock()
	ep.queue = append(ep.queue, m)
	ep.mu.Unlock()
	ep.cond.Broadcast()
}

// take removes and returns the first message matching (commID, src, tag),
// blocking until one arrives. FIFO order per (commID, src, tag) triple is
// guaranteed because deliver appends and take scans from the front.
func (ep *endpoint) take(commID uint64, src, tag int) message {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if ep.poisoned {
			panic("comm: peer rank failed while this rank was receiving")
		}
		for i, m := range ep.queue {
			if m.commID == commID && m.src == src && m.tag == tag {
				last := len(ep.queue) - 1
				copy(ep.queue[i:], ep.queue[i+1:])
				ep.queue[last] = message{} // do not keep the payload reachable
				ep.queue = ep.queue[:last]
				return m
			}
		}
		ep.cond.Wait()
	}
}

func (ep *endpoint) poison() {
	ep.mu.Lock()
	ep.poisoned = true
	ep.mu.Unlock()
	ep.cond.Broadcast()
}

// Send transmits a copy of data to communicator rank dst with the given tag.
// It has buffered semantics: it returns as soon as the payload is enqueued
// at the destination. The simulated clock is charged the send overhead; the
// payload becomes available to the receiver α + β·bytes after the send.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.sendInternal(dst, tag, data)
}

// Isend is Send with an explicit request handle; with buffered semantics the
// request is already complete, so Wait on it is a no-op and every Isend
// returns the same handle. It exists so the overlapped halo-exchange code
// reads like its MPI original.
func (c *Comm) Isend(dst, tag int, data []float64) *Request {
	c.sendInternal(dst, tag, data)
	return completed
}

// completed is the request every buffered send returns; nothing writes it.
var completed = &Request{done: true}

// sendInternal implements the buffered send. The copy lands in a buffer from
// the destination endpoint's free list; the transport call that consumes the
// message (RecvInto, the collectives' internal receives) puts it back, so a
// steady exchange pattern stops allocating once every size has been in
// flight. Recv instead hands the buffer to its caller for good.
//
//cadyvet:assumeclean simulated MPI transport: the payload copy models MPI's internal buffering; the free list and the receive queue grow only until every message size has been in flight (TestStepSteadyStateBytesMultiRank pins the steady state)
func (c *Comm) sendInternal(dst, tag int, data []float64) {
	if dst == c.rank {
		panic(fmt.Sprintf("comm: rank %d sending to itself (use local copies)", c.rank))
	}
	bytes := 8 * len(data)
	m := c.world.model
	c.stats.countSend(bytes)
	c.stats.addCommTime(m.SendOverhead)
	var extraDelay float64
	if f := c.world.faults; f != nil {
		// Fault injection: transient send errors cost the sender simulated
		// retransmit time (advancing its clock before the payload departs);
		// jitter delays only the payload's availability at the receiver.
		delay, senderCost := f.sendFault(c.myWorldRank())
		if senderCost > 0 {
			c.stats.addCommTime(senderCost)
		}
		extraDelay = delay
	}
	ep := c.world.eps[c.worldRank(dst)]
	payload := ep.payload(len(data))
	copy(payload, data)
	ep.deliver(message{
		commID:  c.id,
		src:     c.rank,
		tag:     tag,
		data:    payload,
		sentAt:  c.stats.Clock,
		availAt: c.stats.Clock + m.msgCost(bytes) + extraDelay,
	})
}

// Recv blocks until a message from communicator rank src with the given tag
// arrives, and returns its payload, which the caller then owns (it is never
// recycled). The simulated clock stalls to the message's availability time if
// the rank got here early (that stall is the modeled communication wait).
//
//cadyvet:assumeclean simulated MPI transport: message drain touches the endpoint queues, which model MPI-internal buffering
func (c *Comm) Recv(src, tag int) []float64 {
	m := c.world.eps[c.myWorldRank()].take(c.id, src, tag)
	c.absorb(m)
	return m.data
}

// RecvInto is Recv that copies the payload into buf (which must be exactly
// the message length) and returns the number of values received.
//
//cadyvet:assumeclean simulated MPI transport: message drain touches the endpoint queues, which model MPI-internal buffering
func (c *Comm) RecvInto(src, tag int, buf []float64) int {
	ep := c.world.eps[c.myWorldRank()]
	m := ep.take(c.id, src, tag)
	c.absorb(m)
	if len(buf) < len(m.data) {
		panic(fmt.Sprintf("comm: RecvInto buffer too small: %d < %d", len(buf), len(m.data)))
	}
	n := copy(buf, m.data)
	ep.recycle(m.data)
	return n
}

// release hands back a payload obtained from Recv once the caller is done
// reading it. It is for the collectives in this package, which consume their
// internal receives on the spot; a payload that escaped to user code is never
// released.
func (c *Comm) release(payload []float64) {
	c.world.eps[c.myWorldRank()].recycle(payload)
}

// absorb advances the clock for a drained message: stall until availability,
// then pay the receive-side overhead. The portion of the message's flight
// time the receiver did NOT stall for was hidden behind its own compute (or
// other traffic), and is credited to Stats.HiddenTime; the stall itself is
// the exposed wait, charged to CommTime as before.
func (c *Comm) absorb(m message) {
	mod := c.world.model
	wait := m.availAt - c.stats.Clock
	if wait < 0 {
		wait = 0
	}
	if flight := m.availAt - m.sentAt; flight > wait {
		c.stats.addHiddenTime(flight - wait)
	}
	c.stats.addCommTime(wait + mod.SendOverhead)
}

// Request is the handle of a nonblocking operation.
type Request struct {
	done bool
	c    *Comm
	src  int
	tag  int
	buf  []float64
	n    int
}

// Irecv posts a nonblocking receive of a message from src with the given
// tag into buf; completion happens in Wait. (Matching is deferred to Wait,
// which is observationally equivalent for FIFO-per-pair matching.)
//
//cadyvet:assumeclean simulated MPI transport: the request handle models MPI's internal bookkeeping, outside the per-rank zero-alloc kernel budget
func (c *Comm) Irecv(src, tag int, buf []float64) *Request {
	return &Request{c: c, src: src, tag: tag, buf: buf}
}

// Wait blocks until the operation completes and returns the number of values
// transferred (0 for sends).
func (r *Request) Wait() int {
	if r.done {
		return r.n
	}
	r.n = r.c.RecvInto(r.src, r.tag, r.buf)
	r.done = true
	return r.n
}

// WaitAll completes every request.
func WaitAll(reqs ...*Request) {
	for _, r := range reqs {
		r.Wait()
	}
}
