package comm

import (
	"fmt"
	"slices"
	"sync"
)

// message is one in-flight point-to-point message: the values of data's runs
// (all of data when runs is nil), which the receiver copies out in place.
// Senders never block on the receiver, so the algorithms above are
// deadlock-free as long as every send is eventually matched by a receive and
// a lender waits for its loans only after posting its own receives.
type message struct {
	commID  uint64
	src     int // communicator rank of the sender
	tag     int
	data    []float64
	runs    []Run
	n       int     // values carried
	loans   *Loans  // settled once the values are copied out; nil for Send's private copy
	sentAt  float64 // sender's simulated time when the payload departed
	availAt float64 // simulated time at which the payload is available
}

// Run is a stretch of Len contiguous values starting at offset Off of a
// slice; a run list scatters a message over a field's storage rows.
type Run struct{ Off, Len int }

// values returns how many values the runs of buf hold; nil runs are all of buf.
func values(buf []float64, runs []Run) int {
	if runs == nil {
		return len(buf)
	}
	n := 0
	for _, r := range runs {
		n += r.Len
	}
	return n
}

// Loans counts the messages a rank has lent whose receivers have not yet
// copied them out; the lender must not write lent memory until Wait returns.
// The zero value is an empty group. A group belongs to one rank.
type Loans struct {
	ep *endpoint // the lender's endpoint: its mu guards n, its cond wakes Wait
	n  int
}

// Wait blocks until every message lent under l has been copied out. Like a
// blocked receive, it panics when a peer rank failed.
func (l *Loans) Wait() {
	ep := l.ep
	if ep == nil {
		return // nothing was ever lent
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for l.n > 0 {
		if ep.poisoned {
			panic("comm: peer rank failed while this rank waited for its loans")
		}
		ep.cond.Wait()
	}
}

// endpoint is the receive queue of one world rank. Its lock and condition
// variable also guard and signal the loans of the rank's lent messages.
type endpoint struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queue    []message
	poisoned bool
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

// Send transmits a copy of data to communicator rank dst with the given tag;
// the caller may reuse data as soon as Send returns. It lends a private copy,
// so it allocates per message; a steady exchange lends its own memory (Lend).
func (c *Comm) Send(dst, tag int, data []float64) {
	c.post(dst, tag, message{data: slices.Clone(data), n: len(data)})
}

// Lend transmits the values of data's runs (all of data when runs is nil), in
// run order, to communicator rank dst with the given tag. The receiver copies
// them straight out of data, so the caller must not write them until l.Wait
// returns. Accounting is that of a Send of the same values.
func (c *Comm) Lend(dst, tag int, data []float64, runs []Run, l *Loans) {
	ep := c.world.eps[c.worldRank(c.rank)]
	ep.mu.Lock()
	if l.ep == nil { // set once: receivers read it unlocked to settle
		l.ep = ep
	}
	l.n++
	ep.mu.Unlock()
	c.post(dst, tag, message{data: data, runs: runs, n: values(data, runs), loans: l})
}

// post stamps m and delivers it. The simulated clock is charged the send
// overhead; the payload becomes available to the receiver α + β·bytes after
// the send.
func (c *Comm) post(dst, tag int, m message) {
	if dst == c.rank {
		panic(fmt.Sprintf("comm: rank %d sending to itself (use local copies)", c.rank))
	}
	bytes := 8 * m.n
	mod := c.world.model
	c.stats.countSend(bytes)
	c.stats.addCommTime(mod.SendOverhead)
	var extraDelay float64
	if f := c.world.faults; f != nil {
		// Fault injection: transient send errors cost the sender simulated
		// retransmit time (advancing its clock before the payload departs);
		// jitter delays only the payload's availability at the receiver.
		delay, senderCost := f.sendFault(c.worldRank(c.rank))
		if senderCost > 0 {
			c.stats.addCommTime(senderCost)
		}
		extraDelay = delay
	}
	m.commID, m.src, m.tag = c.id, c.rank, tag
	m.sentAt = c.stats.Clock
	m.availAt = c.stats.Clock + mod.msgCost(bytes) + extraDelay
	c.world.eps[c.worldRank(dst)].deliver(m)
}

// RecvInto blocks until a message from communicator rank src with the given
// tag arrives, copies its values into buf (which must hold at least the
// message length) and returns the number of values received. The simulated
// clock stalls to the message's availability time if the rank got here early
// (that stall is the modeled communication wait).
func (c *Comm) RecvInto(src, tag int, buf []float64) int {
	return c.RecvRuns(src, tag, buf, nil)
}

// RecvRuns is RecvInto that scatters the message's values over the runs of
// buf, in run order; the runs must hold at least the message length. Once
// the values are copied it settles the sender's loan.
func (c *Comm) RecvRuns(src, tag int, buf []float64, runs []Run) int {
	m := c.world.eps[c.worldRank(c.rank)].take(c.id, src, tag)
	c.absorb(m)
	if room := values(buf, runs); room < m.n {
		panic(fmt.Sprintf("comm: receive buffer too small: %d < %d", room, m.n))
	}
	copyRuns(buf, runs, m.data, m.runs)
	if l := m.loans; l != nil {
		l.ep.mu.Lock()
		l.n--
		last := l.n == 0
		l.ep.mu.Unlock()
		if last {
			l.ep.cond.Broadcast()
		}
	}
	return m.n
}

// copyRuns copies the values of src's runs sr, in order, into dst's runs
// dr, in order; nil runs are the whole slice. The two lists may cut the
// values differently, but dr must hold them all.
func copyRuns(dst []float64, dr []Run, src []float64, sr []Run) {
	if dr == nil {
		dr = []Run{{0, len(dst)}}
	}
	if sr == nil {
		sr = []Run{{0, len(src)}}
	}
	di, doff := 0, 0 // current destination run and how much of it is filled
	for _, s := range sr {
		for s.Len > 0 {
			for dr[di].Len == doff {
				di, doff = di+1, 0
			}
			d := dr[di]
			k := copy(dst[d.Off+doff:d.Off+d.Len], src[s.Off:s.Off+s.Len])
			s.Off += k
			s.Len -= k
			doff += k
		}
	}
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
