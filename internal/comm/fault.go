package comm

import "fmt"

// Faults is the communication-layer half of a fault-injection profile:
// per-rank straggler scaling of the simulated compute rate, seeded message
// delay jitter, and transient send errors charged to the sender's clock.
// It is deliberately a concrete type with concrete methods — the hot paths
// (Compute, post) carry no interface dispatch or boxing, and a nil
// *Faults on the World leaves those paths bitwise
// identical to a fault-free build.
//
// All draws come from per-rank splitmix64 streams consumed in each rank's
// own program order, so injected faults are deterministic: they depend only
// on the seed and the rank's sequence of operations, never on goroutine
// scheduling. The planned, JSON-specified front end is internal/fault.
type Faults struct {
	ranks []RankFaults
}

// RankFaults holds one rank's injection parameters. The zero value of every
// field (with ComputeScale normalized to 1 by NewFaults) injects nothing.
type RankFaults struct {
	// ComputeScale >= 1 multiplies the rank's simulated compute time — a
	// straggler rank is one whose effective ComputeRate is divided by this.
	ComputeScale float64
	// JitterProb is the per-message probability of delay jitter; a jittered
	// message's availability is pushed back by U(0, JitterMax) seconds.
	JitterProb float64
	JitterMax  float64
	// SendErrProb is the per-message probability of a transient send error;
	// each error costs the sender SendErrCost seconds (the simulated
	// retransmit), which also pushes back the payload's departure since the
	// sender's clock advances. Errors repeat geometrically up to
	// maxSendRetries.
	SendErrProb float64
	SendErrCost float64

	rng uint64 // splitmix64 state, consumed only by this rank's goroutine
}

// maxSendRetries bounds the geometric transient-error repetition so a
// probability near 1 cannot stall a send forever.
const maxSendRetries = 8

// NewFaults returns an inert profile for a p-rank world: every rank scales
// compute by 1 and injects nothing, with per-rank streams derived from seed.
func NewFaults(p int, seed int64) *Faults {
	f := &Faults{ranks: make([]RankFaults, p)}
	for r := range f.ranks {
		f.ranks[r].ComputeScale = 1
		f.ranks[r].rng = (uint64(seed)+1)*0x9e3779b97f4a7c15 ^ uint64(r)*0xd1342543de82ef95
	}
	return f
}

// Size returns the number of ranks the profile covers.
func (f *Faults) Size() int { return len(f.ranks) }

// Rank returns rank r's parameters for configuration before the run starts.
func (f *Faults) Rank(r int) *RankFaults { return &f.ranks[r] }

// next returns the next deterministic uniform draw in [0, 1) from this
// rank's stream (splitmix64).
func (rf *RankFaults) next() float64 {
	rf.rng += 0x9e3779b97f4a7c15
	z := rf.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// computeScale returns the straggler factor of world rank r.
func (f *Faults) computeScale(r int) float64 { return f.ranks[r].ComputeScale }

// sendFault draws the injected cost of one message sent by world rank src:
// delay is jitter added to the payload's availability time on top of the
// sender's (possibly retransmit-advanced) clock, senderCost is simulated
// time the sender loses to transient retransmits before the payload departs.
func (f *Faults) sendFault(src int) (delay, senderCost float64) {
	rf := &f.ranks[src]
	if rf.JitterProb > 0 && rf.next() < rf.JitterProb {
		delay = rf.next() * rf.JitterMax
	}
	if rf.SendErrProb > 0 {
		for i := 0; i < maxSendRetries && rf.next() < rf.SendErrProb; i++ {
			senderCost += rf.SendErrCost
		}
	}
	return delay, senderCost
}

// SetFaults installs a fault-injection profile on the world. Call it before
// Run. A nil profile (the default) keeps the communication and compute paths
// bitwise identical to a fault-free build — the simulated clock, statistics
// and results do not change at all.
func (w *World) SetFaults(f *Faults) {
	if f != nil && f.Size() != w.size {
		panic(fmt.Sprintf("comm: fault profile covers %d ranks, world has %d", f.Size(), w.size))
	}
	w.faults = f
}

// RankPanic wraps a panic raised on a rank goroutine so World.Run can
// re-raise it on the caller without losing the original value — a typed
// fault-injection abort (see dycore.RankFailure) stays type-assertable
// through the runtime instead of being flattened to a string.
type RankPanic struct {
	Rank int // world rank that panicked
	Val  any // the original panic value
}

// Error implements error; the format matches the historical string panic.
func (e RankPanic) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Val) }

// injectedFault is implemented by panic values that represent deliberate
// fault injection (dycore.RankFailure). When several ranks panic in one run
// — the injected death plus the receive-poison cascade it triggers — the
// injected value wins the "first panic" selection so callers see the cause,
// not a symptom.
type injectedFault interface{ InjectedFault() }
