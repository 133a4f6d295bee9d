package comm

// Event tracing: when enabled on a World, every advance of a rank's
// simulated clock is recorded as a span — computation, or communication in
// its current accounting category. The timeline renderer
// (internal/trace) turns the spans into a per-rank Gantt chart that makes
// the communication/computation overlap of Algorithm 2 visible.

// EventKind classifies a traced span.
type EventKind int

const (
	// EvCompute is time spent in Compute.
	EvCompute EventKind = iota
	// EvComm is time spent in communication (send/receive overhead and
	// message waits), attributed to the Category current at the time.
	EvComm
)

// Event is one span of a rank's simulated time.
type Event struct {
	Rank int
	Kind EventKind
	Cat  Category
	T0   float64
	T1   float64
}

// Recorder collects events per rank. Each rank appends only to its own
// slice (ranks are single goroutines), so no locking is needed until
// Events() merges them after Run returns.
type Recorder struct {
	perRank [][]Event
}

// EnableTrace attaches a recorder to the world; call before Run. Tracing
// records one event per clock advance, so keep runs short when tracing.
func (w *World) EnableTrace() *Recorder {
	r := &Recorder{perRank: make([][]Event, w.size)}
	for i, c := range w.comms {
		c.stats.trace = r
		c.stats.traceRank = i
	}
	return r
}

// Events returns all recorded events (rank-major, time-ordered within each
// rank). Call after Run has returned.
func (r *Recorder) Events() []Event {
	var out []Event
	for _, evs := range r.perRank {
		out = append(out, evs...)
	}
	return out
}

// Ranks returns the number of ranks traced.
func (r *Recorder) Ranks() int { return len(r.perRank) }

// record appends a span for a rank (called from the rank's own goroutine).
func (r *Recorder) record(e Event) {
	if e.T1 <= e.T0 {
		return
	}
	r.perRank[e.Rank] = append(r.perRank[e.Rank], e)
}
