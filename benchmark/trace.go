package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into a
// layer. Spans of one run (dycore) or one job (service) share Run; Parent
// indexes the lane's span list (-1 for a root).
type span struct {
	Name       string
	Run, K     int
	Parent     int
	Start, End time.Duration // since the tracer's origin
}

// lane is the span list of one goroutine (a rank or a client). Only its
// owner appends, so recording takes no lock.
type lane struct {
	t0    time.Time
	spans []span
}

func (l *lane) begin(name string, parent, run, k int) int {
	l.spans = append(l.spans, span{Name: name, Run: run, K: k, Parent: parent, Start: time.Since(l.t0)})
	return len(l.spans) - 1
}

func (l *lane) end(i int) { l.spans[i].End = time.Since(l.t0) }

// add records a span whose interval was measured elsewhere (the server's own
// timestamps).
func (l *lane) add(name string, parent, run int, start, end time.Time) {
	l.spans = append(l.spans, span{Name: name, Run: run, Parent: parent,
		Start: start.Sub(l.t0), End: end.Sub(l.t0)})
}

// tracer holds the spans of a traced pass in memory; they are written once,
// when the pass is over.
type tracer struct {
	t0    time.Time
	lanes []*lane
}

// newTracer preallocates lanes with room for spansPerLane spans each, so the
// traced pass does not grow slices while it is being timed.
func newTracer(lanes, spansPerLane int) *tracer {
	t := &tracer{t0: time.Now(), lanes: make([]*lane, lanes)}
	for i := range t.lanes {
		t.lanes[i] = &lane{t0: t.t0, spans: make([]span, 0, spansPerLane)}
	}
	return t
}

// covered returns the part of [lo, hi] the intervals cover (their union,
// clipped), which is what a parent's self time excludes.
func covered(lo, hi time.Duration, iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum time.Duration
	at := lo
	for _, x := range iv {
		s, e := x[0], x[1]
		if s < at {
			s = at
		}
		if e > hi {
			e = hi
		}
		if e > s {
			sum += e - s
			at = e
		}
	}
	return sum
}

// selfTimes returns, per span name, the summed duration and summed self time
// (duration minus the part child spans cover), and the median over parents of
// the share of a parent its children cover.
func (t *tracer) selfTimes() (total, self map[string]time.Duration, coverage float64) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	var shares []float64
	for _, l := range t.lanes {
		kids := make(map[int][][2]time.Duration)
		for _, s := range l.spans {
			if s.Parent >= 0 {
				kids[s.Parent] = append(kids[s.Parent], [2]time.Duration{s.Start, s.End})
			}
		}
		for i, s := range l.spans {
			d := s.End - s.Start
			c := covered(s.Start, s.End, kids[i])
			total[s.Name] += d
			self[s.Name] += d - c
			if len(kids[i]) > 0 && d > 0 {
				shares = append(shares, float64(c)/float64(d))
			}
		}
	}
	return total, self, median(shares)
}

// write stores the spans as Chrome trace-event JSON (load in chrome://tracing
// or Perfetto), with the run's environment, replay timings and counts
// attached under "metadata".
func (t *tracer) write(path string, meta map[string]any) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	var evs []event
	for tid, l := range t.lanes {
		for i, s := range l.spans {
			evs = append(evs, event{
				Name: s.Name, Ph: "X", Pid: 1, Tid: tid,
				Ts:   float64(s.Start) / float64(time.Microsecond),
				Dur:  float64(s.End-s.Start) / float64(time.Microsecond),
				Args: map[string]int{"id": i, "parent": s.Parent, "run": s.Run, "k": s.K},
			})
		}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms", "metadata": meta})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
