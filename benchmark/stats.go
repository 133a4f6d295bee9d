package main

import (
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for an empty slice) without reordering
// the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported percentile: with
// fewer, the "percentile" is one or two outliers and does not repeat.
const tailBeyond = 10

// tail returns the highest whole percentile up to 95 that leaves at least
// tailBeyond samples beyond it, and the sample at that rank. With fewer than
// 2·tailBeyond samples no percentile above the median qualifies and the
// median is returned (pct 50).
func tail(xs []float64) (pct int, v float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	for pct = 95; pct > 50; pct-- {
		// Nearest rank: the smallest sample with pct% of the samples at or
		// below it; n-1-idx samples lie beyond it.
		idx := (n*pct+99)/100 - 1
		if n-1-idx >= tailBeyond {
			return pct, s[idx]
		}
	}
	return 50, median(xs)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// resources is one getrusage(RUSAGE_SELF) reading.
type resources struct {
	cpuSec    float64 // user + system CPU seconds of the whole process
	peakRSSMB float64 // ru_maxrss (KiB on Linux) in MiB
}

func usage() resources {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return resources{}
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return resources{cpuSec: tv(ru.Utime) + tv(ru.Stime), peakRSSMB: float64(ru.Maxrss) / 1024}
}

// timeCalls runs fn reps times, each timed over inner back-to-back calls,
// and returns the median seconds per call. Replays use it so one scheduler
// hiccup does not move the reported figure.
func timeCalls(reps, inner int, fn func()) float64 {
	per := make([]float64, reps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < inner; i++ {
			fn()
		}
		per[r] = time.Since(t0).Seconds() / float64(inner)
	}
	return median(per)
}

// series is what a timed pass records per unit of work (a model step or a
// job), in the order the units were started.
type series struct {
	start time.Time   // when the first timed unit began
	cpu0  float64     // process CPU seconds at start
	lat   []float64   // ms each unit took
	end   []time.Time // when each unit was over
	cpu   []float64   // process CPU seconds when each unit was over
}

func (s *series) add(lat float64, end time.Time, cpu float64) {
	s.lat = append(s.lat, lat)
	s.end = append(s.end, end)
	s.cpu = append(s.cpu, cpu)
}

// quietWindow is the length, in consecutive units, of the stretch of the run
// the end-to-end timings are taken from. The build host shares its cores: a
// neighbour slows the run for seconds to tens of seconds at a time, CPU time
// per unit included, which moves a whole-run figure by a quarter between
// identical runs. Interference only ever slows a stretch down, so each figure
// is taken from the window of quietWindow consecutive units where it was best,
// out of every such window of the run (they overlap: the window slides by one
// unit). A window is 1–2 s of work here and two whole periods of the job mix;
// it is a stretch of consecutive units, so a stall that recurs every few
// units — a GC cycle, a checkpoint every other step — is inside every window
// and is not hidden.
const quietWindow = 20

// endToEnd fills the three timing metrics from the series. Units may overlap
// (two clients), so they are taken in the order they ended: a window is then
// quietWindow consecutive completions, and its wall and CPU time run from the
// completion before it to its last.
func (s *series) endToEnd(m map[string]float64) {
	n := len(s.lat)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return s.end[order[a]].Before(s.end[order[b]]) })
	lat := make([]float64, n)
	for k, i := range order {
		lat[k] = s.lat[i]
	}
	w := min(quietWindow, n)
	for lo := 0; lo+w <= n; lo++ {
		from, cpuFrom := s.start, s.cpu0
		if lo > 0 {
			from, cpuFrom = s.end[order[lo-1]], s.cpu[order[lo-1]]
		}
		last := order[lo+w-1]
		mid := trimmedMean(lat[lo : lo+w])
		perSec := float64(w) / s.end[last].Sub(from).Seconds()
		cpuMs := (s.cpu[last] - cpuFrom) * 1e3 / float64(w)
		if lo == 0 || mid < m["unit_ms_mid"] {
			m["unit_ms_mid"] = mid
		}
		if lo == 0 || perSec > m["units_per_s"] {
			m["units_per_s"] = perSec
		}
		if lo == 0 || cpuMs < m["cpu_ms_per_unit"] {
			m["cpu_ms_per_unit"] = cpuMs
		}
	}
}

// trimmedMean is the mean of xs without its lowest and highest tenth. It is
// deaf to a straggler or two in a window of quietWindow units, and unlike a
// median it moves smoothly when the samples fall into two groups of about
// equal size (fleet_mix: jobs that found their backend free, jobs that waited
// for a whole job), where the median jumps from one group to the other.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	s = s[len(s)/10 : len(s)-len(s)/10]
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}
