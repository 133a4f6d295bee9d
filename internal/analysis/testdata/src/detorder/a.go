// Fixture for the detorder analyzer: map-ordered loops feeding float/string
// accumulation, communication, and serialization.
package detorder

import "comm"

func sumFloats(m map[string]float64) float64 {
	var total float64
	for _, v := range m {
		total += v // want "floating-point accumulation in map-iteration order"
	}
	return total
}

func sumIntsOK(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v // ok: integer addition is associative
	}
	return n
}

func localAccOK(m map[string]float64) {
	for _, v := range m {
		x := 0.0
		x += v // ok: the accumulator lives inside the loop body
		_ = x
	}
}

func concatKeys(m map[string]bool) string {
	s := ""
	for k := range m {
		s = s + k // want "string accumulation in map-iteration order"
	}
	return s
}

func commInLoop(c *comm.Comm, m map[int][]float64) {
	for dst, buf := range m {
		c.Send(dst, 0, buf) // want "communication .Send. in map-iteration order"
	}
}

func lendInLoop(c *comm.Comm, m map[int][]float64, runs []comm.Run, l *comm.Loans) {
	for dst, buf := range m {
		c.Lend(dst, 0, buf, runs, l) // want "communication .Lend. in map-iteration order"
	}
	l.Wait()
}

func recvRunsInLoop(c *comm.Comm, m map[int][]float64, runs []comm.Run) {
	for src, buf := range m {
		c.RecvRuns(src, 0, buf, runs) // want "communication .RecvRuns. in map-iteration order"
	}
}

func recvInLoop(c *comm.Comm, m map[int][]float64) {
	for src, buf := range m {
		c.RecvInto(src, 0, buf) // want "communication .RecvInto. in map-iteration order"
	}
}

func collectiveInLoop(c *comm.Comm, m map[int]bool, buf []float64) {
	for range m {
		c.Allgather(buf, buf) // want "communication .Allgather. in map-iteration order"
	}
}

func transposeAll(c *comm.Comm, bufs [][]float64) { c.Alltoall(bufs, bufs) }

func transitively(c *comm.Comm, m map[int]bool, bufs [][]float64) {
	for range m {
		transposeAll(c, bufs) // want "communication .transposeAll, transitively. in map-iteration order"
	}
}

type sink struct{ n int }

func (s *sink) Write(p []byte) (int, error) { s.n += len(p); return len(p), nil }

func dumps(s *sink, m map[string][]byte) {
	for _, b := range m {
		s.Write(b) // want "serialization .Write. in map-iteration order"
	}
}

type writer interface {
	Write(p []byte) (int, error)
}

func dumpIface(w writer, m map[string][]byte) {
	for _, b := range m {
		w.Write(b) // want "serialization .Write. in map-iteration order"
	}
}

func waived(m map[string]float64) float64 {
	var t float64
	//cadyvet:unordered result feeds a diagnostic log line only; tolerance-compared downstream
	for _, v := range m {
		t += v
	}
	return t
}

func normalizeOK(m map[string]float64, denom float64) {
	for k := range m {
		m[k] /= denom // ok: element-wise update keyed by the loop variable
	}
}

func sortedSumOK(m map[string]float64, keys []string) float64 {
	var t float64
	for _, k := range keys {
		t += m[k] // ok: slice iteration is ordered
	}
	return t
}
