package filter

import (
	"math"
	"testing"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/topo"
)

// TestApplyDistBatchScratchReuse pins the grown-once transpose scratch of
// batched.go: the first distributed
// call grows the catalog and payload buffers, every later call reuses the
// same backing arrays and produces bitwise-identical results. (The
// single-rank zero-alloc tests never reach this path — it only runs with
// px > 1 — so the reuse needs its own regression.)
func TestApplyDistBatchScratchReuse(t *testing.T) {
	g := testGrid()
	const px = 4
	w := comm.NewWorld(px, comm.Zero())
	failed := make([]string, px)
	w.Run(func(c *comm.Comm) {
		tp := topo.New(c, g, px, 1, 1, 3, 1, 1)
		b := tp.Block
		fld := field.NewF3(b)
		f2 := field.NewF2(b)
		fill := func() {
			for k := b.K0; k < b.K1; k++ {
				for j := b.J0; j < b.J1; j++ {
					for i := b.I0; i < b.I1; i++ {
						fld.Set(i, j, k, math.Sin(float64(i*7+j*3+k)))
					}
				}
			}
			for j := b.J0; j < b.J1; j++ {
				for i := b.I0; i < b.I1; i++ {
					f2.Set(i, j, math.Cos(float64(i-2*j)))
				}
			}
		}
		head := func(s []float64) *float64 {
			if len(s) == 0 {
				return nil
			}
			return &s[0]
		}

		f := New(g, 60)
		fill()
		f.ApplyDistBatch(tp, []*field.F3{fld, &f2.F3})
		first := append([]float64(nil), fld.Data...)
		first2 := append([]float64(nil), f2.Data...)
		rowsPtr := &f.batch.rows[0]
		var sendPtrs, recvPtrs, fullPtrs []*float64
		for _, s := range f.batch.send {
			sendPtrs = append(sendPtrs, head(s))
		}
		for _, s := range f.batch.recv {
			recvPtrs = append(recvPtrs, head(s))
		}
		for _, s := range f.batch.full {
			fullPtrs = append(fullPtrs, head(s))
		}

		fill()
		f.ApplyDistBatch(tp, []*field.F3{fld, &f2.F3})
		for i, v := range fld.Data {
			if v != first[i] {
				failed[c.Rank()] = "second call is not bitwise identical on the 3-D field"
				return
			}
		}
		for i, v := range f2.Data {
			if v != first2[i] {
				failed[c.Rank()] = "second call is not bitwise identical on the 2-D field"
				return
			}
		}
		if &f.batch.rows[0] != rowsPtr {
			failed[c.Rank()] = "row catalog was reallocated on the second call"
			return
		}
		for i, s := range f.batch.send {
			if head(s) != sendPtrs[i] {
				failed[c.Rank()] = "send buffer was reallocated on the second call"
				return
			}
		}
		for i, s := range f.batch.recv {
			if head(s) != recvPtrs[i] {
				failed[c.Rank()] = "recv buffer was reallocated on the second call"
				return
			}
		}
		for i, s := range f.batch.full {
			if head(s) != fullPtrs[i] {
				failed[c.Rank()] = "row assembly buffer was reallocated on the second call"
				return
			}
		}
	})
	for r, msg := range failed {
		if msg != "" {
			t.Errorf("rank %d: %s", r, msg)
		}
	}
}
