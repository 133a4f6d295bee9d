package filter

import (
	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/topo"
)

// batchRow identifies one filtered row across the batched fields: fi
// indexes the field list.
type batchRow struct {
	fi   int
	j, k int
}

// batchScratch holds the reusable buffers of ApplyDistBatch. They grow
// lazily to the steady per-step sizes on the first distributed call and are
// reused afterwards, so the transpose round-trip performs no steady-state
// heap allocation.
type batchScratch struct {
	rows []batchRow
	send [][]float64
	recv [][]float64
	full [][]float64
}

// growSlots resizes a slice-of-buffers to n slots, reallocating only when
// the capacity is exceeded (which drops the retained inner buffers; they are
// regrown on use).
func growSlots(s [][]float64, n int) [][]float64 {
	if cap(s) < n {
		return make([][]float64, n)
	}
	return s[:n]
}

// growBuf resizes one buffer to exactly n values, reallocating only when the
// capacity is exceeded. Contents are unspecified — every caller overwrites
// the full length before reading it.
func growBuf(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// batchSeg returns the x-segment [i0, i0+n) of one catalogued row.
func batchSeg(fs []*field.F3, id batchRow, i0, n int) []float64 {
	fld := fs[id.fi]
	base := fld.Index(i0, id.j, id.k)
	return fld.Data[base : base+n]
}

// ApplyDistBatch filters the owned region of several fields (a 2-D field
// passed as its one level) in ONE transpose round-trip: the rank row
// (t.RowX) ships the x-segments of all fields' filtered rows in the same
// Alltoall payloads, so each member holds complete latitude rows, filters
// them, and a second Alltoall scatters them back. A production X-Y implementation batches this
// way — it pays the two Alltoalls once per tendency instead of once per
// component. Only rows poleward of the cutoff enter the transpose.
// Communication is attributed to comm.CatCollectiveX.
//
// The per-row FFTs do not interact, so the result equals Apply on complete
// rows bit for bit. With p_x = 1 it is Apply on the owned region, with no
// communication. Returns the number of rows this rank filtered.
func (f *Filter) ApplyDistBatch(t *topo.Topology, fs []*field.F3) int {
	rx := t.RowX
	if rx == nil || rx.Size() == 1 {
		rows := 0
		for _, fld := range fs {
			rows += f.Apply(fld, fld.B.Owned())
		}
		return rows
	}
	prev := t.World.SetCategory(comm.CatCollectiveX)
	defer t.World.SetCategory(prev)

	nx := f.g.Nx
	px := rx.Size()

	// Row catalog: every filtered (field, j, k) row across all fields, in a
	// deterministic order shared by all members of the x communicator
	// (blocks share J/K ranges along x); a one-level field's rows sit at k = 0.
	rows := f.batch.rows[:0]
	for fi, fld := range fs {
		b := fld.B
		for k := b.K0; k < b.K1; k++ {
			for j := b.J0; j < b.J1; j++ {
				if f.Active(j) {
					rows = append(rows, batchRow{fi, j, k})
				}
			}
		}
	}
	f.batch.rows = rows
	nrows := len(rows)
	if nrows == 0 {
		return 0
	}

	b0 := t.Block
	nxLoc := b0.I1 - b0.I0
	myLo, myHi := rx.Rank()*nrows/px, (rx.Rank()+1)*nrows/px

	// Transpose 1: ship my x-segment of every row to the row's owner.
	send := growSlots(f.batch.send, px)
	recv := growSlots(f.batch.recv, px)
	f.batch.send, f.batch.recv = send, recv
	for r := 0; r < px; r++ {
		rLo, rHi := r*nrows/px, (r+1)*nrows/px
		xSeg := (r+1)*nx/px - r*nx/px
		send[r] = growBuf(send[r], (rHi-rLo)*nxLoc)
		for q := rLo; q < rHi; q++ {
			copy(send[r][(q-rLo)*nxLoc:], batchSeg(fs, rows[q], b0.I0, nxLoc))
		}
		recv[r] = growBuf(recv[r], (myHi-myLo)*xSeg)
	}
	rx.Alltoall(send, recv)

	// Assemble, filter, disassemble.
	full := growSlots(f.batch.full, myHi-myLo)
	f.batch.full = full
	for q := range full {
		full[q] = growBuf(full[q], nx)
	}
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := (r+1)*nx/px - i0
		for q := myLo; q < myHi; q++ {
			copy(full[q-myLo][i0:i0+segLen], recv[r][(q-myLo)*segLen:])
		}
	}
	for q := myLo; q < myHi; q++ {
		f.FilterRow(full[q-myLo], rows[q].j)
	}

	// Transpose 2: scatter filtered segments back.
	for r := 0; r < px; r++ {
		i0 := r * nx / px
		segLen := (r+1)*nx/px - i0
		send[r] = growBuf(send[r], (myHi-myLo)*segLen)
		for q := myLo; q < myHi; q++ {
			copy(send[r][(q-myLo)*segLen:], full[q-myLo][i0:i0+segLen])
		}
		rLo, rHi := r*nrows/px, (r+1)*nrows/px
		recv[r] = growBuf(recv[r], (rHi-rLo)*nxLoc)
	}
	rx.Alltoall(send, recv)
	for r := 0; r < px; r++ {
		rLo, rHi := r*nrows/px, (r+1)*nrows/px
		for q := rLo; q < rHi; q++ {
			copy(batchSeg(fs, rows[q], b0.I0, nxLoc), recv[r][(q-rLo)*nxLoc:(q-rLo)*nxLoc+nxLoc])
		}
	}
	return myHi - myLo
}
