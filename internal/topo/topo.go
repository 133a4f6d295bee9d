// Package topo maps the global latitude–longitude mesh onto a Cartesian
// process grid and provides the halo-exchange engines the stencil operators
// use. It supports the three decompositions the paper analyzes:
//
//	X-Y decomposition: p = px·py, pz = 1 — avoids the z collective, pays a
//	  distributed FFT in the Fourier filter (Section 4.2).
//	Y-Z decomposition: p = py·pz, px = 1 — the filter becomes local; used by
//	  both the baseline Y-Z algorithm and the communication-avoiding one.
//	General 3-D grids are also representable (px·py·pz).
//
// The exchange engine is fully general in halo depth: each rank sends to and
// receives from exactly the set of ranks whose owned regions intersect its
// halo region (with longitude periodicity), so the communication-avoiding
// deep halos (3M layers) work even when they span more than one neighboring
// block. With depth ≤ block extent this reduces to the paper's 8-neighbor
// scheme in the decomposed plane.
package topo

import (
	"fmt"

	"cadycore/internal/comm"
	"cadycore/internal/field"
	"cadycore/internal/grid"
)

// Topology is one rank's view of the process grid and its block of the mesh.
type Topology struct {
	G          *grid.Grid
	Px, Py, Pz int
	// World is the communicator spanning all px·py·pz ranks.
	World *comm.Comm
	// Cx, Cy, Cz are this rank's coordinates in the process grid.
	Cx, Cy, Cz int
	// RowX spans the ranks sharing (Cy, Cz), ordered by Cx: the communicator
	// of the distributed Fourier filter. Size 1 under Y-Z decomposition.
	RowX *comm.Comm
	// ColZ spans the ranks sharing (Cx, Cy), ordered by Cz: the communicator
	// of the vertical summation Ĉ. Size 1 under X-Y decomposition.
	ColZ *comm.Comm
	// Block is the owned sub-box including the allocated halo widths.
	Block field.Block

	// rowStarts, when non-nil, is the non-uniform y partition: process row
	// cy owns global rows [rowStarts[cy], rowStarts[cy+1]). Nil means the
	// canonical uniform partition cy*Ny/py.
	rowStarts []int
}

// New builds the topology for the calling rank. The communicator's size must
// equal px·py·pz; hx, hy, hz are the halo widths to allocate (they bound the
// exchange depths usable later). Ranks are laid out x-fastest:
// rank = (cz·py + cy)·px + cx.
func New(c *comm.Comm, g *grid.Grid, px, py, pz, hx, hy, hz int) *Topology {
	return NewWithRows(c, g, px, py, pz, hx, hy, hz, nil)
}

// NewWithRows is New with an explicit y-row partition: process row cy owns
// global rows [rowStarts[cy], rowStarts[cy+1]). rowStarts must have py+1
// strictly increasing entries from 0 to g.Ny; nil selects the uniform
// partition. Unbalanced partitions let the planner give polar ranks — whose
// rows carry extra Fourier-filter work — fewer rows than mid-latitude ranks.
func NewWithRows(c *comm.Comm, g *grid.Grid, px, py, pz, hx, hy, hz int, rowStarts []int) *Topology {
	p := c.Size()
	if px*py*pz != p {
		panic(fmt.Sprintf("topo: process grid %dx%dx%d != communicator size %d", px, py, pz, p))
	}
	if px > g.Nx || py > g.Ny || pz > g.Nz {
		panic(fmt.Sprintf("topo: process grid %dx%dx%d exceeds mesh %dx%dx%d",
			px, py, pz, g.Nx, g.Ny, g.Nz))
	}
	if rowStarts != nil {
		if len(rowStarts) != py+1 {
			panic(fmt.Sprintf("topo: rowStarts has %d entries, want py+1 = %d", len(rowStarts), py+1))
		}
		if rowStarts[0] != 0 || rowStarts[py] != g.Ny {
			panic(fmt.Sprintf("topo: rowStarts must span [0, %d], got [%d, %d]",
				g.Ny, rowStarts[0], rowStarts[py]))
		}
		for i := 0; i < py; i++ {
			if rowStarts[i+1] <= rowStarts[i] {
				panic(fmt.Sprintf("topo: rowStarts not strictly increasing at %d: %v", i, rowStarts))
			}
		}
	}
	r := c.Rank()
	cx := r % px
	cy := (r / px) % py
	cz := r / (px * py)

	t := &Topology{
		G: g, Px: px, Py: py, Pz: pz,
		World: c,
		Cx:    cx, Cy: cy, Cz: cz,
		rowStarts: append([]int(nil), rowStarts...),
	}
	j0, j1 := t.yRange(cy)
	t.Block = field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: cx * g.Nx / px, I1: (cx + 1) * g.Nx / px,
		J0: j0, J1: j1,
		K0: cz * g.Nz / pz, K1: (cz + 1) * g.Nz / pz,
		Hx: hx, Hy: hy, Hz: hz,
	}
	t.Block.Validate()

	// Sub-communicators. Split is collective; every rank calls both splits
	// in the same order.
	t.RowX = c.Split(cz*py+cy, cx)
	t.ColZ = c.Split(cy*px+cx, cz)
	return t
}

// yRange returns the owned row range [j0, j1) of process row cy.
func (t *Topology) yRange(cy int) (j0, j1 int) {
	if t.rowStarts == nil {
		return cy * t.G.Ny / t.Py, (cy + 1) * t.G.Ny / t.Py
	}
	return t.rowStarts[cy], t.rowStarts[cy+1]
}

// RowStarts returns the y-partition boundaries (py+1 entries, starts[cy] is
// the first global row of process row cy). The slice is freshly allocated;
// it reflects the uniform partition when no explicit one was given.
func (t *Topology) RowStarts() []int {
	starts := make([]int, t.Py+1)
	for cy := 0; cy < t.Py; cy++ {
		starts[cy], _ = t.yRange(cy)
	}
	starts[t.Py] = t.G.Ny
	return starts
}

// RowWindow returns the owned row range [lo, hi) of the process row that
// owns global row j. The stencil operators use it to bound data availability
// when regrouping y-direction smoothing around block edges.
func (t *Topology) RowWindow(j int) (lo, hi int) {
	if t.rowStarts == nil {
		py, ny := t.Py, t.G.Ny
		w := j * py / ny
		for w > 0 && j < w*ny/py {
			w--
		}
		for w < py-1 && j >= (w+1)*ny/py {
			w++
		}
		return w * ny / py, (w + 1) * ny / py
	}
	for cy := 0; cy < t.Py; cy++ {
		if j < t.rowStarts[cy+1] {
			return t.rowStarts[cy], t.rowStarts[cy+1]
		}
	}
	return t.rowStarts[t.Py-1], t.rowStarts[t.Py]
}

// BlockOf returns the owned block of an arbitrary rank (same halo widths).
func (t *Topology) BlockOf(rank int) field.Block {
	px, py := t.Px, t.Py
	g := t.G
	cx := rank % px
	cy := (rank / px) % py
	cz := rank / (px * py)
	j0, j1 := t.yRange(cy)
	return field.Block{
		Nx: g.Nx, Ny: g.Ny, Nz: g.Nz,
		I0: cx * g.Nx / px, I1: (cx + 1) * g.Nx / px,
		J0: j0, J1: j1,
		K0: cz * g.Nz / t.Pz, K1: (cz + 1) * g.Nz / t.Pz,
		Hx: t.Block.Hx, Hy: t.Block.Hy, Hz: t.Block.Hz,
	}
}

// String implements fmt.Stringer.
func (t *Topology) String() string {
	return fmt.Sprintf("topo %dx%dx%d rank(%d,%d,%d) block %v",
		t.Px, t.Py, t.Pz, t.Cx, t.Cy, t.Cz, t.Block.Owned())
}
