// Package costmodel implements the theoretical communication/synchronization
// cost model of the paper's Section 5.3 (following Solomonik et al.'s
// synchronization–communication–computation trade-off framework): the
// per-processor data movement W and synchronization count S of the three
// algorithms, plus the lower bounds of Theorems 4.1 and 4.2 used to justify
// the Y-Z decomposition. harness.TheoryTable sets all of them beside the
// runs' measured counters; the bounds fill its W(bound) column.
package costmodel

import "math"

// Problem describes one run configuration for the model.
type Problem struct {
	Nx, Ny, Nz int
	M          int // nonlinear iterations per step
	K          int // time steps
	Px, Py, Pz int // process grid (only the relevant two are used per scheme)
}

// log2p returns log2(p), and 0 for p ≤ 1: a collective over one rank moves
// no data, so a W whose split axis is unsplit is 0.
func log2p(p int) float64 {
	if p <= 1 {
		return 0
	}
	return math.Log2(float64(p))
}

// WCommAvoid is the paper's W_CA = Θ(2MK · n_x·(n_y/p_y)·(n_z/p_z)·log p_z):
// the communication-avoiding algorithm moves 2M z-collectives per step of
// its block's share of the mesh.
func WCommAvoid(p Problem) float64 {
	return 2 * float64(p.M) * float64(p.K) *
		float64(p.Nx) * float64(p.Ny) / float64(p.Py) * float64(p.Nz) / float64(p.Pz) *
		log2p(p.Pz)
}

// WOriginalYZ is W_YZ = Θ(3MK · n_x·(n_y/p_y)·(n_z/p_z)·log p_z).
func WOriginalYZ(p Problem) float64 {
	return 3 * float64(p.M) * float64(p.K) *
		float64(p.Nx) * float64(p.Ny) / float64(p.Py) * float64(p.Nz) / float64(p.Pz) *
		log2p(p.Pz)
}

// WOriginalXY is W_XY = Θ(6MK · n_z·(n_y/p_y)·(n_x/p_x)·log p_x): the
// distributed-FFT filtering moves each rank's share in every one of the ~6M
// filtered tendencies per step.
func WOriginalXY(p Problem) float64 {
	return 6 * float64(p.M) * float64(p.K) *
		float64(p.Nz) * float64(p.Ny) / float64(p.Py) * float64(p.Nx) / float64(p.Px) *
		log2p(p.Px)
}

// SCommAvoid is S_CA = Θ((2M+2)K): 2M z-collectives plus 2 neighbor-exchange
// rounds per step.
func SCommAvoid(p Problem) float64 { return float64((2*p.M + 2) * p.K) }

// SOriginalYZ is S_YZ = Θ((6M+4)K): 3M z-collectives plus 3M+4 exchanges.
func SOriginalYZ(p Problem) float64 { return float64((6*p.M + 4) * p.K) }

// SOriginalXY is S_XY = Θ((9M+10)K): per-update exchanges plus two
// transposes per distributed filtering.
func SOriginalXY(p Problem) float64 { return float64((9*p.M + 10) * p.K) }

// OverlapExposed is the overlapped-exchange refinement of the §5.3
// synchronization charge: a Begin/Finish split hides up to `window` seconds
// of a round's `cost` behind interior compute, so only the residual wait
// stays on the critical path. Both operands are non-negative seconds.
func OverlapExposed(cost, window float64) float64 {
	if window >= cost {
		return 0
	}
	if window < 0 {
		return cost
	}
	return cost - window
}

// FilterLowerBound is Theorem 4.1: the communication cost of the n_x-input
// Fourier filtering with p_x processors,
// W = Ω(2·n_x·log n_x / (p_x·log(n_x/p_x)) · η_x), η_x = 0 iff p_x = 1.
func FilterLowerBound(nx, px int) float64 {
	if px <= 1 {
		return 0
	}
	if px >= nx {
		px = nx - 1
	}
	den := float64(px) * math.Log2(float64(nx)/float64(px))
	if den <= 0 {
		return math.Inf(1)
	}
	return 2 * float64(nx) * math.Log2(float64(nx)) / den
}

// SumLowerBound is Theorem 4.2: the summation collective along z costs
// W = Ω(2(p_z−1)·n_x·n_y) in total data movement.
func SumLowerBound(nx, ny, pz int) float64 {
	return 2 * float64(pz-1) * float64(nx) * float64(ny)
}
