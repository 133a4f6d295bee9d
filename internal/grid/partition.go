package grid

import "math"

// This file holds the row-partition helpers the decomposition planner uses:
// the canonical uniform split and the polar-filter row mask. The polar
// Fourier filter only does work on rows poleward of its cutoff latitude, so
// the per-row cost of the dynamical core is skewed toward the poles; the
// cost-minimizing partition over those row costs is tune.RatedRowStarts.

// UniformRowStarts returns the canonical uniform partition of ny rows into
// parts chunks: starts[i] = i·ny/parts, length parts+1. It is exactly the
// row assignment internal/topo uses when no explicit partition is given.
func UniformRowStarts(ny, parts int) []int {
	starts := make([]int, parts+1)
	for i := 0; i <= parts; i++ {
		starts[i] = i * ny / parts
	}
	return starts
}

// PolarRows reports, per cell-center row, whether the polar Fourier filter
// is active at that row for the given cutoff latitude — the same rule
// internal/filter applies: a row is filtered iff |sinθ_j| < sin(θ_cutoff),
// i.e. the row lies poleward of ±(90−cutoffLatDeg)° latitude.
func (g *Grid) PolarRows(cutoffLatDeg float64) []bool {
	sinc := math.Sin((90 - cutoffLatDeg) * math.Pi / 180)
	active := make([]bool, g.Ny)
	for j := 0; j < g.Ny; j++ {
		active[j] = g.SinC[j] < sinc
	}
	return active
}
