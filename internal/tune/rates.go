package tune

import (
	"math"
	"slices"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// This file is the rebalancer's proposal side: the slowdown-aware row
// partition it offers as a candidate, and the price of migrating to one.
// Whether a proposal wins is decided by PilotStep under the measured rates.

// RatedRows builds the slowdown-aware y-row partition for a layout: row
// weights are the model's rowCosts (stencil work plus the polar-filter
// surcharge), and each column's weight is additionally multiplied by the
// largest slowdown among its ranks, so slow columns receive fewer rows.
// With unit slowdowns it is the purely latitude-weighted partition. Every
// chunk keeps dycore.MinPerRank rows. Returns nil when py < 2, the
// partition is infeasible, or the rated partition equals the layout's
// existing one.
func RatedRows(g *grid.Grid, prof Profile, s dycore.Setup, slow []float64) []int {
	py := s.PA
	if py < 2 || len(slow) != s.Procs() || py*dycore.MinPerRank > g.Ny {
		return nil
	}
	// Ranks are laid out rank = cz·py + cy (p_x = 1), matching internal/topo.
	colSlow := make([]float64, py)
	for r, sl := range slow {
		colSlow[r%py] = max(colSlow[r%py], sl)
	}
	for _, cs := range colSlow {
		if cs <= 0 {
			return nil
		}
	}
	rows := RatedRowStarts(rowCosts(g, prof, s), colSlow, dycore.MinPerRank)
	existing := s.RowStarts
	if existing == nil {
		existing = grid.UniformRowStarts(g.Ny, py)
	}
	if slices.Equal(rows, existing) {
		return nil
	}
	return rows
}

// RatedRowStarts partitions len(weights) rows into len(colSlow) contiguous
// chunks of at least minRows rows each, minimizing the maximum of
// colSlow[cy] · (chunk cy's weight); with unit multipliers it is the plain
// min-max weighted partition. Weights must be non-negative. Deterministic:
// among optimal partitions it returns the lexicographically smallest
// boundary vector. Panics on infeasible inputs.
func RatedRowStarts(weights, colSlow []float64, minRows int) []int {
	ny, parts := len(weights), len(colSlow)
	if parts < 1 || minRows < 1 || parts*minRows > ny {
		panic("tune: RatedRowStarts infeasible partition request")
	}
	prefix := make([]float64, ny+1)
	for j, w := range weights {
		prefix[j+1] = prefix[j] + w
	}
	// sdp[p][i]: minimal achievable max rated chunk cost splitting the
	// suffix rows [i, ny) over the LAST p columns (columns parts−p … parts−1,
	// so the multiplier of the first chunk is colSlow[parts−p]). O(parts·ny²),
	// fine at planner scale (ny ≤ a few hundred, parts ≤ 64). The
	// reconstruction reuses the exact floats the recurrence minimized, so no
	// epsilon slop is needed.
	const inf = math.MaxFloat64
	sdp := make([][]float64, parts+1)
	for p := range sdp {
		sdp[p] = make([]float64, ny+1)
		for i := range sdp[p] {
			sdp[p][i] = inf
		}
	}
	for i := 0; i+minRows <= ny; i++ {
		sdp[1][i] = colSlow[parts-1] * (prefix[ny] - prefix[i])
	}
	for p := 2; p <= parts; p++ {
		mult := colSlow[parts-p]
		for i := 0; i+p*minRows <= ny; i++ {
			best := inf
			for j := i + minRows; j+(p-1)*minRows <= ny; j++ {
				cost := math.Max(mult*(prefix[j]-prefix[i]), sdp[p-1][j])
				if cost < best {
					best = cost
				}
			}
			sdp[p][i] = best
		}
	}
	opt := sdp[parts][0]
	// Reconstruct front-to-back, at each boundary picking the smallest next
	// start whose chunk fits in opt and whose suffix still completes within
	// opt — the lexicographically smallest optimal boundary vector.
	starts := make([]int, parts+1)
	starts[parts] = ny
	at := 0
	for p := 1; p < parts; p++ {
		rem := parts - p
		found := false
		for j := at + minRows; j+rem*minRows <= ny; j++ {
			if colSlow[p-1]*(prefix[j]-prefix[at]) <= opt && sdp[rem][j] <= opt {
				starts[p] = j
				at = j
				found = true
				break
			}
		}
		if !found {
			panic("tune: RatedRowStarts reconstruction stuck")
		}
	}
	return starts
}

// MigrationCost prices one in-flight layout switch with the profile's
// network constants: a quiesce barrier plus a full-state gather and
// re-scatter of the snapshot the layout's scheme carries (checkpoint.Gather:
// U, V, Φ and the surface pressure, and for the comm-avoiding scheme the
// lagged Ĉ's PWI and DBar; 8 bytes a float), paid twice for the round trip
// through the checkpoint. The rebalancing controller only accepts a re-plan
// whose piloted win over the remaining steps clears this cost.
func MigrationCost(g *grid.Grid, s dycore.Setup, prof Profile) float64 {
	n3, n2 := g.Nx*g.Ny*g.Nz, g.Nx*g.Ny
	floats := 3*n3 + n2
	if s.Alg == dycore.AlgCommAvoid {
		floats += n3 + 2*n2
	}
	return 2*float64(s.Procs())*prof.Alpha + 2*prof.Beta*8*float64(floats)
}
