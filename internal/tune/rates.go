package tune

import (
	"math"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// This file is the rate-aware side of the §5.3 cost model: the same analytic
// column costs as Evaluate, but with the compute term scaled by measured
// per-rank slowdown factors. It is what the live load-rebalancing runtime
// (internal/balance) re-plans with — a straggler rank shows up as slow > 1,
// which biases both the candidate ranking and the weighted row partition
// toward giving that rank less work.

// rankColumn returns the y-column index of a world rank under the
// candidate's process grid. Ranks are laid out rank = (cz·py + cy)·px + cx,
// matching internal/topo.
func rankColumn(c Candidate, rank int) int {
	px, py := 1, c.PA
	if c.Scheme == SchemeXY {
		px, py = c.PA, c.PB
	}
	return (rank / px) % py
}

// PerRankCompute returns the modeled per-step compute seconds of every rank
// of the candidate, in rank order. Each rank inherits its y column's compute
// cost (the x and z splits are uniform). The rebalancing controller divides
// measured per-rank compute by this baseline to isolate slowdowns the model
// does not already explain — the polar-filter skew is modeled, a straggler
// is not.
func PerRankCompute(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate) []float64 {
	comp, _ := colCosts(g, cfg, prof, c)
	procs := c.PA * c.PB
	out := make([]float64, procs)
	for r := range out {
		out[r] = comp[rankColumn(c, r)]
	}
	return out
}

// EvaluateWithRates is Evaluate with the compute term of each rank scaled by
// its measured slowdown factor (slow[r] ≥ 1, fastest rank = 1; nil or
// mismatched slow falls back to the unrated Evaluate). The estimate is the
// busiest rank's seconds per step under the measured rates.
func EvaluateWithRates(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate, slow []float64) Estimate {
	if len(slow) != c.PA*c.PB {
		return Evaluate(g, cfg, prof, c)
	}
	comp, comm := colCosts(g, cfg, prof, c)
	worst := Estimate{Candidate: c}
	for r, s := range slow {
		cy := rankColumn(c, r)
		if t := comp[cy]*s + comm[cy]; t > worst.Total {
			worst.Comp, worst.Comm, worst.Total = comp[cy]*s, comm[cy], t
		}
	}
	return worst
}

// RatedRows builds the slowdown-aware y-row partition for a candidate: row
// weights come from the candidate's kernel costs (stencil work plus the
// polar-filter surcharge), and each column's weight is additionally
// multiplied by the largest slowdown among its ranks, so slow columns
// receive fewer rows. With unit slowdowns it is the purely latitude-weighted
// partition. Returns nil when py < 2, the partition is infeasible, or the
// rated partition equals the candidate's existing one.
func RatedRows(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate, slow []float64) []int {
	py := c.py()
	if py < 2 || len(slow) != c.PA*c.PB {
		return nil
	}
	minRows := 2
	if c.Scheme == SchemeCA {
		minRows = minRowsCA
	}
	if py*minRows > g.Ny {
		return nil
	}
	colSlow := make([]float64, py)
	for r, s := range slow {
		if cy := rankColumn(c, r); s > colSlow[cy] {
			colSlow[cy] = s
		}
	}
	for _, s := range colSlow {
		if s <= 0 {
			return nil
		}
	}
	weights := rowWeights(g, cfg, prof, c)
	rows := RatedRowStarts(weights, colSlow, minRows)
	existing := c.RowStarts
	if existing == nil {
		existing = grid.UniformRowStarts(g.Ny, py)
	}
	same := len(rows) == len(existing)
	if same {
		for i := range rows {
			if rows[i] != existing[i] {
				same = false
				break
			}
		}
	}
	if same {
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
// re-scatter (three 3-D fields and the surface pressure, 8 bytes each),
// paid twice for the round trip through the checkpoint. The rebalancing
// controller only accepts a re-plan whose predicted win over the remaining
// steps clears this cost.
func MigrationCost(g *grid.Grid, procs int, prof Profile) float64 {
	bytes := 8 * float64(3*g.Nx*g.Ny*g.Nz+g.Nx*g.Ny)
	return 2*float64(procs)*prof.Alpha + 2*prof.Beta*bytes
}
