package tune

import (
	"math"

	"cadycore/internal/costmodel"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// Estimate is the analytic cost prediction of one layout: seconds per step,
// split into compute and communication, maximized over ranks — the §5.3 W/S
// expressions with the profile's constants plus the latitude-weighted filter
// term the Θ forms drop.
type Estimate struct {
	Setup dycore.Setup
	// Comp and Comm are the busiest rank's per-step compute and
	// communication seconds; Total = Comp + Comm of that rank.
	Comp, Comm, Total float64
}

// stepCounts is what one step of a layout's integrator does, as counted by
// dycore.Counters.
type stepCounts struct {
	// exchanges is the neighbor-exchange rounds per step.
	exchanges float64
	// cEvals is the Ĉ evaluations per step; each is one z-collective round.
	cEvals float64
	// filters is the filtered tendencies per step.
	filters float64
}

// countsOf returns the per-step counts of the layout. The original
// algorithm does 3M+4 exchanges and a fresh Ĉ in each of its 3M adaptation
// updates. The communication-avoiding one does one deep exchange per
// ⌈M/s⌉ adaptation iterations (s = Cfg.StageDepth) plus the advection
// exchange (plus a smoothing exchange when the smoothing is not fused), and
// reuses the lagged Ĉ in every η1 update (2M evaluations) unless ExactC.
func countsOf(s dycore.Setup) stepCounts {
	cfg := s.Cfg
	m := float64(cfg.M)
	n := stepCounts{exchanges: 3*m + 4, cEvals: 3 * m, filters: 3*m + 3}
	if s.Alg != dycore.AlgCommAvoid {
		return n
	}
	n.exchanges = math.Ceil(m/float64(cfg.StageDepth())) + 1
	if cfg.NoFusedSmoothing {
		n.exchanges++
	}
	if !cfg.ExactC {
		n.cEvals = 2 * m
	}
	return n
}

// fieldsPerExchange approximates the state components a halo exchange
// carries (U, V, Φ as 3-D fields plus the surface pressure).
const fieldsPerExchange = 4

// rowCosts returns the compute seconds per step one rank spends on each
// global y row: the row's nx·(nz/pz) points through every stencil kernel at
// its dycore.SimCosts weight, plus the filter transforms of ~3 field
// components per layer on rows poleward of the cutoff, at the profile's
// ComputeRate. It is the model's one statement of per-point work: Evaluate
// sums it over a column and RatedRows partitions by it.
func rowCosts(g *grid.Grid, prof Profile, s dycore.Setup) []float64 {
	aw, dw, sw, cw, fw := dycore.SimCosts()
	n := countsOf(s)
	m := float64(s.Cfg.M)
	nx, layers := float64(g.Nx), float64(g.Nz/s.PB)
	stencil := nx * layers * (3*m*aw + 3*dw + n.cEvals*cw + sw) / prof.ComputeRate
	filter := n.filters * 3 * layers * nx * math.Log2(nx) * fw / prof.ComputeRate
	active := g.PolarRows(s.Cfg.FilterCutoffDeg)
	costs := make([]float64, g.Ny)
	for j := range costs {
		costs[j] = stencil
		if active[j] {
			costs[j] += filter
		}
	}
	return costs
}

// Evaluate prices one layout analytically: every y column of the process
// grid separately (all ranks of one column carry the same modeled cost —
// the z split is uniform, only the y rows differ), the busiest column's
// compute plus communication being the estimate. All terms are per step
// (K = 1); only relative order matters for planning, but the scale is real
// seconds so predictions are comparable with pilot measurements.
func Evaluate(g *grid.Grid, prof Profile, s dycore.Setup) Estimate {
	py, pz := s.PA, s.PB
	starts := s.RowStarts
	if starts == nil {
		starts = grid.UniformRowStarts(g.Ny, py)
	}
	rowComp := rowCosts(g, prof, s)
	n := countsOf(s)
	_, hy, hz := s.HaloWidths()

	worst := Estimate{Setup: s}
	nx, layers := g.Nx, g.Nz/pz
	for cy := 0; cy < py; cy++ {
		rows := starts[cy+1] - starts[cy]
		comp := 0.0
		for _, w := range rowComp[starts[cy]:starts[cy+1]] {
			comp += w
		}

		// Halo exchange: each round moves the y faces (2·hy·nx·layers) and
		// z faces (hz·nx·rows; the deep z halo is one-sided) of
		// fieldsPerExchange components.
		yFace := float64(2*hy*nx*layers) * boolF(py > 1)
		zFace := float64(hz*nx*rows) * boolF(pz > 1)
		round := prof.Alpha + prof.Beta*8*fieldsPerExchange*(yFace+zFace)
		if !s.Cfg.NoOverlap {
			// Overlapped exchange (§5.3 refinement): each Begin/Finish round
			// hides its flight time behind the interior share of the sweep it
			// overlaps; only the residual wait stays exposed. The window is
			// the round's slice of the interior compute — the owned block
			// shrunk by the halo the in-flight messages will fill.
			innerY := math.Max(0, 1-float64(2*hy)/float64(rows)*boolF(py > 1))
			innerZ := math.Max(0, 1-float64(hz)/float64(layers)*boolF(pz > 1))
			round = costmodel.OverlapExposed(round, comp*innerY*innerZ/n.exchanges)
		}
		comm := n.exchanges * round

		// z-summation collective (Theorem 4.2 shape): an allreduce of the
		// rank's nx·rows plane costs ~2 plane transfers times log pz.
		if pz > 1 {
			plane := float64(nx * rows)
			comm += n.cEvals * (prof.Alpha*math.Ceil(math.Log2(float64(pz))) +
				prof.Beta*8*2*plane*math.Log2(float64(pz)))
		}

		if t := comp + comm; t > worst.Total {
			worst.Comp, worst.Comm, worst.Total = comp, comm, t
		}
	}
	return worst
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
