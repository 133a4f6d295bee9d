package tune

import (
	"math"

	"cadycore/internal/costmodel"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// Estimate is the analytic cost prediction of one candidate: seconds per
// step, split into compute and communication, maximized over ranks — the
// §5.3 W/S expressions with calibrated constants plus the latitude-weighted
// filter term the Θ forms drop.
type Estimate struct {
	Candidate Candidate
	// Comp and Comm are the busiest rank's per-step compute and
	// communication seconds; Total = Comp + Comm of that rank.
	Comp, Comm, Total float64
}

// rowCost is the work of one filtered row transform in point-equivalents.
func rowCost(nx int) float64 {
	if nx < 2 {
		return 1
	}
	return float64(nx) * math.Log2(float64(nx))
}

// fieldsPerExchange approximates the state components a halo exchange
// carries (U, V, Φ as 3-D fields plus the surface pressure).
const fieldsPerExchange = 4

// Evaluate prices one candidate analytically. All terms are per step
// (K = 1); only relative order matters for planning, but the scale is real
// seconds so predictions are comparable with pilot measurements.
func Evaluate(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate) Estimate {
	comp, comm := colCosts(g, cfg, prof, c)
	worst := Estimate{Candidate: c}
	for cy := range comp {
		if t := comp[cy] + comm[cy]; t > worst.Total {
			worst.Comp, worst.Comm, worst.Total = comp[cy], comm[cy], t
		}
	}
	return worst
}

// colCosts prices every y column of the candidate's process grid separately,
// returning per-column compute and communication seconds per step (length
// py). All ranks of one column carry the same modeled cost: the x and z
// splits are uniform, only the y rows differ. The split form feeds both
// Evaluate (max over columns) and the rate-aware re-planner, which scales
// the compute term by measured per-rank slowdowns.
func colCosts(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate) (compCols, commCols []float64) {
	px, py, pz := 1, c.PA, c.PB
	if c.Scheme == SchemeXY {
		px, py, pz = c.PA, c.PB, 1
	}
	starts := c.RowStarts
	if starts == nil {
		starts = grid.UniformRowStarts(g.Ny, py)
	}
	active := g.PolarRows(cfg.FilterCutoffDeg)
	cal := prof.Calib()
	k := prof.Kernels
	m := float64(c.M)

	// Per-step communication round counts (the S terms of §5.3, split by
	// kind): the CA algorithm does 2 exchange rounds and 2M z-collectives;
	// the originals 3M+4 exchanges plus 3M z-collectives (YZ) or 3M+3
	// filter transposes (XY).
	var nEx, nColl, nFilt float64
	var hy, hz int
	switch c.Scheme {
	case SchemeCA:
		nEx, nColl = 2, 2*m
		sd := c.M
		if c.Stage > 0 && c.Stage < c.M {
			// Staged exchange: a depth-s halo serves s iterations, so the
			// step needs ⌈M/s⌉ adaptation rounds plus the advection round.
			sd = c.Stage
			nEx = math.Ceil(m/float64(sd)) + 1
		}
		_, hy, hz = dycore.CommAvoidHalo(sd)
	case SchemeYZ:
		nEx, nColl = 3*m+4, 3*m
		_, hy, hz = dycore.BaselineHalo()
	default:
		nEx, nFilt = 3*m+4, 3*m+3
		_, hy, hz = dycore.BaselineHalo()
	}

	compCols = make([]float64, py)
	commCols = make([]float64, py)
	nxl := g.Nx / px
	layers := g.Nz / pz
	for cy := 0; cy < py; cy++ {
		rows := starts[cy+1] - starts[cy]
		points := float64(nxl * rows * layers)

		// Compute: stencil kernels plus filter work on this rank's active
		// rows.
		filtRows := 0
		for j := starts[cy]; j < starts[cy+1]; j++ {
			if active[j] {
				filtRows++
			}
		}
		comp := points*(3*m/k.Adapt+3/k.Advect+(2*m+1)/k.CSum) + points/k.Smooth
		apps := (3*m + 3) * 3 * float64(layers)
		comp += apps * float64(filtRows) * rowCost(nxl) / k.FilterRow

		// Halo exchange: nEx rounds; each moves the y faces (2·hy·nxl·layers)
		// and z faces (hz·nxl·rows; the deep z halo is one-sided) of
		// fieldsPerExchange components.
		yFace := float64(2*hy*nxl*layers) * boolF(py > 1)
		zFace := float64(hz*nxl*rows) * boolF(pz > 1)
		xFace := float64(2*3*rows*layers) * boolF(px > 1)
		exBytes := 8 * fieldsPerExchange * (yFace + zFace + xFace)
		round := cal.Alpha + cal.Beta*exBytes
		if !cfg.NoOverlap {
			// Overlapped exchange (§5.3 refinement): each Begin/Finish round
			// hides its flight time behind the interior share of the sweep it
			// overlaps; only the residual wait stays exposed. The window is
			// the round's slice of the interior compute — the owned block
			// shrunk by the halo the in-flight messages will fill.
			innerY := 1 - float64(2*hy)/float64(rows)*boolF(py > 1)
			innerZ := 1 - float64(hz)/float64(layers)*boolF(pz > 1)
			if innerY < 0 {
				innerY = 0
			}
			if innerZ < 0 {
				innerZ = 0
			}
			window := comp * innerY * innerZ / nEx
			round = costmodel.OverlapExposed(round, window)
		}
		comm := nEx * round

		// z-summation collective (Theorem 4.2 shape): an allreduce of the
		// rank's nxl·rows plane costs ~2 plane transfers times log pz.
		if nColl > 0 && pz > 1 {
			plane := float64(nxl * rows)
			comm += nColl * (cal.Alpha*math.Ceil(math.Log2(float64(pz))) +
				cal.Beta*8*2*plane*math.Log2(float64(pz)))
		}
		// Distributed-filter transposes (Theorem 4.1 shape): two all-to-all
		// passes over the rank's share per filtered tendency.
		if nFilt > 0 && px > 1 {
			comm += nFilt * (cal.Alpha*2*math.Ceil(math.Log2(float64(px))) +
				cal.Beta*8*2*points*math.Log2(float64(px)))
		}

		compCols[cy] = comp
		commCols[cy] = comm
	}
	return compCols, commCols
}

func boolF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
