package tune

import (
	"fmt"
	"strconv"
	"strings"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// Scheme names a decomposition/algorithm family.
type Scheme string

const (
	// SchemeCA is the communication-avoiding algorithm (Y-Z decomposition).
	SchemeCA Scheme = "ca"
	// SchemeYZ is the original algorithm under the Y-Z decomposition.
	SchemeYZ Scheme = "yz"
	// SchemeXY is the original algorithm under the X-Y decomposition.
	SchemeXY Scheme = "xy"
)

// Alg maps the scheme to its integrator.
func (s Scheme) Alg() dycore.Algorithm {
	switch s {
	case SchemeCA:
		return dycore.AlgCommAvoid
	case SchemeXY:
		return dycore.AlgBaselineXY
	default:
		return dycore.AlgBaselineYZ
	}
}

// Candidate is one point of the planner's search space.
type Candidate struct {
	Scheme Scheme
	// PA, PB follow dycore.Setup: (py, pz) for CA/YZ, (px, py) for XY.
	PA, PB int
	// M is the nonlinear iteration count (halo depth follows it for CA).
	M int
	// Workers is the intra-rank tiling width.
	Workers int
	// Stage is the staged-exchange halo depth s for SchemeCA: 0 (or M)
	// sizes the halo for all M iterations at once; 0 < s < M sizes it for s
	// iterations and refreshes it ⌈M/s⌉ times per step with overlapped
	// exchanges. Ignored by the baseline schemes.
	Stage int
	// RowStarts is the y-row partition (nil = uniform). The planner only
	// enumerates uniform partitions; explicit ones come from the rebalancer's
	// measured-rate RatedRows.
	RowStarts []int
}

// Key is the candidate's canonical identity: deterministic, order-free, used
// for tie-breaking and logging.
func (c Candidate) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s-%dx%d-m%d-w%d", c.Scheme, c.PA, c.PB, c.M, c.Workers)
	if c.Stage > 0 {
		fmt.Fprintf(&sb, "-s%d", c.Stage)
	}
	if c.RowStarts != nil {
		sb.WriteString("-rows")
		for _, s := range c.RowStarts {
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(s))
		}
	}
	return sb.String()
}

// Setup builds the dycore setup of the candidate.
func (c Candidate) Setup(cfg dycore.Config) dycore.Setup {
	cfg.M = c.M
	cfg.Workers = c.Workers
	if c.Scheme == SchemeCA {
		cfg.StageM = c.Stage
	}
	return dycore.Setup{Alg: c.Scheme.Alg(), PA: c.PA, PB: c.PB, Cfg: cfg, RowStarts: c.RowStarts}
}

// py returns the y extent of the process grid.
func (c Candidate) py() int {
	if c.Scheme == SchemeXY {
		return c.PB
	}
	return c.PA
}

// SearchOptions bounds the candidate enumeration.
type SearchOptions struct {
	// MaxWorkers caps the Config.Workers candidates (powers of two up to
	// this value; ≤ 1 pins Workers to 1).
	MaxWorkers int
	// VaryM additionally tries M−1 and M+1 around the configured nonlinear
	// iteration count. Off by default: changing M changes the physics
	// accuracy, so it is opt-in.
	VaryM bool
	// NoStaged disables the staged-exchange (Candidate.Stage) variants of
	// the communication-avoiding scheme.
	NoStaged bool
}

// minRowsCA is the minimum rows/layers per rank the communication-avoiding
// overlap machinery is comfortable with.
const minRowsCA = 2

// Candidates enumerates the search space for running cfg on an nx×ny×nz
// mesh with exactly procs ranks. The order is deterministic: schemes in
// {ca, yz, xy} order, factorizations by ascending PA, then M, workers, and
// full-depth before staged halos (ascending stage depth). Every candidate
// has the uniform y partition. The enumeration does not read the machine
// profile; the parameter is part of the signature benchmark/ calls.
func Candidates(g *grid.Grid, procs int, cfg dycore.Config, _ Profile, opt SearchOptions) []Candidate {
	ms := []int{cfg.M}
	if opt.VaryM {
		if cfg.M > 1 {
			ms = append(ms, cfg.M-1)
		}
		ms = append(ms, cfg.M+1)
	}
	var workers []int
	for w := 1; w <= opt.MaxWorkers || w == 1; w *= 2 {
		workers = append(workers, w)
		if w >= opt.MaxWorkers {
			break
		}
	}
	if last := workers[len(workers)-1]; opt.MaxWorkers > last {
		workers = append(workers, opt.MaxWorkers)
	}

	var out []Candidate
	for _, scheme := range []Scheme{SchemeCA, SchemeYZ, SchemeXY} {
		for pa := 1; pa <= procs; pa++ {
			if procs%pa != 0 {
				continue
			}
			pb := procs / pa
			if !feasible(scheme, g, pa, pb) {
				continue
			}
			for _, m := range ms {
				if scheme != SchemeCA && m != cfg.M {
					continue // M sweeps only matter where halo depth follows M
				}
				for _, w := range workers {
					c := Candidate{Scheme: scheme, PA: pa, PB: pb, M: m, Workers: w}
					out = append(out, c)
					if scheme == SchemeCA && !opt.NoStaged {
						// Staged-exchange variants: halo depth s < m with
						// ⌈m/s⌉ overlapped refreshes per step.
						for s := 1; s < m; s++ {
							c.Stage = s
							out = append(out, c)
						}
					}
				}
			}
		}
	}
	return out
}

// feasible mirrors the service's layout validation (py ≤ ny/2, pz ≤ nz/2;
// px ≤ nx/2 for X-Y), plus the CA minimum block thickness.
func feasible(scheme Scheme, g *grid.Grid, pa, pb int) bool {
	switch scheme {
	case SchemeXY:
		return pa <= g.Nx/2 && pb <= g.Ny/2
	case SchemeCA:
		return pa <= g.Ny/minRowsCA && pb <= g.Nz/2
	default:
		return pa <= g.Ny/2 && pb <= g.Nz/2
	}
}

// rowWeights returns the per-row cost (seconds per step, per y row) of the
// candidate's kernels: the stencil work of a row of nx·(nz/pz) points plus
// the Fourier-filter work on rows poleward of the cutoff.
func rowWeights(g *grid.Grid, cfg dycore.Config, prof Profile, c Candidate) []float64 {
	nxLocal, pz := g.Nx, 1
	switch c.Scheme {
	case SchemeXY:
		nxLocal = g.Nx / c.PA
	default:
		pz = c.PB
	}
	layers := float64(g.Nz) / float64(pz)
	rowPoints := float64(nxLocal) * layers
	k := prof.Kernels
	stencil := rowPoints*(3*float64(c.M)/k.Adapt+3/k.Advect+float64(2*c.M)/k.CSum) + rowPoints/k.Smooth
	// Filtered tendencies per step: every adaptation and advection update
	// filters ~3 field components.
	apps := float64(3*c.M+3) * 3 * layers
	filterRow := apps * rowCost(nxLocal) / k.FilterRow
	active := g.PolarRows(cfg.FilterCutoffDeg)
	weights := make([]float64, g.Ny)
	for j := range weights {
		weights[j] = stencil
		if active[j] {
			weights[j] += filterRow
		}
	}
	return weights
}
