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
	// SchemeXY is the original algorithm under the X-Y decomposition. The
	// planner does not search it: its 1×P layout is the YZ P×1 run, and every
	// p_x > 1 layout is slower. A persisted X-Y plan still decodes and runs.
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
	// PA, PB follow dycore.Setup: (py, pz) for the searched schemes, (px,
	// py) for a persisted X-Y plan.
	PA, PB int
	// M is the nonlinear iteration count (halo depth follows it for CA).
	M int
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
	fmt.Fprintf(&sb, "%s-%dx%d-m%d", c.Scheme, c.PA, c.PB, c.M)
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
	if c.Scheme == SchemeCA {
		cfg.StageM = c.Stage
	}
	return dycore.Setup{Alg: c.Scheme.Alg(), PA: c.PA, PB: c.PB, Cfg: cfg, RowStarts: c.RowStarts}
}

// stageDepth is the number of nonlinear iterations one CA halo exchange
// serves: Stage when staging is active (0 < Stage < M), M otherwise.
func (c Candidate) stageDepth() int {
	if c.Stage > 0 && c.Stage < c.M {
		return c.Stage
	}
	return c.M
}

// halo returns the y and z halo depths the candidate's integrator uses.
func (c Candidate) halo() (hy, hz int) {
	if c.Scheme == SchemeCA {
		_, hy, hz = dycore.CommAvoidHalo(c.stageDepth())
	} else {
		_, hy, hz = dycore.BaselineHalo()
	}
	return hy, hz
}

// SearchOptions bounds the candidate enumeration.
type SearchOptions struct {
	// VaryM additionally tries M−1 and M+1 around the configured nonlinear
	// iteration count. Off by default: changing M changes the physics
	// accuracy, so it is opt-in.
	VaryM bool
	// NoStaged disables the staged-exchange (Candidate.Stage) variants of
	// the communication-avoiding scheme.
	NoStaged bool
}

// minRows is the minimum rows (and layers) per rank: the service's layout
// validation (py ≤ ny/2, pz ≤ nz/2), which the communication-avoiding
// overlap machinery also needs.
const minRows = 2

// Candidates enumerates the search space for running cfg on an nx×ny×nz
// mesh with exactly procs ranks. The order is deterministic: schemes in
// {ca, yz} order, factorizations by ascending PA, then M, and full-depth
// before staged halos (ascending stage depth). Every candidate has the
// uniform y partition. The enumeration does not read the machine profile;
// the parameter is part of the signature benchmark/ calls.
func Candidates(g *grid.Grid, procs int, cfg dycore.Config, _ Profile, opt SearchOptions) []Candidate {
	ms := []int{cfg.M}
	if opt.VaryM {
		if cfg.M > 1 {
			ms = append(ms, cfg.M-1)
		}
		ms = append(ms, cfg.M+1)
	}
	var out []Candidate
	for _, scheme := range []Scheme{SchemeCA, SchemeYZ} {
		for pa := 1; pa <= procs; pa++ {
			if procs%pa != 0 {
				continue
			}
			pb := procs / pa
			if pa > g.Ny/minRows || pb > g.Nz/minRows {
				continue
			}
			for _, m := range ms {
				if scheme != SchemeCA && m != cfg.M {
					continue // M sweeps only matter where halo depth follows M
				}
				c := Candidate{Scheme: scheme, PA: pa, PB: pb, M: m}
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
	return out
}
