package tune

import (
	"fmt"
	"strconv"
	"strings"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
)

// A candidate — one point of the planner's search space — is a dycore.Setup:
// its algorithm (CA or YZ; a persisted X-Y plan still decodes and runs, but
// the planner does not search X-Y: its 1×P layout is the YZ P×1 run, and
// every p_x > 1 layout is slower), its process grid, its Cfg.M and, for CA,
// its Cfg.StageM, and its y-row partition (nil = uniform; the planner only
// enumerates uniform partitions, explicit ones come from the rebalancer's
// measured-rate RatedRows).

// stage is the staged-exchange depth a layout records: Cfg.StageM for CA (0
// = full depth), 0 for the schemes that ignore it.
func stage(s dycore.Setup) int {
	if s.Alg == dycore.AlgCommAvoid {
		return s.Cfg.StageM
	}
	return 0
}

// Key is a layout's canonical identity, for example
// "ca-4x1-m2-s1-rows.0.2.4.22.24": deterministic, used for tie-breaking, the
// bench report and the rebalancer's migration records.
func Key(s dycore.Setup) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s-%dx%d-m%d", s.Alg.Name(), s.PA, s.PB, s.Cfg.M)
	if st := stage(s); st > 0 {
		fmt.Fprintf(&sb, "-s%d", st)
	}
	if s.RowStarts != nil {
		sb.WriteString("-rows")
		for _, r := range s.RowStarts {
			sb.WriteByte('.')
			sb.WriteString(strconv.Itoa(r))
		}
	}
	return sb.String()
}

// SearchOptions bounds the candidate enumeration.
type SearchOptions struct {
	// VaryM additionally tries M−1 and M+1 around the configured nonlinear
	// iteration count. Off by default: changing M changes the physics
	// accuracy, so it is opt-in.
	VaryM bool
	// NoStaged disables the staged-exchange (Cfg.StageM) variants of the
	// communication-avoiding scheme.
	NoStaged bool
}

// Candidates enumerates the search space for running cfg on an nx×ny×nz
// mesh with exactly procs ranks, each layout within dycore.MinPerRank. The
// order is deterministic: schemes in {ca, yz} order, factorizations by
// ascending PA, then M, and full-depth before staged halos (ascending stage
// depth). Every candidate has the uniform y partition and cfg's numerics.
// The enumeration does not read the machine profile; the parameter is part
// of the signature benchmark/ calls.
func Candidates(g *grid.Grid, procs int, cfg dycore.Config, _ Profile, opt SearchOptions) []dycore.Setup {
	ms := []int{cfg.M}
	if opt.VaryM {
		if cfg.M > 1 {
			ms = append(ms, cfg.M-1)
		}
		ms = append(ms, cfg.M+1)
	}
	var out []dycore.Setup
	for _, alg := range []dycore.Algorithm{dycore.AlgCommAvoid, dycore.AlgBaselineYZ} {
		for pa := 1; pa <= procs; pa++ {
			s := dycore.Setup{Alg: alg, PA: pa, PB: procs / pa, Cfg: cfg}
			if procs%pa != 0 || s.Check(g, dycore.MinPerRank) != nil {
				continue
			}
			if alg != dycore.AlgCommAvoid {
				out = append(out, s) // M sweeps only matter where halo depth follows M
				continue
			}
			for _, m := range ms {
				s.Cfg.M = m
				// Full depth, then the staged-exchange variants: halo depth
				// st < m with ⌈m/st⌉ overlapped refreshes per step.
				for st := 0; st < m && (st == 0 || !opt.NoStaged); st++ {
					s.Cfg.StageM = st
					out = append(out, s)
				}
			}
		}
	}
	return out
}
