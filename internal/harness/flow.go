package harness

import (
	"fmt"
	"strings"

	"cadycore/internal/dycore"
	"cadycore/internal/filter"
)

// word renders the paper's eq. 8 operator word of one time step with M
// nonlinear iterations, right to left as the operators apply:
// ξ' = S̃ (F̃L̃)³ (F̃ĈÂ)^{3M} ξ.
func word(m int) string {
	return fmt.Sprintf("S (FL)^3 (FCA)^%d", 3*m)
}

// stepCounts is one step of a run as its own counters saw it.
type stepCounts struct {
	exchanges   int64 // neighbour-exchange rounds per step
	collectives int64 // collectives per step on each rank that enters them
	entering    int   // ranks that enter the scheme's collectives
}

// perStep turns row r's run counters into per-step counts. The exchange
// counter includes the warm-up: one exchange before the first step, plus
// CA's Finalize exchange after the last. The collectives are Ĉ's z sums
// under Y-Z and CA and F̃'s transposes under X-Y. Some ranks enter none: every
// rank of a Y-Z layout with p_z = 1, whose z sums run on a one-rank
// communicator, and the X-Y ranks that own no latitude row the polar filter
// touches (or all of them when p_x = 1).
func (o Options) perStep(r TheoryRow) stepCounts {
	warmup := int64(1)
	if r.Alg == dycore.AlgCommAvoid.String() {
		warmup = 2
	}
	c := stepCounts{exchanges: (r.ExchangesMeasured - warmup) / int64(o.Steps)}
	if r.Alg == dycore.AlgBaselineXY.String() {
		px, py, _ := XYFactors(r.P, o.Nx, o.Ny)
		flt := filter.New(o.grid(), o.config().FilterCutoffDeg)
		for cy := 0; cy < py && px > 1; cy++ {
			for j := cy * o.Ny / py; j < (cy+1)*o.Ny/py; j++ {
				if flt.Active(j) {
					c.entering += px
					break
				}
			}
		}
	} else if _, pz, _ := YZFactors(r.P, o.Ny, o.Nz); pz > 1 {
		c.entering = r.P
	}
	if c.entering > 0 {
		c.collectives = r.CollectivesMeasured / (int64(c.entering) * int64(o.Steps))
	}
	return c
}

// Flow renders `-fig flow`: eq. 8's word and what one step of each scheme
// did, measured by the runs TheoryTable makes at the smallest process count
// in o.Ps whose Y-Z layout splits z (p_z > 1), so that Ĉ's z sums are
// collectives. It fails when no process count gives such a layout.
func Flow(o Options) (string, error) {
	p := 0
	for _, q := range o.Ps {
		if _, pz, ok := YZFactors(q, o.Ny, o.Nz); ok && pz > 1 {
			p = q
			break
		}
	}
	if p == 0 {
		return "", fmt.Errorf("harness: no process count in %v lays out Y-Z with p_z > 1 on %dx%dx%d, so no z-collective can be measured",
			o.Ps, o.Nx, o.Ny, o.Nz)
	}
	o.Ps = []int{p}
	var sb strings.Builder
	fmt.Fprintf(&sb, "operator form of one time step (M = %d): ξ' = %s ξ\n", o.M, word(o.M))
	fmt.Fprintf(&sb, "the word alternates stencil and collective operators — the paper's\n")
	fmt.Fprintf(&sb, "\"stencil-collective alternate action\" basic operation.\n\n")
	fmt.Fprintf(&sb, "measured per step at p = %d (layout p_x x p_y x p_z; collectives per rank that enters them,\n", p)
	fmt.Fprintf(&sb, "x-collectives are F̃'s transposes on an X-Y rank that owns a filtered row):\n")
	fmt.Fprintf(&sb, "%-16s%10s%12s%15s%15s\n", "strategy", "layout", "exchanges", "z-collectives", "x-collectives")
	px, pyXY, _ := XYFactors(p, o.Nx, o.Ny)
	py, pz, _ := YZFactors(p, o.Ny, o.Nz)
	var yz, ca stepCounts
	for _, r := range TheoryTable(o) {
		c := o.perStep(r)
		layout, z, x := fmt.Sprintf("1x%dx%d", py, pz), fmt.Sprint(c.collectives), "-"
		switch r.Alg {
		case dycore.AlgBaselineXY.String():
			layout, z = fmt.Sprintf("%dx%dx1", px, pyXY), "-"
			if c.entering > 0 {
				x = fmt.Sprint(c.collectives)
			}
		case dycore.AlgBaselineYZ.String():
			yz = c
		case dycore.AlgCommAvoid.String():
			ca = c
		}
		fmt.Fprintf(&sb, "%-16s%10s%12d%15s%15s\n", r.Alg, layout, c.exchanges, z, x)
	}
	fmt.Fprintf(&sb, "\nexchange rounds: %d -> %d; z-collectives: %d -> %d (-%d%%)\n",
		yz.exchanges, ca.exchanges, yz.collectives, ca.collectives,
		100*(yz.collectives-ca.collectives)/yz.collectives)
	return sb.String(), nil
}
