// Package opflow encodes the paper's Section 4.1 contribution — the
// *operator form of the calculating flow* — as data: the dynamical core's
// time step is the operator word
//
//	ξ(K) = [ S̃ (F̃L̃)³ (F̃ĈÂ)^{3M} ]^K ξ(0)        (paper eq. 8)
//
// in which every operator involves exactly one kind of communication. From
// the word, this package derives the per-step communication profile of any
// execution strategy (how many collectives along x and z, how many neighbor
// exchanges), reproduces the paper's operator-count arithmetic (13 → 2
// exchanges, 3M → 2M collectives), and implements the Section 4.2
// decomposition advisor built on the Theorem 4.1/4.2 lower bounds.
package opflow

import (
	"fmt"
	"strings"

	"cadycore/internal/costmodel"
)

// Op is one operator of the calculating flow.
type Op int

const (
	// OpA is Â: the adaptation stencil (local communication).
	OpA Op = iota
	// OpC is Ĉ: the vertical summation (collective along z).
	OpC
	// OpF is F̃: Fourier filtering (collective along x when p_x > 1).
	OpF
	// OpL is L̃: the advection stencil (local communication).
	OpL
	// OpS is S̃: the smoothing stencil (local communication).
	OpS
)

// String implements fmt.Stringer with the paper's symbols.
func (o Op) String() string {
	switch o {
	case OpA:
		return "A"
	case OpC:
		return "C"
	case OpF:
		return "F"
	case OpL:
		return "L"
	case OpS:
		return "S"
	default:
		return "?"
	}
}

// CommKind classifies the communication an operator performs.
type CommKind int

const (
	// CommStencil is neighbor (halo) communication.
	CommStencil CommKind = iota
	// CommCollectiveZ is a collective along the z direction.
	CommCollectiveZ
	// CommCollectiveX is a collective along the x direction.
	CommCollectiveX
)

// Kind returns the communication kind of the operator (paper Section 4.1:
// "each operator only involves one kind of communication").
func (o Op) Kind() CommKind {
	switch o {
	case OpC:
		return CommCollectiveZ
	case OpF:
		return CommCollectiveX
	default:
		return CommStencil
	}
}

// StepWord returns the operator word of one time step for M nonlinear
// iterations, innermost-first: (FCA)^{3M} then (FL)^3 then S.
func StepWord(m int) []Op {
	var w []Op
	for i := 0; i < 3*m; i++ {
		w = append(w, OpA, OpC, OpF)
	}
	for i := 0; i < 3; i++ {
		w = append(w, OpL, OpF)
	}
	w = append(w, OpS)
	return w
}

// FormatWord renders a word in the paper's right-to-left operator notation
// with powers, e.g. "S (FL)^3 (FCA)^9".
func FormatWord(m int) string {
	return fmt.Sprintf("S (FL)^3 (FCA)^%d", 3*m)
}

// Profile is the per-step communication structure of an execution strategy.
type Profile struct {
	// Exchanges is the number of neighbor-exchange rounds per step.
	Exchanges int
	// CollectivesZ is the number of z collectives per step.
	CollectivesZ int
	// CollectivesX is the number of x collectives per step (0 when p_x = 1).
	CollectivesX int
}

// Strategy selects how the operator word is executed.
type Strategy int

const (
	// StrategyOriginalYZ: exchange before every stencil operator
	// application, Ĉ fresh every time, filtering local (p_x = 1).
	StrategyOriginalYZ Strategy = iota
	// StrategyOriginalXY: like OriginalYZ but p_z = 1 (no z collectives)
	// and p_x > 1 (every F̃ is a distributed transpose).
	StrategyOriginalXY
	// StrategyCommAvoiding: Algorithm 2 — deep halos (one exchange covers
	// all 3M adaptation applications, one the advection, smoothing fused),
	// the approximate iteration (2 Ĉ per nonlinear iteration), p_x = 1.
	StrategyCommAvoiding
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyOriginalYZ:
		return "original-YZ"
	case StrategyOriginalXY:
		return "original-XY"
	case StrategyCommAvoiding:
		return "comm-avoiding"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ProfileOf derives the per-step communication profile of a strategy from
// the operator word — the arithmetic behind the paper's "from 13 to 2" and
// "one third of communication costs" statements.
func ProfileOf(s Strategy, m int) Profile {
	word := StepWord(m)
	var p Profile
	switch s {
	case StrategyOriginalYZ, StrategyOriginalXY:
		for _, op := range word {
			switch op.Kind() {
			case CommStencil:
				// One halo exchange precedes every stencil application.
				p.Exchanges++
			case CommCollectiveZ:
				p.CollectivesZ++
			case CommCollectiveX:
				p.CollectivesX++
			}
		}
		if s == StrategyOriginalYZ {
			p.CollectivesX = 0 // p_x = 1: F̃ is local
		} else {
			p.CollectivesZ = 0 // p_z = 1: Ĉ is local
		}
	case StrategyCommAvoiding:
		// One deep exchange covers all 3M adaptation stencils AND the
		// smoothing (fused); one shallow exchange covers the 3 advection
		// stencils. The approximate iteration drops one Ĉ per nonlinear
		// iteration (3 → 2), and p_x = 1 keeps F̃ local.
		p.Exchanges = 2
		p.CollectivesZ = 2 * m
		p.CollectivesX = 0
	}
	return p
}

// Advisor implements the Section 4.2 decomposition choice: given the mesh
// and a total rank count, it evaluates the Theorem 4.1 and 4.2 lower bounds
// and recommends which collective to keep local.
type Advice struct {
	// UseYZ reports whether the Y-Z decomposition (p_x = 1) is recommended.
	UseYZ bool
	// FilterBound and SumBound are the per-application lower bounds the
	// recommendation compares (words moved).
	FilterBound, SumBound float64
	// Reason is a one-line human-readable justification.
	Reason string
}

// Advise compares the data-movement lower bound of the x collective (Fourier
// filtering under a balanced X-Y layout) with that of the z collective (the
// summation under a Y-Z layout) per time step, weighting each by how often
// the operator word invokes it. Both layouts keep two cells per rank along
// each split axis; when p ranks fit no such layout of one kind or both, the
// error names the missing kind.
func Advise(nx, ny, nz, p, m int) (Advice, error) {
	word := StepWord(m)
	nF, nC := 0, 0
	for _, op := range word {
		switch op {
		case OpF:
			nF++
		case OpC:
			nC++
		}
	}
	// Candidate layouts: balanced X-Y split vs minimal-p_z Y-Z split.
	px := balancedFactor(p, nx/2, ny/2)
	pz := smallestCofactor(p, ny/2, nz/2)
	var missing []string
	if px == 0 {
		missing = append(missing, fmt.Sprintf("X-Y (p_x <= %d, p_y <= %d)", nx/2, ny/2))
	}
	if pz == 0 {
		missing = append(missing, fmt.Sprintf("Y-Z (p_y <= %d, p_z <= %d)", ny/2, nz/2))
	}
	if len(missing) > 0 {
		return Advice{}, fmt.Errorf("opflow: no %s layout of %d ranks fits %dx%dx%d",
			strings.Join(missing, " or "), p, nx, ny, nz)
	}
	filter := costmodel.FilterLowerBound(nx, px) * float64(ny*nz) * float64(nF) * 3 // 3 filtered 3-D fields
	sum := costmodel.SumLowerBound(nx, ny, pz) * float64(nC)
	a := Advice{FilterBound: filter, SumBound: sum}
	if filter >= sum {
		a.UseYZ = true
		a.Reason = fmt.Sprintf(
			"filtering bound %.3g ≥ summation bound %.3g per step: set p_x = 1 (Y-Z) so the high-order term vanishes (η_x = 0)",
			filter, sum)
	} else {
		a.Reason = fmt.Sprintf(
			"summation bound %.3g > filtering bound %.3g per step: set p_z = 1 (X-Y)", sum, filter)
	}
	return a, nil
}

// balancedFactor is the a ≤ maxA with p/a ≤ maxB closest to √p, 0 if none.
func balancedFactor(p, maxA, maxB int) int {
	best := 0
	bestBal := 1 << 30
	for a := 1; a <= p; a++ {
		if p%a != 0 || a > maxA || p/a > maxB {
			continue
		}
		bal := a - p/a
		if bal < 0 {
			bal = -bal
		}
		if bal < bestBal {
			bestBal = bal
			best = a
		}
	}
	return best
}

// smallestCofactor is the least b ≤ maxThis with p/b ≤ maxOther, 0 if none.
func smallestCofactor(p, maxOther, maxThis int) int {
	for b := 1; b <= maxThis; b++ {
		if p%b == 0 && p/b <= maxOther {
			return b
		}
	}
	return 0
}

// Describe renders a full report: the operator word, the per-strategy
// profiles and the savings — the paper's Section 4.4 summary as a function
// of M.
func Describe(m int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "operator form of one time step (M = %d): ξ' = %s ξ\n", m, FormatWord(m))
	fmt.Fprintf(&sb, "the word alternates stencil and collective operators — the paper's\n")
	fmt.Fprintf(&sb, "\"stencil-collective alternate action\" basic operation.\n\n")
	fmt.Fprintf(&sb, "%-16s%12s%14s%14s\n", "strategy", "exchanges", "z-collectives", "x-collectives")
	for _, s := range []Strategy{StrategyOriginalXY, StrategyOriginalYZ, StrategyCommAvoiding} {
		p := ProfileOf(s, m)
		fmt.Fprintf(&sb, "%-16s%12d%14d%14d\n", s, p.Exchanges, p.CollectivesZ, p.CollectivesX)
	}
	yz := ProfileOf(StrategyOriginalYZ, m)
	ca := ProfileOf(StrategyCommAvoiding, m)
	fmt.Fprintf(&sb, "\nexchange rounds: %d -> %d; z-collectives: %d -> %d (-%d%%)\n",
		yz.Exchanges, ca.Exchanges, yz.CollectivesZ, ca.CollectivesZ,
		100*(yz.CollectivesZ-ca.CollectivesZ)/yz.CollectivesZ)
	return sb.String()
}
