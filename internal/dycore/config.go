// Package dycore implements the time integration of the dynamical core:
// the original nonlinear-iteration scheme (Algorithm 1 of the paper) under
// the X-Y and Y-Z domain decompositions, and the communication-avoiding
// scheme (Algorithm 2) with deep halo areas, computation/communication
// overlap, the approximate nonlinear iteration for Ĉ, and the fused
// former/later smoothing.
//
// One time step evolves ξ = (U, V, Φ, p'_sa) through M nonlinear iterations
// of the adaptation process (time step Δt1), one nonlinear iteration of the
// advection process (Δt2 ≫ Δt1), and the smoothing S̃ — the operator flow
// ξ(k) = S̃ (F̃L̃)³ (F̃ĈÂ)^{3M} ξ(k−1) (paper eq. 8).
package dycore

import (
	"fmt"

	"cadycore/internal/operators"
)

// Config holds the numerical parameters of a run. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// M is the number of nonlinear iterations of the adaptation process per
	// step (the paper's experiments use M = 3).
	M int
	// Dt1 and Dt2 are the adaptation and advection time steps in seconds
	// (Δt1 ≪ Δt2; the advection step is the "model time step": one Step
	// advances the model clock by Dt2).
	Dt1, Dt2 float64
	// Beta is the smoothing coefficient β of S̃.
	Beta float64
	// FilterCutoffDeg is the latitude (degrees) poleward of which Fourier
	// filtering is active.
	FilterCutoffDeg float64
	// Adapt holds the adaptation-term switches.
	Adapt operators.AdaptConfig

	// ShiftedPoleMirror selects the exact spherical (antipodal-meridian)
	// pole condition instead of the default local mirror. Only valid under
	// decompositions with p_x = 1.
	ShiftedPoleMirror bool

	// Workers is the intra-rank parallel tiling width: the 3-D stencil
	// kernels (adaptation, advection, D(P), smoothing) split their k-plane
	// range across this many goroutines. 0 and 1 both mean serial. The knob
	// changes wall-clock time only — work counts, communication events and
	// therefore the simulated LogP metrics (simC_ms/simS_ms/simT_ms) are
	// identical for every value. Parallel tiling spawns goroutines per
	// kernel call, so the steady-state zero-allocation guarantee holds for
	// Workers ≤ 1 (the default).
	Workers int

	// Ablation switches for the communication-avoiding algorithm (all false
	// in the paper's configuration — they exist to measure each
	// optimization's contribution separately):
	//
	// ExactC disables the approximate nonlinear iteration: Ĉ is evaluated
	// fresh in every internal update (3M z-collectives per step instead of
	// 2M).
	ExactC bool
	// NoOverlap disables the inner/outer computation split: the algorithm
	// blocks on the halo exchange before computing anything.
	NoOverlap bool
	// NoFusedSmoothing disables the former/later smoothing split: smoothing
	// runs at the end of each step with its own halo exchange, like the
	// baseline.
	NoFusedSmoothing bool

	// StageM selects the staged-exchange mode of the communication-avoiding
	// algorithm: the halo is sized for StageM nonlinear iterations (depth
	// 3·StageM instead of 3·M) and a shallower refresh exchange runs every
	// StageM iterations, each overlapped with the following η1 interior
	// computation. 0 — or any value ≥ M — disables staging (one deep halo
	// covers the whole adaptation phase). The mode trades halo redundancy
	// (ghost-zone compute and bytes grow with depth) against exchange count;
	// the autotuner searches the crossover.
	StageM int
}

// StageDepth returns the halo-sizing iteration count: StageM when staging is
// active (0 < StageM < M), M otherwise.
func (c Config) StageDepth() int {
	if c.StageM > 0 && c.StageM < c.M {
		return c.StageM
	}
	return c.M
}

// Staged reports whether the staged-exchange mode is active.
func (c Config) Staged() bool { return c.StageDepth() < c.M }

// DefaultConfig returns the paper's configuration (M = 3) with time steps
// that satisfy the gravity-wave CFL condition of the given resolution scale
// (callers typically override Dt1/Dt2 per mesh).
func DefaultConfig() Config {
	return Config{
		M:               3,
		Dt1:             60,
		Dt2:             360,
		Beta:            1.0,
		FilterCutoffDeg: 60,
		Adapt:           operators.DefaultAdaptConfig(),
	}
}

// Validate reports an unusable configuration as an error naming the field.
func (c Config) Validate() error {
	if c.M < 1 {
		return fmt.Errorf("dycore: M = %d must be ≥ 1", c.M)
	}
	if c.Dt1 <= 0 {
		return fmt.Errorf("dycore: time step dt1 = %g must be positive", c.Dt1)
	}
	if c.Dt2 <= 0 {
		return fmt.Errorf("dycore: time step dt2 = %g must be positive", c.Dt2)
	}
	if c.Beta <= 0 || c.Beta >= 2 {
		return fmt.Errorf("dycore: smoothing β = %g must lie in (0, 2)", c.Beta)
	}
	if c.Workers < 0 {
		return fmt.Errorf("dycore: Workers = %d must be ≥ 0", c.Workers)
	}
	if c.StageM < 0 {
		return fmt.Errorf("dycore: StageM = %d must be ≥ 0", c.StageM)
	}
	return nil
}

// Compute-cost weights (simulated point-update units per mesh point) used
// to advance the LogP clock; they approximate the relative arithmetic
// density of the kernels.
const (
	costAdapt     = 1.0
	costAdvect    = 2.0
	costSmooth    = 0.6
	costDivP      = 0.5
	costCSum      = 0.3
	costSurface   = 0.1
	costLincomb   = 0.1
	costFilterRow = 0.05 // per retained row, times Nx·log2(Nx)
)

// SimCosts reports the simulated-clock work weights the integrators charge
// through Comm.Compute: point-update equivalents per mesh point for the
// stencil kernels (csum covers the fused D(P)+Ĉ pass) and per nx·log2(nx)
// of one retained row for the polar filter. The autotuner derives the
// simulated machine's kernel rates from these, so its analytic predictions
// and its pilot measurements price compute identically.
func SimCosts() (adapt, advect, smooth, csum, filterRow float64) {
	return costAdapt, costAdvect, costSmooth, costDivP + costCSum, costFilterRow
}
