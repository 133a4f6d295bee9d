// Package balance is the live load-rebalancing runtime: it watches per-rank
// compute telemetry at the step-boundary barrier, detects sustained
// imbalance (a straggler rank, a drifting partition), re-plans the
// decomposition by feeding measured per-rank slowdowns into the §5.3 cost
// model (internal/tune), and — when the predicted win clears a modeled
// migration cost — quiesces the run at a step boundary and restarts it in
// the new layout through the cross-decomposition checkpoint path. The
// controller is deliberately layout-generic: it reasons in the planner's
// candidate space (dycore.Setup values from tune.Candidates), so any layout
// the planner can enumerate can be migrated to.
package balance

import "fmt"

// Policy tunes the rebalancing controller. The zero value of every field
// means "default"; Validate rejects out-of-range values, withDefaults fills
// the documented defaults.
type Policy struct {
	// Window is the telemetry window in steps: per-rank compute deltas are
	// accumulated over Window steps before each imbalance evaluation
	// (default 4).
	Window int `json:"window,omitempty"`
	// Threshold is the max/min per-rank compute ratio above which a window
	// counts as imbalanced (default 1.5; must be > 1). The default leaves
	// headroom over the ~1.2 ratio the polar-filter skew produces on a
	// uniform partition, so only unmodeled imbalance trips it.
	Threshold float64 `json:"threshold,omitempty"`
	// Patience is how many consecutive imbalanced windows must be observed
	// before re-planning (default 2) — the hysteresis that keeps jitter from
	// thrashing.
	Patience int `json:"patience,omitempty"`
	// Cooldown is how many windows to ignore after a migration or a
	// rejected re-plan before watching again (default 2).
	Cooldown int `json:"cooldown,omitempty"`
	// Smoothing is the EWMA coefficient applied to window telemetry
	// (default 0.5; 1 uses only the latest window). Must be in (0, 1].
	Smoothing float64 `json:"smoothing,omitempty"`
	// MinGain scales the migration-cost gate: a re-plan is accepted only
	// when predicted saving over the remaining steps exceeds MinGain times
	// the modeled migration cost (default 1).
	MinGain float64 `json:"min_gain,omitempty"`
	// MaxMigrations bounds the migrations of one job (default 4).
	MaxMigrations int `json:"max_migrations,omitempty"`
}

// Validate rejects policies no controller could run. Zero values are
// defaults and always valid.
func (p Policy) Validate() error {
	if p.Window < 0 {
		return fmt.Errorf("balance: window = %d must be >= 0", p.Window)
	}
	if p.Threshold < 0 {
		return fmt.Errorf("balance: threshold = %g must be >= 0", p.Threshold)
	}
	if p.Threshold > 0 && p.Threshold <= 1 {
		return fmt.Errorf("balance: threshold = %g must be > 1 (it is a max/min compute ratio)", p.Threshold)
	}
	if p.Patience < 0 {
		return fmt.Errorf("balance: patience = %d must be >= 0", p.Patience)
	}
	if p.Cooldown < 0 {
		return fmt.Errorf("balance: cooldown = %d must be >= 0", p.Cooldown)
	}
	if p.Smoothing < 0 || p.Smoothing > 1 {
		return fmt.Errorf("balance: smoothing = %g outside [0, 1]", p.Smoothing)
	}
	if p.MinGain < 0 {
		return fmt.Errorf("balance: min_gain = %g must be >= 0", p.MinGain)
	}
	if p.MaxMigrations < 0 {
		return fmt.Errorf("balance: max_migrations = %d must be >= 0", p.MaxMigrations)
	}
	return nil
}

// withDefaults returns the policy with zero fields replaced by defaults.
func (p Policy) withDefaults() Policy {
	if p.Window == 0 {
		p.Window = 4
	}
	if p.Threshold == 0 {
		p.Threshold = 1.5
	}
	if p.Patience == 0 {
		p.Patience = 2
	}
	if p.Cooldown == 0 {
		p.Cooldown = 2
	}
	if p.Smoothing == 0 {
		p.Smoothing = 0.5
	}
	if p.MinGain == 0 {
		p.MinGain = 1
	}
	if p.MaxMigrations == 0 {
		p.MaxMigrations = 4
	}
	return p
}
