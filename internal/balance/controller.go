// Package balance is the live load-rebalancing runtime: it watches per-rank
// compute telemetry at the step-boundary barrier, detects sustained
// imbalance (a straggler rank, a drifting partition), re-plans the
// decomposition by piloting layouts on the simulated machine under the
// measured per-rank slowdowns (tune.PilotStep, the clock the run is charged
// on), and — when the piloted win clears a modeled migration cost —
// quiesces the run at a step boundary and restarts it in the new layout
// through the cross-decomposition checkpoint path. The
// controller is deliberately layout-generic: it reasons in the planner's
// candidate space (dycore.Setup values from tune.Candidates), so any layout
// the planner can enumerate can be migrated to.
package balance

import (
	"fmt"
	"math"
	"sync"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/tune"
)

// The controller's policy. A 10x straggler on a 4-rank run is detected at
// step 8 and migrated away from (the soak tests); a fault-free YZ run never
// reaches the re-planner.
const (
	// window is the telemetry window in steps: per-rank compute deltas are
	// accumulated over window steps before each imbalance evaluation.
	window = 4
	// threshold is the raw max/min per-rank compute ratio above which a
	// window counts as imbalanced. It leaves headroom over the ~1.2 ratio the
	// polar-filter skew produces on a uniform YZ partition; what trips it is
	// then priced by pilots, which may find the layout already the fastest.
	threshold = 1.5
	// patience is how many consecutive imbalanced windows must be observed
	// before re-planning — the hysteresis that keeps jitter from thrashing.
	patience = 2
	// cooldown is how many windows are ignored after a migration or a
	// rejected re-plan before watching again.
	cooldown = 2
	// smoothing is the EWMA coefficient applied to window telemetry (1
	// would use only the latest window).
	smoothing = 0.5
	// minGain scales the migration-cost gate: a re-plan is accepted only
	// when the piloted saving over the remaining steps exceeds minGain
	// times the modeled migration cost.
	minGain = 1
	// replanTol bounds re-piloting: a decision whose slowdowns are each
	// within this fraction of the last rejected decision's is rejected
	// without pilots. Under the same rates the pilots pick the same layout,
	// and its saving only shrinks with the remaining steps.
	replanTol = 0.05
	// maxMigrations bounds the migrations of one run.
	maxMigrations = 4
)

// Migration records one executed layout switch.
type Migration struct {
	// Step is the global step boundary the run was quiesced at.
	Step int `json:"step"`
	// From and To are the keys (tune.Key) of the old and new layouts.
	From string `json:"from"`
	To   string `json:"to"`
	// PredictedGain is the piloted saving over the remaining steps that
	// justified the switch; Cost is the modeled migration price it cleared.
	PredictedGain float64 `json:"predicted_gain_s"`
	Cost          float64 `json:"cost_s"`
}

// Stats is a snapshot of the controller's decision counters.
type Stats struct {
	// Decisions counts imbalance detections that reached the re-planning
	// stage; Skipped counts those that were rejected (no better layout, gain
	// below the migration-cost gate, or migration budget exhausted).
	Decisions int64 `json:"decisions"`
	Skipped   int64 `json:"skipped"`
	// LastRatio is the max/min per-rank compute ratio of the latest
	// evaluated window (EWMA-smoothed).
	LastRatio float64 `json:"last_ratio,omitempty"`
}

// controller implements the telemetry → detect → re-plan → migrate loop for
// one run. Run drives it from the step-boundary barrier through hook (zero
// allocations there) and consults it through takePending after a rebalance
// stop; it is safe for concurrent use.
type controller struct {
	g     *grid.Grid
	prof  tune.Profile
	procs int
	steps int // total steps of the job

	mu  sync.Mutex
	set dycore.Setup //cadyvet:guardedby mu
	// prevComp is the cumulative per-rank compute at the previous boundary;
	// ewma the smoothed per-window compute. Both preallocated to the rank
	// count so the observe path never allocates.
	prevComp []float64 //cadyvet:guardedby mu
	ewma     []float64 //cadyvet:guardedby mu
	haveEwma bool      //cadyvet:guardedby mu
	// expect is the current layout's per-rank compute per step in a
	// unit-rate pilot, run at the layout's first decision; rejected the
	// slowdowns of the last decision its pilots turned down. Both are
	// cleared by a migration.
	expect     []float64  //cadyvet:guardedby mu
	rejected   []float64  //cadyvet:guardedby mu
	boundaries int        //cadyvet:guardedby mu
	over       int        //cadyvet:guardedby mu
	cooling    int        //cadyvet:guardedby mu
	pending    *tune.Plan //cadyvet:guardedby mu
	pendingMig Migration  //cadyvet:guardedby mu

	migrations []Migration //cadyvet:guardedby mu
	decisions  int64       //cadyvet:guardedby mu
	skipped    int64       //cadyvet:guardedby mu
	lastRatio  float64     //cadyvet:guardedby mu
}

// newController builds a controller for a run of `steps` total steps that
// starts in the given layout. Only the planner's schemes are re-plannable:
// CA and YZ under the Y-Z decomposition, not X-Y or 3-D. The algorithm and
// the numerics (M among them) are held fixed across re-plans (changing them
// mid-run would change the trajectory); only the factorization and the row
// partition may move.
func newController(g *grid.Grid, prof tune.Profile, steps int, start dycore.Setup) (*controller, error) {
	if steps < 1 {
		return nil, fmt.Errorf("balance: steps = %d must be >= 1", steps)
	}
	if start.Alg != dycore.AlgCommAvoid && start.Alg != dycore.AlgBaselineYZ {
		return nil, fmt.Errorf("balance: algorithm %s is not rebalanceable", start.Alg)
	}
	if start.PA < 1 || start.PB < 1 {
		return nil, fmt.Errorf("balance: starting candidate has empty process grid %dx%d", start.PA, start.PB)
	}
	procs := start.Procs()
	c := &controller{
		g:     g,
		prof:  prof,
		procs: procs,
		steps: steps,
		set:   start,

		prevComp: make([]float64, procs),
		ewma:     make([]float64, procs),
	}
	return c, nil
}

// setup returns the current layout.
func (c *controller) setup() dycore.Setup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.set
}

// stats returns the decision counters.
func (c *controller) stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Decisions: c.decisions, Skipped: c.skipped, LastRatio: c.lastRatio}
}

// hook arms the controller for one run segment whose step counter starts at
// global step base, returning the observer Run calls at every step boundary
// with the per-rank cumulative compute (dycore.RunOpts.Boundary's comp).
// Each segment starts its telemetry fresh: the runner resets the comm
// statistics after bootstrap, so cumulative compute restarts from zero.
func (c *controller) hook(base int) func(done int, comp []float64) bool {
	c.mu.Lock()
	for i := range c.prevComp {
		c.prevComp[i] = 0
	}
	c.boundaries = 0
	c.mu.Unlock()
	return func(done int, comp []float64) bool {
		return c.observe(base, done, comp)
	}
}

// observe ingests one step boundary's cumulative per-rank compute telemetry
// and returns true when the run should quiesce for a migration (a plan is
// then waiting in takePending). It runs under the step barrier with all
// ranks parked, so it must stay cheap and allocation-free; the expensive
// re-planning only happens on the rare sustained-imbalance path.
func (c *controller) observe(base, done int, comp []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(comp) != c.procs || c.pending != nil {
		return false
	}
	c.boundaries++
	if c.boundaries%window != 0 {
		return false
	}
	for i, v := range comp {
		win := v - c.prevComp[i]
		c.prevComp[i] = v
		if c.haveEwma {
			c.ewma[i] = (1-smoothing)*c.ewma[i] + smoothing*win
		} else {
			c.ewma[i] = win
		}
	}
	c.haveEwma = true
	minE, maxE := c.ewma[0], c.ewma[0]
	for _, v := range c.ewma[1:] {
		if v < minE {
			minE = v
		}
		if v > maxE {
			maxE = v
		}
	}
	if minE <= 0 {
		return false
	}
	c.lastRatio = maxE / minE
	if base+done >= c.steps {
		return false // final boundary: nothing left to migrate for
	}
	if c.cooling > 0 {
		c.cooling--
		return false
	}
	if c.lastRatio < threshold {
		c.over = 0
		return false
	}
	c.over++
	if c.over < patience {
		return false
	}
	c.over = 0
	return c.decide(base + done)
}

// decide re-plans under the measured rates; it runs locked, on the rare
// sustained-imbalance path. Every layout is priced by a pilot on the
// simulated machine with each rank's compute scaled by its slowdown — the
// clock the run itself is charged on. Returns true when a migration-worthy
// plan was staged in pending.
//
//cadyvet:locked c.mu
func (c *controller) decide(step int) bool {
	c.decisions++
	if len(c.migrations) >= maxMigrations {
		return c.skip()
	}
	// Per-rank slowdowns: measured window compute against what a unit-rate
	// pilot of the current layout charges each rank, normalized so the
	// fastest rank is 1 and clamped below at 1. The pilot accounts for the
	// layout's own skew (polar filter, ghost rows); the clamp keeps a noisy
	// fast rank from reading as faster than the machine.
	if c.expect == nil {
		_, c.expect = tune.PilotStep(c.g, c.prof, c.set, tune.DefaultPilotSteps, nil)
	}
	slow := make([]float64, c.procs)
	// observe decides only when every ewma is positive, so minRel > 0.
	minRel := math.Inf(1)
	for i, e := range c.expect {
		if e <= 0 {
			return c.skip()
		}
		slow[i] = c.ewma[i] / (e * window)
		minRel = min(minRel, slow[i])
	}
	for i := range slow {
		slow[i] = max(slow[i]/minRel, 1)
	}
	if nearRates(slow, c.rejected) {
		return c.skip()
	}

	cur, _ := tune.PilotStep(c.g, c.prof, c.set, tune.DefaultPilotSteps, slow)
	curKey := tune.Key(c.set)
	best, bestSet, bestKey := cur, c.set, curKey
	consider := func(cd dycore.Setup) {
		k := tune.Key(cd)
		if k == curKey {
			return
		}
		if t, _ := tune.PilotStep(c.g, c.prof, cd, tune.DefaultPilotSteps, slow); t < best || (t == best && k < bestKey) {
			best, bestSet, bestKey = t, cd, k
		}
	}
	// The enumeration keeps the current numerics, M among them (no VaryM),
	// and the algorithm and the stage depth are pinned: switching
	// integrators mid-run, or the staged exchange's depth (which moves the
	// trajectory by its approximation error), would change the trajectory,
	// not just its cost.
	for _, cd := range tune.Candidates(c.g, c.procs, c.set.Cfg, c.prof, tune.SearchOptions{}) {
		if cd.Alg != c.set.Alg || cd.Cfg.StageDepth() != c.set.Cfg.StageDepth() {
			continue
		}
		consider(cd)
		if rows := tune.RatedRows(c.g, c.prof, cd, slow); rows != nil {
			cd.RowStarts = rows
			consider(cd)
		}
	}

	gain := (cur - best) * float64(c.steps-step)
	cost := tune.MigrationCost(c.g, c.set, c.prof)
	if bestKey == curKey || gain <= minGain*cost {
		c.rejected = slow
		return c.skip()
	}
	plan := tune.PlanOf(c.g, c.procs, bestSet, c.prof, best)
	c.pending = &plan
	c.pendingMig = Migration{Step: step, From: curKey, To: bestKey,
		PredictedGain: gain, Cost: cost}
	return true
}

// skip records a decision that stages no migration and cools down.
//
//cadyvet:locked c.mu
func (c *controller) skip() bool {
	c.skipped++
	c.cooling = cooldown
	return false
}

// nearRates reports whether every slowdown in slow is within replanTol of
// prev's (false when prev is nil).
func nearRates(slow, prev []float64) bool {
	if len(prev) != len(slow) {
		return false
	}
	for i, p := range prev {
		if math.Abs(slow[i]-p) > replanTol*p {
			return false
		}
	}
	return true
}

// takePending commits the staged re-plan: the controller switches its
// current layout, resets the telemetry (block sizes changed, so window
// history is stale; the per-rank slowdowns re-emerge within a window) and
// returns the plan with its migration record. Nil plan when no re-plan is
// staged — the run stopped for another reason.
func (c *controller) takePending() (*tune.Plan, Migration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return nil, Migration{}
	}
	p := c.pending
	c.pending = nil
	c.set = p.Setup(c.set.Cfg)
	c.expect, c.rejected = nil, nil
	c.haveEwma = false
	c.over = 0
	c.cooling = cooldown
	c.migrations = append(c.migrations, c.pendingMig)
	return p, c.pendingMig
}
