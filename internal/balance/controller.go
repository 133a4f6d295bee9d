package balance

import (
	"fmt"
	"sync"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/tune"
)

// Migration records one executed layout switch.
type Migration struct {
	// Step is the global step boundary the run was quiesced at.
	Step int `json:"step"`
	// From and To are the keys (tune.Key) of the old and new layouts.
	From string `json:"from"`
	To   string `json:"to"`
	// PredictedGain is the modeled saving over the remaining steps that
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

// Controller implements the telemetry → detect → re-plan → migrate loop for
// one job. It is driven from the step-boundary barrier through Hook (zero
// allocations there), consulted by the run driver through TakePending after
// a rebalance stop, and safe for concurrent use.
type Controller struct {
	pol   Policy // defaults applied
	g     *grid.Grid
	prof  tune.Profile
	procs int
	steps int // total steps of the job

	mu  sync.Mutex
	set dycore.Setup //cadyvet:guardedby mu
	// modelComp is the §5.3 per-rank compute baseline of the current
	// layout; prevComp the cumulative per-rank compute at the previous
	// boundary; ewma the smoothed per-window compute. All preallocated to
	// the rank count so the observe path never allocates.
	modelComp  []float64  //cadyvet:guardedby mu
	prevComp   []float64  //cadyvet:guardedby mu
	ewma       []float64  //cadyvet:guardedby mu
	slow       []float64  //cadyvet:guardedby mu
	haveEwma   bool       //cadyvet:guardedby mu
	boundaries int        //cadyvet:guardedby mu
	over       int        //cadyvet:guardedby mu
	cooldown   int        //cadyvet:guardedby mu
	pending    *tune.Plan //cadyvet:guardedby mu
	pendingMig Migration  //cadyvet:guardedby mu

	migrations []Migration //cadyvet:guardedby mu
	decisions  int64       //cadyvet:guardedby mu
	skipped    int64       //cadyvet:guardedby mu
	lastRatio  float64     //cadyvet:guardedby mu
}

// NewController builds a controller for a job of `steps` total steps that
// starts in the given layout. Only the planner's schemes are re-plannable:
// CA and YZ under the Y-Z decomposition, not X-Y or 3-D. The algorithm and
// the numerics (M among them) are held fixed across re-plans (changing them
// mid-run would change the trajectory); only the factorization, row
// partition and stage depth may move.
func NewController(pol Policy, g *grid.Grid, prof tune.Profile, steps int, start dycore.Setup) (*Controller, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	pol = pol.withDefaults()
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
	c := &Controller{
		pol:   pol,
		g:     g,
		prof:  prof,
		procs: procs,
		steps: steps,
		set:   start,

		modelComp: tune.PerRankCompute(g, prof, start),
		prevComp:  make([]float64, procs),
		ewma:      make([]float64, procs),
		slow:      make([]float64, procs),
	}
	return c, nil
}

// Setup returns the current layout.
func (c *Controller) Setup() dycore.Setup {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.set
}

// Snapshot returns the decision counters.
func (c *Controller) Snapshot() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Decisions: c.decisions, Skipped: c.skipped, LastRatio: c.lastRatio}
}

// Hook arms the controller for one run segment whose step counter starts at
// global step base, returning the dycore.RunOpts.Rebalance callback. Each
// segment starts its telemetry fresh: the runner resets the comm statistics
// after bootstrap, so cumulative compute restarts from zero.
func (c *Controller) Hook(base int) func(done int, clock, comp []float64) bool {
	c.mu.Lock()
	for i := range c.prevComp {
		c.prevComp[i] = 0
	}
	c.boundaries = 0
	c.mu.Unlock()
	return func(done int, clock, comp []float64) bool {
		return c.observe(base, done, comp)
	}
}

// observe ingests one step boundary's cumulative per-rank compute telemetry
// and returns true when the run should quiesce for a migration (a plan is
// then waiting in TakePending). It runs under the step barrier with all
// ranks parked, so it must stay cheap and allocation-free; the expensive
// re-planning only happens on the rare sustained-imbalance path.
func (c *Controller) observe(base, done int, comp []float64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(comp) != c.procs || c.pending != nil {
		return false
	}
	c.boundaries++
	if c.boundaries%c.pol.Window != 0 {
		return false
	}
	s := c.pol.Smoothing
	for i, v := range comp {
		win := v - c.prevComp[i]
		c.prevComp[i] = v
		if c.haveEwma {
			c.ewma[i] = (1-s)*c.ewma[i] + s*win
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
	if c.cooldown > 0 {
		c.cooldown--
		return false
	}
	if c.lastRatio < c.pol.Threshold {
		c.over = 0
		return false
	}
	c.over++
	if c.over < c.pol.Patience {
		return false
	}
	c.over = 0
	return c.decide(base + done)
}

// decide re-plans under the measured rates; it runs locked, on the rare
// sustained-imbalance path. Returns true when a migration-worthy plan was
// staged in pending.
//
//cadyvet:locked c.mu
func (c *Controller) decide(step int) bool {
	c.decisions++
	if len(c.migrations) >= c.pol.MaxMigrations {
		c.skipped++
		c.cooldown = c.pol.Cooldown
		return false
	}
	// Per-rank slowdowns: measured window compute against the §5.3 baseline,
	// normalized so the fastest rank is 1 and clamped below at 1. The
	// normalization removes the model's absolute-scale error; the clamp
	// keeps a noisy fast rank from reading as "faster than the model".
	window := float64(c.pol.Window)
	minRel := -1.0
	for i := range c.slow {
		model := c.modelComp[i] * window
		if model <= 0 {
			c.skipped++
			c.cooldown = c.pol.Cooldown
			return false
		}
		rel := c.ewma[i] / model
		c.slow[i] = rel
		if minRel < 0 || rel < minRel {
			minRel = rel
		}
	}
	if minRel <= 0 {
		c.skipped++
		c.cooldown = c.pol.Cooldown
		return false
	}
	for i := range c.slow {
		c.slow[i] /= minRel
		if c.slow[i] < 1 {
			c.slow[i] = 1
		}
	}

	slow := c.slow // local alias: the closure below runs under the same lock
	cur := tune.EvaluateWithRates(c.g, c.prof, c.set, slow)
	curKey := tune.Key(c.set)
	best, bestKey := cur, curKey
	consider := func(cd dycore.Setup) {
		e := tune.EvaluateWithRates(c.g, c.prof, cd, slow)
		if k := tune.Key(cd); e.Total < best.Total || (e.Total == best.Total && k < bestKey) {
			best, bestKey = e, k
		}
	}
	// The enumeration keeps the current numerics, M among them (no VaryM),
	// and the algorithm is pinned: switching integrators mid-run would
	// change the trajectory, not just its cost.
	for _, cd := range tune.Candidates(c.g, c.procs, c.set.Cfg, c.prof, tune.SearchOptions{}) {
		if cd.Alg != c.set.Alg {
			continue
		}
		consider(cd)
		if rows := tune.RatedRows(c.g, c.prof, cd, slow); rows != nil {
			cd.RowStarts = rows
			consider(cd)
		}
	}

	remaining := float64(c.steps - step)
	gain := (cur.Total - best.Total) * remaining
	cost := tune.MigrationCost(c.g, c.procs, c.prof)
	if bestKey == curKey || gain <= c.pol.MinGain*cost {
		c.skipped++
		c.cooldown = c.pol.Cooldown
		return false
	}
	plan := tune.PlanOf(c.g, c.procs, best.Setup, c.prof, best.Total)
	c.pending = &plan
	c.pendingMig = Migration{Step: step, From: curKey, To: bestKey,
		PredictedGain: gain, Cost: cost}
	return true
}

// TakePending commits the staged re-plan: the controller switches its
// current layout, resets the telemetry (block sizes changed, so window
// history is stale; the per-rank slowdowns re-emerge within a window) and
// returns the plan with its migration record. Nil plan when no re-plan is
// staged — the run stopped for another reason.
func (c *Controller) TakePending() (*tune.Plan, Migration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil {
		return nil, Migration{}
	}
	p := c.pending
	c.pending = nil
	c.set = p.Setup(c.set.Cfg)
	c.modelComp = tune.PerRankCompute(c.g, c.prof, c.set)
	c.haveEwma = false
	c.over = 0
	c.cooldown = c.pol.Cooldown
	c.migrations = append(c.migrations, c.pendingMig)
	return p, c.pendingMig
}
