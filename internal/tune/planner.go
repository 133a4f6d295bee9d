package tune

import (
	"fmt"
	"sort"

	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
)

// PlanVersion is bumped when the Plan schema changes; cached plans with
// another version are ignored. Version 4 retired version 3's smoothing-path
// and weighted-row axes, so cached "…-sp-rows…" plans are re-planned;
// version 5 retired the intra-rank worker axis ("workers", "…-w1" keys).
const PlanVersion = 5

// Plan is the planner's decision for one (mesh, procs, config, profile)
// request — everything needed to launch the run, plus the evidence.
type Plan struct {
	Version int    `json:"version"`
	Mesh    [3]int `json:"mesh"`
	Procs   int    `json:"procs"`

	// Scheme is the algorithm, encoded by its short name (ca or yz; xy in
	// plans persisted before X-Y left the search). An unknown name does not
	// decode.
	Scheme dycore.Algorithm `json:"scheme"`
	PA     int              `json:"pa"`
	PB     int              `json:"pb"`
	M      int              `json:"m"`
	// Stage is the staged-exchange halo depth for the CA scheme (0 = full
	// depth M).
	Stage int `json:"stage,omitempty"`
	// RowStarts is the y-row partition (omitted = uniform).
	RowStarts []int `json:"row_starts,omitempty"`
	// HaloY, HaloZ record the halo depths the scheme implies (informational).
	HaloY int `json:"halo_y"`
	HaloZ int `json:"halo_z"`

	// PredictedStep is the analytic model's busiest-rank seconds per step;
	// for a rebalancer's re-plan it is the piloted step under the measured
	// per-rank rates.
	PredictedStep float64 `json:"predicted_step_s"`
	// PilotStep is the pilot run's simulated seconds per step (0 when the
	// plan was not refined empirically).
	PilotStep float64 `json:"pilot_step_s,omitempty"`
	// Refined reports whether the empirical refiner ran.
	Refined bool `json:"refined"`
	// ProfileHash ties the plan to the machine profile that produced it.
	ProfileHash string `json:"profile_hash"`
}

// Setup builds the dycore setup that executes the plan. The caller's config
// supplies the numerics; the plan overrides M (and StageM for CA).
func (p Plan) Setup(cfg dycore.Config) dycore.Setup {
	cfg.M = p.M
	if p.Scheme == dycore.AlgCommAvoid {
		cfg.StageM = p.Stage
	}
	return dycore.Setup{Alg: p.Scheme, PA: p.PA, PB: p.PB, Cfg: cfg, RowStarts: p.RowStarts}
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	s := fmt.Sprintf("%s %dx%d m=%d halo(y=%d,z=%d)",
		p.Scheme.Name(), p.PA, p.PB, p.M, p.HaloY, p.HaloZ)
	if p.Stage > 0 {
		s += fmt.Sprintf(" stage=%d", p.Stage)
	}
	if p.RowStarts != nil {
		s += fmt.Sprintf(" rows=%v", p.RowStarts)
	}
	return s
}

// Planner chooses decompositions: analytic ranking over the full candidate
// space, then (optionally) an empirical pilot of the top candidates, with
// an optional on-disk memo. The zero value is not usable; fill Profile.
type Planner struct {
	Profile Profile
	// Cache memoizes plans on disk (nil = no memoization).
	Cache *Cache
	// Search bounds the candidate enumeration.
	Search SearchOptions
	// TopK is how many analytic leaders the pilot stage re-measures
	// (default 4; 0 uses the default, negative disables the refiner).
	TopK int
	// PilotSteps is the length of each pilot run (default
	// DefaultPilotSteps).
	PilotSteps int
}

// DefaultPilotSteps is the pilot length when none is given: two steps, since
// a one-step pilot carries the first step's warm-up, which differs by layout.
const DefaultPilotSteps = 2

// topK resolves the pilot width.
func (pl *Planner) topK() int {
	switch {
	case pl.TopK < 0:
		return 0
	case pl.TopK == 0:
		return 4
	default:
		return pl.TopK
	}
}

// pilotSteps resolves the pilot length.
func (pl *Planner) pilotSteps() int {
	if pl.PilotSteps < 1 {
		return DefaultPilotSteps
	}
	return pl.PilotSteps
}

// Plan chooses a layout for running cfg on g with exactly procs ranks.
// It is deterministic: the same inputs and profile always return the same
// plan (pilot runs measure the simulated LogP clock, which is reproducible).
func (pl *Planner) Plan(g *grid.Grid, procs int, cfg dycore.Config) (Plan, error) {
	if procs < 1 {
		return Plan{}, fmt.Errorf("tune: procs must be ≥ 1, got %d", procs)
	}
	if err := cfg.Validate(); err != nil {
		return Plan{}, err
	}
	key := pl.cacheKey(g, procs, cfg)
	if p, ok := pl.Cache.Get(key); ok {
		return p, nil
	}

	ests := pl.rank(g, procs, cfg)
	if len(ests) == 0 {
		return Plan{}, fmt.Errorf("tune: no feasible layout for %d ranks on mesh %dx%dx%d",
			procs, g.Nx, g.Ny, g.Nz)
	}

	best := ests[0]
	plan := planFrom(g, procs, best, pl.Profile)

	// Empirical refinement: pilot-run the analytic leaders for a few steps
	// on the simulated network and keep the fastest simulated step time.
	if k := pl.topK(); k > 0 {
		if k > len(ests) {
			k = len(ests)
		}
		steps := pl.pilotSteps()
		bestSim, bestIdx := 0.0, -1
		for i := 0; i < k; i++ {
			sim, _ := PilotStep(g, pl.Profile, ests[i].Setup, steps, nil)
			if bestIdx < 0 || sim < bestSim {
				bestSim, bestIdx = sim, i
			}
		}
		plan = planFrom(g, procs, ests[bestIdx], pl.Profile)
		plan.PilotStep = bestSim
		plan.Refined = true
	}

	if err := pl.Cache.Put(key, plan); err != nil {
		return plan, fmt.Errorf("tune: memoize plan: %w", err)
	}
	return plan, nil
}

// rank enumerates the candidate space and returns its analytic estimates in
// deterministic order: by predicted time, Key as the tiebreaker.
// The first topK() entries are what the pilot stage re-measures.
func (pl *Planner) rank(g *grid.Grid, procs int, cfg dycore.Config) []Estimate {
	cands := Candidates(g, procs, cfg, pl.Profile, pl.Search)
	ests := make([]Estimate, len(cands))
	for i, c := range cands {
		ests[i] = Evaluate(g, pl.Profile, c)
	}
	sort.Slice(ests, func(a, b int) bool {
		if ests[a].Total != ests[b].Total {
			return ests[a].Total < ests[b].Total
		}
		return Key(ests[a].Setup) < Key(ests[b].Setup)
	})
	return ests
}

// PlanOf builds a Plan directly from a chosen layout and its piloted step
// time, bypassing the enumeration — the rebalancing controller's entry point
// for publishing a mid-run re-plan in the same schema the planner and the job
// service persist.
func PlanOf(g *grid.Grid, procs int, s dycore.Setup, prof Profile, predicted float64) Plan {
	return planFrom(g, procs, Estimate{Setup: s, Total: predicted}, prof)
}

// planFrom fills a Plan from an estimate.
func planFrom(g *grid.Grid, procs int, e Estimate, prof Profile) Plan {
	s := e.Setup
	_, hy, hz := s.HaloWidths()
	return Plan{
		Version: PlanVersion,
		Mesh:    [3]int{g.Nx, g.Ny, g.Nz},
		Procs:   procs,
		Scheme:  s.Alg, PA: s.PA, PB: s.PB, M: s.Cfg.M,
		Stage:         stage(s),
		RowStarts:     s.RowStarts,
		HaloY:         hy,
		HaloZ:         hz,
		PredictedStep: e.Total,
		ProfileHash:   prof.Hash(),
	}
}

// PilotStep runs the layout for steps steps on the profile's simulated
// machine and returns the simulated seconds per step and each rank's
// compute seconds per step, in rank order. slow, when non-nil, scales rank
// r's compute by slow[r] (comm.Faults' ComputeScale), so a layout is priced
// under measured per-rank rates; nil runs at unit rates. The Held–Suarez
// initial state gives the pilot realistic filter activity. It is the one
// pilot: the refiner, MeasureStep and the rebalancing controller call it.
func PilotStep(g *grid.Grid, prof Profile, s dycore.Setup, steps int, slow []float64) (step float64, comp []float64) {
	var opts dycore.RunOpts
	if slow != nil {
		opts.Faults = comm.NewFaults(len(slow), 0)
		for r, sl := range slow {
			opts.Faults.Rank(r).ComputeScale = sl
		}
	}
	res, _ := dycore.RunWithOpts(s, g, prof.NetModel(), heldsuarez.InitialState, steps, opts)
	comp = make([]float64, len(res.Agg.RankComp))
	for r, c := range res.Agg.RankComp {
		comp[r] = c / float64(steps)
	}
	return res.Agg.SimTime / float64(steps), comp
}

// MeasureStep runs one layout for the given steps under the profile's
// network model and returns simulated seconds per step — the quantity the
// refiner optimizes, exported for exhaustive benchmarking (cadytune bench).
func (pl *Planner) MeasureStep(s dycore.Setup, g *grid.Grid, steps int) float64 {
	if steps < 1 {
		steps = DefaultPilotSteps
	}
	step, _ := PilotStep(g, pl.Profile, s, steps, nil)
	return step
}
