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
// and weighted-row axes, so cached "…-sp-rows…" plans are re-planned.
const PlanVersion = 4

// Plan is the planner's decision for one (mesh, procs, config, profile)
// request — everything needed to launch the run, plus the evidence.
type Plan struct {
	Version int    `json:"version"`
	Mesh    [3]int `json:"mesh"`
	Procs   int    `json:"procs"`

	Scheme  Scheme `json:"scheme"`
	PA      int    `json:"pa"`
	PB      int    `json:"pb"`
	M       int    `json:"m"`
	Workers int    `json:"workers"`
	// Stage is the staged-exchange halo depth for the CA scheme (0 = full
	// depth M).
	Stage int `json:"stage,omitempty"`
	// RowStarts is the y-row partition (omitted = uniform).
	RowStarts []int `json:"row_starts,omitempty"`
	// HaloY, HaloZ record the halo depths the scheme implies (informational).
	HaloY int `json:"halo_y"`
	HaloZ int `json:"halo_z"`

	// PredictedStep is the analytic model's busiest-rank seconds per step.
	PredictedStep float64 `json:"predicted_step_s"`
	// PilotStep is the pilot run's simulated seconds per step (0 when the
	// plan was not refined empirically).
	PilotStep float64 `json:"pilot_step_s,omitempty"`
	// Refined reports whether the empirical refiner ran.
	Refined bool `json:"refined"`
	// ProfileHash ties the plan to the machine profile that produced it.
	ProfileHash string `json:"profile_hash"`
}

// Candidate reconstructs the plan's search-space point.
func (p Plan) Candidate() Candidate {
	return Candidate{Scheme: p.Scheme, PA: p.PA, PB: p.PB, M: p.M, Workers: p.Workers, Stage: p.Stage, RowStarts: p.RowStarts}
}

// Setup builds the dycore setup that executes the plan. The caller's config
// supplies the numerics; the plan overrides M and Workers.
func (p Plan) Setup(cfg dycore.Config) dycore.Setup {
	return p.Candidate().Setup(cfg)
}

// String implements fmt.Stringer.
func (p Plan) String() string {
	s := fmt.Sprintf("%s %dx%d m=%d workers=%d halo(y=%d,z=%d)",
		p.Scheme, p.PA, p.PB, p.M, p.Workers, p.HaloY, p.HaloZ)
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
	// PilotSteps is the length of each pilot run (default 2).
	PilotSteps int
}

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

// Plan chooses a layout for running cfg on g with exactly procs ranks.
// It is deterministic: the same inputs and profile always return the same
// plan (pilot runs measure the simulated LogP clock, which is reproducible).
func (pl *Planner) Plan(g *grid.Grid, procs int, cfg dycore.Config) (Plan, error) {
	if procs < 1 {
		return Plan{}, fmt.Errorf("tune: procs must be ≥ 1, got %d", procs)
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	maxW := pl.Search.MaxWorkers
	if maxW < 1 {
		maxW = 1
	}
	key := PlanKey(g.Nx, g.Ny, g.Nz, procs, cfg.M, maxW, pl.Profile.Hash())
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
		steps := pl.PilotSteps
		if steps < 1 {
			steps = 2
		}
		model := pl.Profile.NetModel()
		bestSim, bestIdx := 0.0, -1
		for i := 0; i < k; i++ {
			sim := pilotStep(ests[i].Candidate, g, cfg, model, steps)
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
// deterministic order: by predicted time, candidate key as the tiebreaker.
// The first topK() entries are what the pilot stage re-measures.
func (pl *Planner) rank(g *grid.Grid, procs int, cfg dycore.Config) []Estimate {
	cands := Candidates(g, procs, cfg, pl.Profile, pl.Search)
	ests := make([]Estimate, len(cands))
	for i, c := range cands {
		ests[i] = Evaluate(g, cfg, pl.Profile, c)
	}
	sort.Slice(ests, func(a, b int) bool {
		if ests[a].Total != ests[b].Total {
			return ests[a].Total < ests[b].Total
		}
		return ests[a].Candidate.Key() < ests[b].Candidate.Key()
	})
	return ests
}

// PlanOf builds a Plan directly from a chosen candidate and its predicted
// step time, bypassing the enumeration — the rebalancing controller's entry
// point for publishing a mid-run re-plan in the same schema the planner and
// the job service persist.
func PlanOf(g *grid.Grid, procs int, c Candidate, prof Profile, predicted float64) Plan {
	return planFrom(g, procs, Estimate{Candidate: c, Total: predicted}, prof)
}

// planFrom fills a Plan from an estimate.
func planFrom(g *grid.Grid, procs int, e Estimate, prof Profile) Plan {
	c := e.Candidate
	var hy, hz int
	if c.Scheme == SchemeCA {
		sd := c.M
		if c.Stage > 0 && c.Stage < c.M {
			sd = c.Stage
		}
		_, hy, hz = dycore.CommAvoidHalo(sd)
	} else {
		_, hy, hz = dycore.BaselineHalo()
	}
	return Plan{
		Version: PlanVersion,
		Mesh:    [3]int{g.Nx, g.Ny, g.Nz},
		Procs:   procs,
		Scheme:  c.Scheme, PA: c.PA, PB: c.PB, M: c.M, Workers: c.Workers,
		Stage:         c.Stage,
		RowStarts:     c.RowStarts,
		HaloY:         hy,
		HaloZ:         hz,
		PredictedStep: e.Total,
		ProfileHash:   prof.Hash(),
	}
}

// pilotStep runs the candidate for steps steps on the simulated network and
// returns simulated seconds per step. The Held–Suarez initial state gives
// the pilot realistic filter activity.
func pilotStep(c Candidate, g *grid.Grid, cfg dycore.Config, model comm.NetModel, steps int) float64 {
	res := dycore.Run(c.Setup(cfg), g, model, heldsuarez.InitialState, steps)
	return res.Agg.SimTime / float64(steps)
}

// MeasureStep runs one candidate for the given steps under the profile's
// network model and returns simulated seconds per step — the quantity the
// refiner optimizes, exported for exhaustive benchmarking (cadytune bench).
func (pl *Planner) MeasureStep(c Candidate, g *grid.Grid, cfg dycore.Config, steps int) float64 {
	if steps < 1 {
		steps = 2
	}
	return pilotStep(c, g, cfg, pl.Profile.NetModel(), steps)
}
