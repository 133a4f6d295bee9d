// Command cadytune is the autotuner front end: it calibrates a machine
// profile, plans decompositions with the calibrated cost model, runs the
// planned layout, and benchmarks the plan against the exhaustively measured
// candidate space.
//
// Usage:
//
//	cadytune calibrate [-o machine.json] [-rounds N] [-kernel-ms D]
//	cadytune plan -p P [-nx N -ny N -nz N] [-m M] [-profile machine.json]
//	              [-cache DIR] [-topk K] [-max-workers W]
//	cadytune run  (plan flags) [-steps K]
//	cadytune bench (plan flags) [-steps K] [-o BENCH_tune.json] [-check]
//
// plan prints the chosen plan as JSON. bench measures EVERY feasible
// candidate at the given rank budget on the simulated machine and reports
// how the planner's pick compares with the exhaustive best and worst;
// -check exits non-zero unless the pick is within 10% of the best and at
// least 1.5x faster than the worst.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"cadycore/internal/dycore"
	"cadycore/internal/grid"
	"cadycore/internal/tune"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	switch os.Args[1] {
	case "calibrate":
		cmdCalibrate(os.Args[2:])
	case "plan":
		cmdPlan(os.Args[2:])
	case "run":
		cmdRun(os.Args[2:])
	case "bench":
		cmdBench(os.Args[2:])
	default:
		fmt.Fprintln(os.Stderr, "cadytune: unknown subcommand", os.Args[1])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: cadytune {calibrate|plan|run|bench} [flags]  (cadytune <cmd> -h for flags)")
}

func cmdCalibrate(args []string) {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	out := fs.String("o", "machine.json", "output profile path")
	rounds := fs.Int("rounds", 16, "ping-pong rounds per payload size")
	kernelMs := fs.Int("kernel-ms", 50, "minimum wall time per kernel measurement (ms)")
	nx := fs.Int("nx", 64, "kernel-benchmark mesh points in longitude")
	ny := fs.Int("ny", 32, "kernel-benchmark mesh points in latitude")
	nz := fs.Int("nz", 8, "kernel-benchmark mesh levels")
	fs.Parse(args)

	p := tune.Calibrate(tune.CalibrateOptions{
		Rounds: *rounds, Nx: *nx, Ny: *ny, Nz: *nz,
		MinKernelTime: time.Duration(*kernelMs) * time.Millisecond,
	})
	if err := p.Save(*out); err != nil {
		fatal(err)
	}
	fmt.Printf("calibrated profile %s -> %s\n", p.Hash(), *out)
	fmt.Printf("  alpha %.3g s  beta %.3g s/B  (latency %.3g s, overhead %.3g s)\n",
		p.Alpha, p.Beta, p.NetModel().Latency, p.Overhead)
	fmt.Printf("  kernel rates (points/s): adapt %.3g  advect %.3g  smooth %.3g  csum %.3g  filter-row %.3g\n",
		p.Kernels.Adapt, p.Kernels.Advect, p.Kernels.Smooth, p.Kernels.CSum, p.Kernels.FilterRow)
}

// planFlags are the flags shared by plan, run and bench.
type planFlags struct {
	procs, nx, ny, nz, m         int
	topk, pilotSteps, maxWorkers int
	profilePath, cacheDir        string
	varyM, noStaged              bool
}

func addPlanFlags(fs *flag.FlagSet) *planFlags {
	var pf planFlags
	fs.IntVar(&pf.procs, "p", 4, "rank budget")
	fs.IntVar(&pf.nx, "nx", 192, "mesh points in longitude")
	fs.IntVar(&pf.ny, "ny", 96, "mesh points in latitude")
	fs.IntVar(&pf.nz, "nz", 24, "mesh levels")
	fs.IntVar(&pf.m, "m", 3, "nonlinear iterations per step")
	fs.IntVar(&pf.topk, "topk", 4, "pilot-run this many analytic leaders (negative: analytic only)")
	fs.IntVar(&pf.pilotSteps, "pilot-steps", 2, "steps per pilot run")
	fs.IntVar(&pf.maxWorkers, "max-workers", 1, "largest Config.Workers candidate")
	fs.StringVar(&pf.profilePath, "profile", "", "machine profile (default: analytic Tianhe-like profile)")
	fs.StringVar(&pf.cacheDir, "cache", "", "plan memo directory (empty: no memoization)")
	fs.BoolVar(&pf.varyM, "vary-m", false, "also search M-1 and M+1 (changes physics accuracy)")
	fs.BoolVar(&pf.noStaged, "no-staged", false, "disable staged-exchange (shallow halo) CA candidates")
	return &pf
}

func (pf *planFlags) planner() *tune.Planner {
	prof := tune.DefaultProfile()
	if pf.profilePath != "" {
		var err error
		if prof, err = tune.LoadProfile(pf.profilePath); err != nil {
			fatal(err)
		}
	}
	pl := &tune.Planner{
		Profile:    prof,
		TopK:       pf.topk,
		PilotSteps: pf.pilotSteps,
		Search: tune.SearchOptions{
			MaxWorkers: pf.maxWorkers,
			VaryM:      pf.varyM,
			NoStaged:   pf.noStaged,
		},
	}
	if pf.cacheDir != "" {
		pl.Cache = tune.NewCache(pf.cacheDir)
	}
	return pl
}

func (pf *planFlags) config() dycore.Config {
	cfg := dycore.DefaultConfig()
	cfg.M = pf.m
	return cfg
}

func (pf *planFlags) plan() (*tune.Planner, *grid.Grid, dycore.Config, tune.Plan) {
	pl := pf.planner()
	g := grid.New(pf.nx, pf.ny, pf.nz)
	cfg := pf.config()
	plan, err := pl.Plan(g, pf.procs, cfg)
	if err != nil {
		fatal(err)
	}
	return pl, g, cfg, plan
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	pf := addPlanFlags(fs)
	fs.Parse(args)
	_, _, _, plan := pf.plan()
	b, _ := json.MarshalIndent(plan, "", "  ")
	fmt.Println(string(b))
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	pf := addPlanFlags(fs)
	steps := fs.Int("steps", 4, "time steps")
	fs.Parse(args)
	pl, g, cfg, plan := pf.plan()
	fmt.Printf("plan: %s (predicted %.4g s/step)\n", plan, plan.PredictedStep)
	sim := pl.MeasureStep(plan.Candidate(), g, cfg, *steps)
	fmt.Printf("ran %d steps on the simulated machine: %.4g s/step\n", *steps, sim)
}

// benchEntry is one measured candidate of a bench sweep.
type benchEntry struct {
	Key        string  `json:"key"`
	PredictedS float64 `json:"predicted_step_s"`
	MeasuredS  float64 `json:"measured_step_s"`
}

// benchReport is the bench subcommand's output schema: the planner's pick
// versus the exhaustively measured candidate space at one rank budget.
type benchReport struct {
	Mesh        [3]int `json:"mesh"`
	Procs       int    `json:"procs"`
	M           int    `json:"m"`
	Steps       int    `json:"steps"`
	ProfileHash string `json:"profile_hash"`

	Planned benchEntry `json:"planned"`
	Best    benchEntry `json:"best"`
	Worst   benchEntry `json:"worst"`

	// PlannedOverBest is planned/best measured step time (1.0 = the planner
	// found the optimum; acceptance wants <= 1.10).
	PlannedOverBest float64 `json:"planned_over_best"`
	// WorstOverPlanned is worst/planned measured step time (how much the
	// plan saves over the worst layout; acceptance wants >= 1.5).
	WorstOverPlanned float64 `json:"worst_over_planned"`

	Candidates []benchEntry `json:"candidates"`
}

func cmdBench(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	pf := addPlanFlags(fs)
	steps := fs.Int("steps", 2, "steps per measured candidate")
	out := fs.String("o", "BENCH_tune.json", "output JSON path")
	check := fs.Bool("check", false, "exit non-zero unless planned<=1.10x best and worst>=1.5x planned")
	fs.Parse(args)

	pl, g, cfg, plan := pf.plan()
	cands := tune.Candidates(g, pf.procs, cfg, pl.Profile, pl.Search)
	fmt.Printf("plan: %s\nmeasuring all %d feasible candidates at P=%d on %dx%dx%d...\n",
		plan, len(cands), pf.procs, g.Nx, g.Ny, g.Nz)

	entries := make([]benchEntry, len(cands))
	for i, c := range cands {
		entries[i] = benchEntry{
			Key:        c.Key(),
			PredictedS: tune.Evaluate(g, cfg, pl.Profile, c).Total,
			MeasuredS:  pl.MeasureStep(c, g, cfg, *steps),
		}
		fmt.Printf("  %-28s predicted %.4g  measured %.4g s/step\n",
			entries[i].Key, entries[i].PredictedS, entries[i].MeasuredS)
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].MeasuredS != entries[b].MeasuredS {
			return entries[a].MeasuredS < entries[b].MeasuredS
		}
		return entries[a].Key < entries[b].Key
	})

	rep := benchReport{
		Mesh: [3]int{g.Nx, g.Ny, g.Nz}, Procs: pf.procs, M: cfg.M, Steps: *steps,
		ProfileHash: pl.Profile.Hash(),
		Best:        entries[0],
		Worst:       entries[len(entries)-1],
		Candidates:  entries,
	}
	plannedKey := plan.Candidate().Key()
	for _, e := range entries {
		if e.Key == plannedKey {
			rep.Planned = e
			break
		}
	}
	if rep.Planned.Key == "" {
		fatal(fmt.Errorf("planned candidate %s missing from the enumeration", plannedKey))
	}
	if rep.Best.MeasuredS > 0 {
		rep.PlannedOverBest = rep.Planned.MeasuredS / rep.Best.MeasuredS
	}
	if rep.Planned.MeasuredS > 0 {
		rep.WorstOverPlanned = rep.Worst.MeasuredS / rep.Planned.MeasuredS
	}

	b, _ := json.MarshalIndent(rep, "", "  ")
	b = append(b, '\n')
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("planned %s: %.4g s/step = %.3fx best (%s), worst/planned %.2fx -> %s\n",
		rep.Planned.Key, rep.Planned.MeasuredS, rep.PlannedOverBest, rep.Best.Key,
		rep.WorstOverPlanned, *out)

	if *check {
		ok := true
		if rep.PlannedOverBest > 1.10 {
			fmt.Fprintf(os.Stderr, "FAIL: planned layout is %.3fx the best (want <= 1.10)\n", rep.PlannedOverBest)
			ok = false
		}
		if rep.WorstOverPlanned < 1.5 {
			fmt.Fprintf(os.Stderr, "FAIL: worst/planned %.2fx (want >= 1.5)\n", rep.WorstOverPlanned)
			ok = false
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Println("check passed: within 10% of exhaustive best, >= 1.5x over worst")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cadytune:", err)
	os.Exit(1)
}
