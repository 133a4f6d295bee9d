// Command dycore runs one configuration of the dynamical core — algorithm,
// mesh, process grid, step count — and reports communication statistics and
// physical diagnostics. It is the workhorse for exploring a single cell of
// the experiment matrix.
//
// Usage:
//
//	dycore [-alg ca|yz|xy] [-nx N -ny N -nz N] [-pa N -pb N] [-m M]
//	       [-steps K] [-dt1 s -dt2 s] [-hs] [-exactc] [-nooverlap] [-nofuse]
//	dycore -auto [-procs P] [-profile machine.json] [...]
//	dycore -chaos plan.json [-max-restarts N] [-save ck -save-every K] [...]
//
// For -alg yz/ca the process grid is p_y × p_z = pa × pb; for -alg xy it is
// p_x × p_y. With -auto the autotuner (internal/tune) chooses the algorithm,
// process grid, worker count and stage depth for -procs ranks instead;
// -profile supplies a calibrated machine profile (cadytune calibrate),
// otherwise the analytic Tianhe-like profile is used.
//
// With -chaos, the JSON fault plan (internal/fault) is injected into the
// run: stragglers, jitter and send errors perturb the simulated clock, and
// an injected rank crash aborts the run, which then restarts from the
// latest -save/-save-every checkpoint (from the initial state when none
// exists), up to -max-restarts times.
//
//cadyvet:persistence -save checkpoints are resumed from after a crash; writes go through checkpoint.WriteAtomic
package main

import (
	"flag"
	"fmt"
	"os"

	"cadycore/internal/balance"
	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/diag"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/trace"
	"cadycore/internal/tune"
)

func main() {
	alg := flag.String("alg", "ca", "algorithm: ca (communication-avoiding), yz, xy (original)")
	nx := flag.Int("nx", 120, "mesh points in longitude")
	ny := flag.Int("ny", 60, "mesh points in latitude")
	nz := flag.Int("nz", 16, "mesh levels")
	pa := flag.Int("pa", 2, "first process-grid extent (p_y, or p_x for -alg xy)")
	pb := flag.Int("pb", 2, "second process-grid extent (p_z, or p_y for -alg xy)")
	m := flag.Int("m", 3, "nonlinear iterations per step")
	steps := flag.Int("steps", 4, "time steps")
	dt1 := flag.Float64("dt1", 30, "adaptation time step (s)")
	dt2 := flag.Float64("dt2", 180, "advection time step (s)")
	hs := flag.Bool("hs", true, "apply Held-Suarez forcing between steps")
	exactC := flag.Bool("exactc", false, "ablation: disable the approximate nonlinear iteration")
	noOverlap := flag.Bool("nooverlap", false, "ablation: disable computation/communication overlap")
	noFuse := flag.Bool("nofuse", false, "ablation: disable the fused former/later smoothing")
	timeline := flag.Bool("timeline", false, "print a per-rank ASCII timeline of the simulated run")
	shiftPoles := flag.Bool("shiftpoles", false, "exact (antipodal-meridian) pole mirror; requires p_x = 1")
	saveFile := flag.String("save", "", "write a restart checkpoint to this file at the end")
	saveEvery := flag.Int("save-every", 0, "also write the -save checkpoint every K steps (crash durability; 0 = only at the end)")
	loadFile := flag.String("load", "", "initialize from a restart checkpoint instead of the H-S initial state")
	auto := flag.Bool("auto", false, "let the autotuner choose algorithm, process grid and row partition")
	procs := flag.Int("procs", 0, "rank budget for -auto (default pa*pb)")
	profilePath := flag.String("profile", "", "machine profile for -auto/-rebalance (default: analytic Tianhe-like profile)")
	rebalance := flag.Bool("rebalance", false, "live load rebalancing: watch per-rank compute, re-plan and migrate mid-run")
	chaosPath := flag.String("chaos", "", "fault-injection plan (JSON); crashed runs restart from the latest checkpoint")
	maxRestarts := flag.Int("max-restarts", 3, "restarts after an injected rank crash (use -save -save-every to keep progress)")
	flag.Parse()

	if *saveEvery < 0 {
		fmt.Fprintln(os.Stderr, "-save-every must be >= 0")
		os.Exit(2)
	}
	if *saveEvery > 0 && *saveFile == "" {
		fmt.Fprintln(os.Stderr, "-save-every requires -save")
		os.Exit(2)
	}

	cfg := dycore.DefaultConfig()
	cfg.M = *m
	cfg.Dt1, cfg.Dt2 = *dt1, *dt2
	cfg.ExactC, cfg.NoOverlap, cfg.NoFusedSmoothing = *exactC, *noOverlap, *noFuse
	cfg.ShiftedPoleMirror = *shiftPoles

	g := grid.New(*nx, *ny, *nz)
	prof := tune.DefaultProfile()
	if *profilePath != "" {
		var err error
		if prof, err = tune.LoadProfile(*profilePath); err != nil {
			fmt.Fprintln(os.Stderr, "profile:", err)
			os.Exit(1)
		}
	}
	var set dycore.Setup
	if *auto {
		budget := *procs
		if budget == 0 {
			budget = *pa * *pb
		}
		planner := &tune.Planner{Profile: prof}
		plan, err := planner.Plan(g, budget, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "autotune:", err)
			os.Exit(1)
		}
		fmt.Printf("autotuned plan: %s (predicted %.4g s/step, pilot %.4g s/step)\n",
			plan, plan.PredictedStep, plan.PilotStep)
		set = plan.Setup(cfg)
	} else {
		var a dycore.Algorithm
		switch *alg {
		case "ca":
			a = dycore.AlgCommAvoid
		case "yz":
			a = dycore.AlgBaselineYZ
		case "xy":
			a = dycore.AlgBaselineXY
		default:
			fmt.Fprintln(os.Stderr, "unknown -alg:", *alg)
			os.Exit(2)
		}
		set = dycore.Setup{Alg: a, PA: *pa, PB: *pb, Cfg: cfg}
	}

	var hook dycore.StepHook
	if *hs {
		f := heldsuarez.Standard()
		hook = func(g *grid.Grid, st *state.State, step int) { f.Apply(g, st, cfg.Dt2) }
	}

	init := dycore.InitFunc(heldsuarez.InitialState)
	if *loadFile != "" {
		var snap *checkpoint.Global
		fh, err := os.Open(*loadFile)
		if err == nil {
			snap, err = checkpoint.Read(fh)
			fh.Close()
		}
		if err == nil && (snap.Nx != *nx || snap.Ny != *ny || snap.Nz != *nz) {
			err = fmt.Errorf("%s holds a %dx%dx%d mesh, but -nx/-ny/-nz ask for %dx%dx%d",
				*loadFile, snap.Nx, snap.Ny, snap.Nz, *nx, *ny, *nz)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
		init = snap.InitFunc()
		fmt.Printf("restarting from %s\n", *loadFile)
	}

	fmt.Printf("%s on %s, process grid %dx%d (%d ranks), M=%d, %d steps\n",
		set.Alg, g, set.PA, set.PB, set.Procs(), set.Cfg.M, *steps)

	var inj *fault.Injector
	if *chaosPath != "" {
		plan, err := fault.Load(*chaosPath)
		if err == nil {
			err = plan.Validate(set.Procs())
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "chaos:", err)
			os.Exit(1)
		}
		inj = fault.New(plan)
	}

	// Every mode is one supervised run: balance.Run restarts crashed segments
	// from the latest snapshot and migrates when -rebalance supplies a
	// controller; -save-every is its snapshot cadence and sink.
	spec := balance.RunSpec{
		Grid: g, Model: comm.TianheLike(), Init: init, Steps: *steps, Hook: hook,
		Setup: set, Faults: inj, MaxRestarts: *maxRestarts,
		SnapshotEvery: *saveEvery, Traced: *timeline,
	}
	if *saveEvery > 0 {
		spec.Snapshot = func(step int, snap *checkpoint.Global) {
			if err := checkpoint.WriteAtomic(*saveFile, snap); err != nil {
				fmt.Fprintln(os.Stderr, "save-every:", err)
				os.Exit(1)
			}
			fmt.Printf("checkpoint written to %s at step %d\n", *saveFile, step)
		}
	}
	if *rebalance {
		cand, err := balance.CandidateOf(set)
		if err == nil {
			spec.Controller, err = balance.NewController(balance.Policy{}, g, cfg, prof, *steps, cand)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "rebalance:", err)
			os.Exit(1)
		}
	}
	out, err := balance.Run(spec)
	for i, r := range out.Restarts {
		fmt.Printf("chaos: rank %d died after step %d; restarted from step %d (restart %d/%d)\n",
			r.Failure.Rank, r.Failure.Step, r.From, i+1, *maxRestarts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "run:", err)
		os.Exit(1)
	}
	if *rebalance && len(out.Migrations) == 0 {
		fmt.Println("rebalance: no migration needed")
	}
	for _, mg := range out.Migrations {
		fmt.Printf("rebalance: step %d migrated %s -> %s (predicted gain %.4g s, cost %.4g s)\n",
			mg.Step, mg.From, mg.To, mg.PredictedGain, mg.Cost)
	}

	if *saveFile != "" {
		if err := checkpoint.WriteAtomic(*saveFile, checkpoint.Gather(g, out.Finals)); err != nil {
			fmt.Fprintln(os.Stderr, "save:", err)
			os.Exit(1)
		}
		fmt.Printf("checkpoint written to %s\n", *saveFile)
	}
	report(g, out)
}

// report prints the counter, communication, timeline and diagnostic
// summaries of a finished run.
func report(g *grid.Grid, res balance.Outcome) {
	fmt.Printf("\n-- algorithm counters (rank 0) --\n")
	fmt.Printf("halo exchange rounds: %d\n", res.Count.HaloExchanges)
	fmt.Printf("C-evaluations (z-collectives): %d\n", res.Count.CEvaluations)
	fmt.Printf("filter applications: %d\n", res.Count.FilterCalls)

	fmt.Printf("\n-- communication (all ranks) --\n")
	fmt.Printf("messages sent: %d, bytes sent: %.3g MB\n",
		res.Agg.MsgsSent, float64(res.Agg.BytesSent)/1e6)
	fmt.Printf("collective ops entered: %d\n", res.Agg.Collectives)
	for _, cat := range comm.Categories() {
		fmt.Printf("  %-14s time %.4g s  msgs %d\n", cat, res.Agg.CommTime(cat), res.Agg.MsgsByCat[cat])
	}
	fmt.Printf("simulated total runtime: %.4g s (compute %.4g s)\n", res.Agg.SimTime, res.Agg.CompTimeMax)

	if rec := res.Trace; rec != nil {
		fmt.Printf("\n-- simulated timeline --\n")
		fmt.Print(trace.Render(rec, 110).Format())
		u := trace.Utilization(rec)
		fmt.Printf("utilization: compute %.0f%%, communication %.0f%%, idle %.0f%%\n",
			100*u["compute"], 100*u["comm"], 100*u["idle"])
	}

	fmt.Printf("\n-- physical diagnostics --\n")
	fmt.Printf("all finite: %v\n", diag.AllFinite(res.Finals))
	fmt.Printf("mean surface pressure: %.2f hPa\n", diag.MeanSurfacePressure(g, res.Finals)/100)
	fmt.Printf("global dry mass: %.6g kg\n", diag.GlobalDryMass(g, res.Finals))
	fmt.Printf("max wind: %.2f m/s\n", diag.MaxWind(g, res.Finals))
	fmt.Printf("kinetic energy: %.6g, available energy: %.6g\n",
		diag.KineticEnergy(g, res.Finals), diag.AvailableEnergy(g, res.Finals))
}
