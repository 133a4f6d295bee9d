package balance

import (
	"fmt"

	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// Outcome is the result of a supervised run: the merged statistics of every
// segment, the final states under the final layout, and the migration log.
type Outcome struct {
	// Agg is the merged communication aggregate over all segments (costs
	// summed, per-rank series summed when the rank count was stable); its
	// SimTime also includes the modeled cost of every migration.
	Agg comm.Aggregate
	// Count sums the operation counters over all segments.
	Count dycore.Counters
	// Finals are the per-rank final states under the final layout.
	Finals []*state.State
	// StepsDone is the step the run reached: RunSpec.Steps unless ShouldStop
	// ended it early or it failed.
	StepsDone int
	// Migrations logs every migration the run executed, in order; Rebalance
	// holds the controller's decision counters (RunSpec.Rebalance).
	Migrations []Migration
	Rebalance  Stats
	// Restarts logs every crash the run recovered from, in order.
	Restarts []Restart
	// Trace is the last segment's event recorder (RunSpec.Traced).
	Trace *comm.Recorder
}

// Restart is one recovered crash: the injected failure (its Step counted
// from the start of the run) and the step boundary the run resumed from.
type Restart struct {
	Failure dycore.RankFailure
	From    int
}

// RunSpec is one supervised run. Zero values of the optional fields (Start
// onwards) mean "none".
type RunSpec struct {
	Grid  *grid.Grid
	Model comm.NetModel
	Init  dycore.InitFunc
	Steps int
	// Start is the absolute step Init stands at (a resumed run); the run ends
	// at Steps, and every step this package reports counts from step 0.
	Start int
	Hook  dycore.StepHook
	// Setup is the layout the run starts in. Rebalance has a controller
	// watch the per-rank compute at every step boundary and migrate the run
	// between the planner's layouts of Setup's algorithm (ca or yz), priced
	// by tune.ProfileFromModel(Model).
	Setup     dycore.Setup
	Rebalance bool
	// A segment crashed by Faults restarts from the latest snapshot (the
	// initial state when there is none), at most MaxRestarts times.
	Faults      *fault.Injector
	MaxRestarts int
	// Snapshot receives every snapshot the run takes — each SnapshotEvery
	// steps short of Steps, at a migration quiesce and at a ShouldStop stop —
	// with its step and the run's statistics up to it (dycore.Tally). The
	// boundary where the run completes takes none unless it stops or
	// migrates there: the final state is Outcome.Finals.
	SnapshotEvery int
	Snapshot      func(step int, gl *checkpoint.Global, agg comm.Aggregate, count dycore.Counters)
	Traced        bool // record per-rank events into Outcome.Trace
	// Progress is called at every step boundary; ShouldStop is sampled there,
	// after Progress, and once true ends the run at that boundary behind a
	// snapshot.
	Progress   func(step int)
	ShouldStop func() bool
	// Observe sees every segment's result as the segment ends. Commit is
	// called at each migration, after the controller switched to plan and
	// before the next segment starts in it.
	Observe func(res dycore.RunResult)
	Commit  func(plan tune.Plan, mig Migration)
}

// Run drives the run segment by segment: a segment ends when the run
// completes, when ShouldStop ends it early (Outcome.StepsDone < Steps, nil
// error), when an injected crash aborts it (restart from the latest
// snapshot) or when the controller quiesces it for a migration (continue
// from the stop snapshot in the re-planned layout). A snapshot is the whole
// carried state, so the loop carries only (base step, latest snapshot). A
// crash past the restart budget is an error wrapping the *dycore.RankFailure.
func Run(spec RunSpec) (out Outcome, err error) {
	g := spec.Grid
	var ctl *controller
	if spec.Rebalance {
		if ctl, err = newController(g, tune.ProfileFromModel(spec.Model), spec.Steps, spec.Setup); err != nil {
			return out, err
		}
		defer func() { out.Rebalance = ctl.stats() }()
	}
	base, init := spec.Start, spec.Init // where the next segment starts
	var lastSnap *checkpoint.Global
	var lastStep int
	for {
		set := spec.Setup
		opts := dycore.RunOpts{Hook: spec.Hook, Traced: spec.Traced}
		var observe func(done int, comp []float64) bool
		if ctl != nil {
			set, observe = ctl.setup(), ctl.hook(base)
		}
		// The one step-boundary contract: Progress, then ShouldStop, then
		// the controller unless the run already stops; a snapshot at a stop
		// and at every SnapshotEvery-th boundary of the segment but the one
		// where the run completes (its caller saves the final state).
		if spec.Progress != nil || spec.ShouldStop != nil || ctl != nil || spec.SnapshotEvery > 0 {
			opts.Boundary = func(done int, sts []*state.State, comp []float64, tally dycore.Tally) bool {
				if spec.Progress != nil {
					spec.Progress(base + done)
				}
				stop := spec.ShouldStop != nil && spec.ShouldStop()
				if !stop && observe != nil {
					stop = observe(done, comp)
				}
				if stop || (spec.SnapshotEvery > 0 && done%spec.SnapshotEvery == 0 && base+done < spec.Steps) {
					lastSnap, lastStep = checkpoint.Gather(g, sts), base+done
					if spec.Snapshot != nil {
						agg, count := tally()
						count.Add(out.Count)
						spec.Snapshot(lastStep, lastSnap, comm.MergeAggregate(out.Agg, agg), count)
					}
				}
				return stop
			}
		}
		if spec.Faults != nil {
			opts.Faults = spec.Faults.CommFaults(set.Procs())
			opts.CrashAt = spec.Faults.CrashFunc(base)
		}
		res, rec := dycore.RunWithOpts(set, g, spec.Model, init, spec.Steps-base, opts)
		if spec.Observe != nil {
			spec.Observe(res)
		}

		out.Agg = comm.MergeAggregate(out.Agg, res.Agg)
		out.Count.Add(res.Count)
		out.Trace = rec
		out.StepsDone = base + res.StepsDone

		if res.Abort != nil {
			fail := *res.Abort
			fail.Step += base
			if len(out.Restarts) >= spec.MaxRestarts {
				return out, fmt.Errorf("balance: restart budget (%d) exhausted after %w", spec.MaxRestarts, &fail)
			}
			if lastSnap != nil {
				base, init = lastStep, lastSnap.InitFunc()
			}
			out.Restarts = append(out.Restarts, Restart{Failure: fail, From: base})
			continue
		}

		out.Finals = res.Finals
		if out.StepsDone >= spec.Steps || ctl == nil {
			return out, nil
		}
		// Early stop under a controller: ShouldStop's, unless the controller
		// staged a re-plan — then the stop snapshot must cover exactly this
		// boundary.
		plan, mig := ctl.takePending()
		if plan == nil {
			return out, nil
		}
		if lastSnap == nil || lastStep != out.StepsDone {
			return out, fmt.Errorf("balance: no quiesce snapshot at migration boundary %d", out.StepsDone)
		}
		out.Agg.SimTime += mig.Cost
		out.Migrations = append(out.Migrations, mig)
		if spec.Commit != nil {
			spec.Commit(*plan, mig)
		}
		base, init = lastStep, lastSnap.InitFunc()
	}
}
