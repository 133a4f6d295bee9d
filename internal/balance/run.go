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
	// Migrations logs every migration the run executed, in order.
	Migrations []Migration
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
	// Setup is the layout when Controller is nil (no rebalancing); a
	// Controller watches the run and migrates it between its own layouts.
	Setup      dycore.Setup
	Controller *Controller
	// A segment crashed by Faults restarts from the latest snapshot (the
	// initial state when there is none), at most MaxRestarts times.
	Faults      *fault.Injector
	MaxRestarts int
	// Snapshot receives every snapshot the run takes — each SnapshotEvery
	// steps, at a migration quiesce and at a ShouldStop stop — with its step.
	SnapshotEvery int
	Snapshot      func(step int, gl *checkpoint.Global)
	Traced        bool // record per-rank events into Outcome.Trace
	// Progress is called at every step boundary; ShouldStop is sampled there
	// and, once true, ends the run at that boundary behind a snapshot.
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
func Run(spec RunSpec) (Outcome, error) {
	var out Outcome
	g, ctl := spec.Grid, spec.Controller
	base, init := spec.Start, spec.Init // where the next segment starts
	var lastSnap *checkpoint.Global
	var lastStep int
	for {
		set := spec.Setup
		opts := dycore.RunOpts{Hook: spec.Hook, Traced: spec.Traced, ShouldStop: spec.ShouldStop}
		if spec.Progress != nil {
			opts.Progress = func(done int) { spec.Progress(base + done) }
		}
		if ctl != nil {
			set = ctl.Setup()
			opts.Rebalance = ctl.Hook(base)
		}
		if ctl != nil || spec.ShouldStop != nil || spec.SnapshotEvery > 0 {
			opts.SnapshotEvery = spec.SnapshotEvery
			opts.Snapshot = func(done int, sts []*state.State) {
				lastSnap, lastStep = checkpoint.Gather(g, sts), base+done
				if spec.Snapshot != nil {
					spec.Snapshot(lastStep, lastSnap)
				}
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
		// Early stop under a controller: ShouldStop's, unless the controller's
		// hook staged a re-plan — then the stop snapshot must cover exactly
		// this boundary.
		plan, mig := ctl.TakePending()
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
