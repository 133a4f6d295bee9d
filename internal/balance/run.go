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

// Outcome is the result of a rebalanced run: the merged statistics of every
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
	// StepsDone is the total completed steps over all segments.
	StepsDone int
	// Migrations is the controller's executed-migration log.
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

// RunSpec is one supervised run. Zero values of the optional fields (Hook
// onwards) mean "none".
type RunSpec struct {
	Grid  *grid.Grid
	Model comm.NetModel
	Init  dycore.InitFunc
	Steps int
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
	// steps and at a migration quiesce — with its absolute step.
	SnapshotEvery int
	Snapshot      func(step int, gl *checkpoint.Global)
	Traced        bool // record per-rank events into Outcome.Trace
}

// Run drives the run segment by segment: a segment ends when the run
// completes, when an injected crash aborts it (restart from the latest
// snapshot) or when the controller quiesces it for a migration (continue
// from the stop snapshot in the re-planned layout). A snapshot is the whole
// carried state, so the loop carries only (base step, latest snapshot).
func Run(spec RunSpec) (Outcome, error) {
	var out Outcome
	g, ctl := spec.Grid, spec.Controller
	base, init := 0, spec.Init // where the next segment starts
	var lastSnap *checkpoint.Global
	var lastStep int
	for {
		set := spec.Setup
		opts := dycore.RunOpts{Hook: spec.Hook, Traced: spec.Traced}
		if ctl != nil {
			set = ctl.Setup()
			opts.Rebalance = ctl.Hook(base)
		}
		if ctl != nil || spec.SnapshotEvery > 0 {
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

		out.Agg = comm.MergeAggregate(out.Agg, res.Agg)
		out.Count.Add(res.Count)
		out.Trace = rec

		if res.Abort != nil {
			if len(out.Restarts) >= spec.MaxRestarts {
				return out, fmt.Errorf("balance: restart budget (%d) exhausted after %v", spec.MaxRestarts, res.Abort)
			}
			fail := *res.Abort
			fail.Step += base
			if lastSnap != nil {
				base, init = lastStep, lastSnap.InitFunc()
			}
			out.Restarts = append(out.Restarts, Restart{Failure: fail, From: base})
			continue
		}

		done := base + res.StepsDone
		if done >= spec.Steps {
			out.Finals, out.StepsDone = res.Finals, done
			if ctl != nil {
				out.Migrations = ctl.Migrations()
			}
			return out, nil
		}

		// Early stop: the only stopper installed is the rebalance hook, so a
		// staged re-plan must be waiting and the stop snapshot must cover
		// exactly this boundary.
		plan, _ := ctl.TakePending()
		if plan == nil {
			return out, fmt.Errorf("balance: run stopped at step %d with no pending re-plan", done)
		}
		if lastSnap == nil || lastStep != done {
			return out, fmt.Errorf("balance: no quiesce snapshot at migration boundary %d", done)
		}
		out.Agg.SimTime += tune.MigrationCost(g, set.Procs(), ctl.Profile())
		base, init = done, lastSnap.InitFunc()
	}
}
