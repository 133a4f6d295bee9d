// Package server is the simulation job service: an HTTP/JSON control plane
// that queues dynamical-core runs and harness sweeps, executes them on a
// worker pool over the goroutine-rank comm runtime, checkpoints them
// periodically through internal/checkpoint, and exposes progress, comm
// statistics, physical diagnostics and Prometheus-style metrics. It turns
// the paper's evaluation — a matrix of (algorithm, process count) cells —
// into schedulable, cancellable, resumable jobs.
//
//cadyvet:persistence job specs, progress metadata and the checkpoint files of jobs whose checkpoint home is Config.Dir are the restart source of truth; durable writes route through checkpoint's blessed commit helper
package server

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"cadycore/internal/balance"
	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/diag"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// JobSpec is the submitted description of one job. The zero value of every
// field means "default"; Normalize fills defaults and validates.
type JobSpec struct {
	// Kind selects the workload: "run" (default) is one dynamical-core
	// configuration; "figures" reproduces the paper's figure sweep
	// (internal/harness) over Ps; "ensemble" runs Members perturbed copies
	// of the run the other fields describe, each a run job of its own.
	Kind string `json:"kind,omitempty"`
	// Members is an ensemble's member count (2–64); ensembles only.
	Members int `json:"members,omitempty"`
	// Alg is the integrator for run jobs: ca, yz, xy or 3d. Must be empty
	// for auto-layout jobs (the planner chooses it).
	Alg string `json:"alg,omitempty"`

	// Layout selects how the process grid is chosen: "" or "explicit" uses
	// Alg/PA/PB/PC as given; "auto" defers to the autotuner (internal/tune)
	// at execution time — the planner picks the scheme, factorization and
	// stage depth for Procs ranks, and the chosen plan is
	// surfaced in the job status.
	Layout string `json:"layout,omitempty"`
	// Procs is the rank budget of an auto-layout job (default 4).
	Procs int `json:"procs,omitempty"`

	Nx int `json:"nx,omitempty"`
	Ny int `json:"ny,omitempty"`
	Nz int `json:"nz,omitempty"`

	// PA and PB are the process-grid extents ((p_y, p_z) for ca/yz, (p_x,
	// p_y) for xy); PC is the third extent of 3d runs.
	PA int `json:"pa,omitempty"`
	PB int `json:"pb,omitempty"`
	PC int `json:"pc,omitempty"`

	M int `json:"m,omitempty"`
	// StageM is the staged-exchange halo depth for ca runs: 0 (default)
	// sizes the deep halo for all M iterations; 0 < stage_m < M sizes it
	// for stage_m iterations and refreshes it with overlapped exchanges.
	StageM int     `json:"stage_m,omitempty"`
	Steps  int     `json:"steps,omitempty"`
	Dt1    float64 `json:"dt1,omitempty"`
	Dt2    float64 `json:"dt2,omitempty"`

	// HeldSuarez applies the Held–Suarez forcing between steps (default
	// true, like cmd/dycore).
	HeldSuarez *bool `json:"held_suarez,omitempty"`

	// CheckpointEvery > 0 snapshots the run every that many steps (the
	// durability cadence); a stopped run is checkpointed at its stop
	// boundary regardless.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// DeadlineSec > 0 bounds the wall-clock run time of one execution
	// segment; an exceeded deadline interrupts the job at a step boundary
	// (resumable).
	DeadlineSec float64 `json:"deadline_sec,omitempty"`

	// MaxRestarts, when set, overrides the server's restart policy for this
	// job: the number of automatic restarts granted after an injected rank
	// death (0 disables automatic restart for the job).
	MaxRestarts *int `json:"max_restarts,omitempty"`

	// Ps is the process-count axis of figures jobs.
	Ps []int `json:"ps,omitempty"`

	// Tenant attributes the job to a tenant for the quota, the priority
	// class and the per-tenant metrics of Config. Free-form but restricted
	// to [a-zA-Z0-9._-]; empty means the anonymous tenant "default". Set
	// from the X-Tenant header when the spec leaves it empty; the fleet
	// coordinator passes it through to backends.
	Tenant string `json:"tenant,omitempty"`

	// SharedKey keys this job's checkpoints in the shared artifact store
	// (Config.Shared): on a server that has one, the store is the job's
	// checkpoint home, and every execution resumes from the newest snapshot
	// there. The fleet coordinator sets it to the fleet job ID so a job
	// migrated off a dead backend resumes on another. Run jobs only.
	SharedKey string `json:"shared_key,omitempty"`

	// Rebalance, when present ({}), turns on the live load-rebalancing
	// runtime for this job (internal/balance): per-rank compute telemetry is
	// watched at every step boundary, and a sustained imbalance triggers an
	// in-flight migration to a re-planned layout. Requires layout "auto" —
	// rebalancing reasons in the planner's candidate space, and an
	// explicitly pinned layout is a promise the runtime must not silently
	// break. The object has no fields: the policy is balance's.
	Rebalance *struct{} `json:"rebalance,omitempty"`

	// PerturbAmp > 0 applies a deterministic multiplicative perturbation of
	// relative amplitude PerturbAmp to the initial U, V and Φ fields, seeded
	// by PerturbSeed — the ensemble-member mechanism. The noise at a grid
	// point depends only on (seed, global index, component), so any process
	// layout produces the same global initial state; Psa is untouched so the
	// surface-pressure and dry-mass diagnostics stay those of the base state.
	// Of an ensemble they are the amplitude (default 1e-4, in (0, 0.1]) and
	// the ensemble seed (default 1) its members' seeds derive from.
	PerturbAmp  float64 `json:"perturb_amp,omitempty"`
	PerturbSeed int64   `json:"perturb_seed,omitempty"`
}

// service guardrails: a submitted spec may not exceed these.
const (
	maxRanks     = 1024
	maxMeshCells = 1 << 24
	maxSteps     = 1_000_000
)

// Normalize fills defaults in place and validates the spec.
func (sp *JobSpec) Normalize() error {
	switch sp.Kind {
	case "":
		sp.Kind = "run"
	case "run", "figures":
	case "ensemble":
		return sp.normalizeEnsemble()
	default:
		return fmt.Errorf("unknown kind %q (want run, figures or ensemble)", sp.Kind)
	}
	if sp.Members != 0 {
		return fmt.Errorf("members is only meaningful for kind \"ensemble\"")
	}
	if sp.Nx == 0 {
		sp.Nx = 48
	}
	if sp.Ny == 0 {
		sp.Ny = 24
	}
	if sp.Nz == 0 {
		sp.Nz = 8
	}
	if sp.M == 0 {
		sp.M = 3
	}
	if sp.Steps == 0 {
		sp.Steps = 4
	}
	if sp.Dt1 == 0 {
		sp.Dt1 = 30
	}
	if sp.Dt2 == 0 {
		sp.Dt2 = 180
	}
	if err := grid.Check(sp.Nx, sp.Ny, sp.Nz); err != nil {
		return err
	}
	if sp.Nx*sp.Ny*sp.Nz > maxMeshCells {
		return fmt.Errorf("mesh %dx%dx%d exceeds the service cap of %d cells", sp.Nx, sp.Ny, sp.Nz, maxMeshCells)
	}
	if sp.M < 1 || sp.M > 10 {
		return fmt.Errorf("m = %d outside [1, 10]", sp.M)
	}
	if sp.StageM < 0 || sp.StageM > sp.M {
		return fmt.Errorf("stage_m = %d outside [0, m=%d]", sp.StageM, sp.M)
	}
	if sp.StageM != 0 && sp.Kind == "run" && sp.Alg != "" && sp.Alg != "ca" {
		return fmt.Errorf("stage_m is only meaningful for alg \"ca\" (got %q)", sp.Alg)
	}
	if err := sp.config().Validate(); err != nil {
		return err
	}
	if sp.Steps < 1 || sp.Steps > maxSteps {
		return fmt.Errorf("steps = %d outside [1, %d]", sp.Steps, maxSteps)
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("checkpoint_every = %d must be >= 0", sp.CheckpointEvery)
	}
	if sp.DeadlineSec < 0 || sp.DeadlineSec*float64(time.Second) >= 1<<63 { // runJob's time.Duration
		return fmt.Errorf("deadline_sec = %g outside [0, %g)", sp.DeadlineSec, time.Duration(1<<63-1).Seconds())
	}
	if sp.MaxRestarts != nil && *sp.MaxRestarts < 0 {
		return fmt.Errorf("max_restarts = %d must be >= 0", *sp.MaxRestarts)
	}
	if err := validLabel("tenant", sp.Tenant, 64); err != nil {
		return err
	}
	if err := validLabel("shared_key", sp.SharedKey, 128); err != nil {
		return err
	}
	if sp.PerturbAmp < 0 || sp.PerturbAmp > 0.1 {
		return fmt.Errorf("perturb_amp = %g outside [0, 0.1]", sp.PerturbAmp)
	}
	if sp.Kind != "run" && (sp.SharedKey != "" || sp.PerturbAmp != 0 || sp.PerturbSeed != 0) {
		return fmt.Errorf("shared_key/perturb_* are only meaningful for run jobs")
	}
	if sp.Kind == "figures" {
		if sp.Rebalance != nil {
			return fmt.Errorf("rebalance is only meaningful for run jobs")
		}
		if sp.MaxRestarts != nil {
			return fmt.Errorf("max_restarts is only meaningful for run jobs (sweeps are not checkpointable)")
		}
		if sp.Layout != "" && sp.Layout != "explicit" {
			return fmt.Errorf("layout %q is only meaningful for run jobs", sp.Layout)
		}
		if sp.Procs != 0 {
			return fmt.Errorf("procs is only meaningful for run jobs with layout \"auto\"")
		}
		if len(sp.Ps) == 0 {
			sp.Ps = []int{4, 8}
		}
		for _, p := range sp.Ps {
			if p < 1 || p > maxRanks {
				return fmt.Errorf("ps entry %d outside [1, %d]", p, maxRanks)
			}
		}
		return nil
	}
	// Run jobs: layout selection.
	switch sp.Layout {
	case "", "explicit":
		sp.Layout = "explicit"
	case "auto":
		// The process grid is planned at execution time; the submit-time
		// gate checks only what planning cannot change. The planned layout
		// is checked against the same dycore.MinPerRank rule before the run
		// starts.
		if sp.Alg != "" {
			return fmt.Errorf("layout \"auto\" plans the algorithm; leave alg empty (got %q)", sp.Alg)
		}
		if sp.PA != 0 || sp.PB != 0 || sp.PC != 0 {
			return fmt.Errorf("layout \"auto\" plans the process grid; leave pa/pb/pc empty")
		}
		if sp.StageM != 0 {
			return fmt.Errorf("layout \"auto\" plans the stage depth; leave stage_m empty")
		}
		if sp.Procs == 0 {
			sp.Procs = 4
		}
		if sp.Procs < 1 || sp.Procs > maxRanks {
			return fmt.Errorf("procs = %d outside [1, %d]", sp.Procs, maxRanks)
		}
		return nil
	default:
		return fmt.Errorf("unknown layout %q (want explicit or auto)", sp.Layout)
	}
	if sp.Procs != 0 {
		return fmt.Errorf("procs is only meaningful with layout \"auto\"")
	}
	if sp.Rebalance != nil {
		return fmt.Errorf("rebalance requires layout \"auto\" (an explicit layout is pinned)")
	}
	// Explicit layout: algorithm and process grid.
	if sp.Alg == "" {
		sp.Alg = "ca"
	}
	alg, err := dycore.ParseAlgorithm(sp.Alg)
	if err != nil {
		return err
	}
	if sp.PA == 0 {
		sp.PA = 2
	}
	if sp.PB == 0 {
		sp.PB = 2
	}
	switch {
	case alg != dycore.AlgBaseline3D && sp.PC != 0:
		return fmt.Errorf("pc is only meaningful for -alg 3d")
	case alg == dycore.AlgBaseline3D && sp.PC == 0:
		sp.PC = 1
	}
	set := sp.setup()
	if err := set.Check(grid.New(sp.Nx, sp.Ny, sp.Nz), dycore.MinPerRank); err != nil {
		return err
	}
	if ranks := set.Procs(); ranks > maxRanks {
		return fmt.Errorf("%d ranks exceeds the service cap of %d", ranks, maxRanks)
	}
	return nil
}

// validLabel validates the fleet identity fields: filename- and
// metrics-label-safe, bounded length, empty allowed.
func validLabel(field, v string, maxLen int) error {
	if len(v) > maxLen {
		return fmt.Errorf("%s %q exceeds %d chars", field, v, maxLen)
	}
	for _, c := range v {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return fmt.Errorf("%s %q has invalid char %q (want [a-zA-Z0-9._-])", field, v, c)
		}
	}
	return nil
}

// config translates the numeric parameters of a spec into a dycore Config.
func (sp JobSpec) config() dycore.Config {
	cfg := dycore.DefaultConfig()
	cfg.M = sp.M
	cfg.StageM = sp.StageM
	cfg.Dt1, cfg.Dt2 = sp.Dt1, sp.Dt2
	return cfg
}

// autoLayout reports whether the job's process grid is planner-chosen.
func (sp JobSpec) autoLayout() bool { return sp.Layout == "auto" }

// setup translates a normalized explicit run spec into a dycore Setup.
func (sp JobSpec) setup() dycore.Setup {
	a, _ := dycore.ParseAlgorithm(sp.Alg)
	return dycore.Setup{Alg: a, PA: sp.PA, PB: sp.PB, PC: sp.PC, Cfg: sp.config()}
}

func (sp JobSpec) heldSuarez() bool { return sp.HeldSuarez == nil || *sp.HeldSuarez }

// JState is a job's lifecycle state.
type JState string

const (
	// JQueued: admitted and waiting for a worker.
	JQueued JState = "queued"
	// JRunning: executing on a worker.
	JRunning JState = "running"
	// JCompleted: ran all requested steps.
	JCompleted JState = "completed"
	// JCancelled: stopped at a step boundary by user request (resumable).
	JCancelled JState = "cancelled"
	// JInterrupted: stopped at a step boundary by a server drain
	// (resumable).
	JInterrupted JState = "interrupted"
	// JFailed: panicked, exceeded its deadline or was otherwise aborted;
	// resumable when a checkpoint exists.
	JFailed JState = "failed"
	// JRetrying: a rank died (fault injection) and the server is waiting out
	// the restart backoff before re-enqueueing the job from its latest
	// checkpoint. Not terminal: the job still belongs to the restart policy
	// (cancel stops the pending restart).
	JRetrying JState = "retrying"
)

// jobStates lists every JState, in lifecycle order.
var jobStates = []JState{JQueued, JRunning, JRetrying, JCompleted, JCancelled, JInterrupted, JFailed}

// ParseJState returns the job state named v. Both job APIs filter their
// GET /jobs?status= with it, so an unknown name is a 400 on either.
func ParseJState(v string) (JState, error) {
	for _, st := range jobStates {
		if string(st) == v {
			return st, nil
		}
	}
	return "", fmt.Errorf("unknown status %q", v)
}

// terminal reports whether no worker currently owns or will own the job.
func (st JState) terminal() bool {
	switch st {
	case JCompleted, JCancelled, JInterrupted, JFailed:
		return true
	}
	return false
}

// Terminal is the exported form of terminal for API clients (the fleet
// coordinator classifies backend job states with it).
func (st JState) Terminal() bool { return st.terminal() }

// Job is one tracked job. All mutable fields are guarded by mu; the
// identity fields (ID, Spec, tq, store, key, members) are set before a
// worker sees it.
type Job struct {
	ID   string
	Spec JobSpec
	tq   *tenantQ // the tenant's admission state
	// members are an ensemble's run jobs, in member order (nil otherwise).
	members []*Job
	// store (under key) is the job's disk checkpoint home; nil is memory.
	store checkpoint.Store
	key   string

	mu  sync.Mutex
	rec record //cadyvet:guardedby mu
	// submitted is committed with spec.json, not with the record.
	submitted time.Time //cadyvet:guardedby mu

	// ckptStep is the boundary of the checkpoint in the job's home (0 =
	// none), and snap is that checkpoint when the home is memory and the job
	// can still resume.
	ckptStep int                //cadyvet:guardedby mu
	snap     *checkpoint.Global //cadyvet:guardedby mu

	// cancel is set while running.
	cancel          context.CancelFunc //cadyvet:guardedby mu
	cancelRequested bool               //cadyvet:guardedby mu
	// retryTimer is the pending backoff timer while JRetrying.
	retryTimer *time.Timer //cadyvet:guardedby mu

	// persistErr surfaces the latest persistence failure in the job status
	// (durable writes are no longer fire-and-forget); cleared by the next
	// successful write.
	persistErr string //cadyvet:guardedby mu

	// chaos is the job's fault injector, built lazily from the server's
	// chaos plan so crash budgets span automatic restarts.
	chaos *fault.Injector //cadyvet:guardedby mu
}

// record is a job's changing status, declared once: meta.json commits it
// whole, recover reads it back whole and JobStatus embeds it, so a field
// added here survives a restart and is served by GET /jobs/{id}. A Status
// snapshot shares its maps, slices and pointees, so they are replaced or
// appended to, never written in place.
type record struct {
	State JState `json:"state"`
	// StepsDone counts cumulative completed steps over all segments.
	StepsDone int    `json:"steps_done"`
	Resumable bool   `json:"resumable"`
	Error     string `json:"error,omitempty"`
	Attempts  int    `json:"attempts"`
	// Restarts counts automatic restarts consumed (fault recovery).
	Restarts int `json:"restarts,omitempty"`
	// Plan is the autotuner's decision for auto-layout jobs (set when the
	// first execution segment plans, reused by resumes). A live rebalance
	// replaces it with the migrated layout so resumes restart there.
	Plan *tune.Plan `json:"plan,omitempty"`
	// Migrations is the live-rebalancing migration log.
	Migrations []balance.Migration `json:"migrations,omitempty"`
	StartedAt  *time.Time          `json:"started_at,omitempty"`
	FinishedAt *time.Time          `json:"finished_at,omitempty"`
	// Comm and Counters are the whole job's communication statistics and
	// operation counts over all segments, set once a segment ran ranks.
	Comm        *comm.Aggregate    `json:"comm,omitempty"`
	Counters    *dycore.Counters   `json:"counters,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Figures     []string           `json:"figures,omitempty"`
}

// addRun folds one execution segment's communication statistics and
// operation counts into the whole job's.
func (r *record) addRun(agg comm.Aggregate, count dycore.Counters) {
	if r.Comm != nil {
		agg = comm.MergeAggregate(*r.Comm, agg)
		count.Add(*r.Counters)
	}
	if agg.Ranks > 0 {
		r.Comm, r.Counters = &agg, &count
	}
}

// ensureChaos returns the job's fault injector, building it from plan on
// first use. One injector per job: a crash entry consumed before a restart
// stays consumed, so the restarted segment sails past the step it died at.
func (j *Job) ensureChaos(plan *fault.Plan) *fault.Injector {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.chaos == nil {
		j.chaos = fault.New(*plan)
	}
	return j.chaos
}

// JobStatus is the JSON view of a job returned by GET /jobs/{id}: its record
// plus what is derived from it or local to this process.
type JobStatus struct {
	ID   string `json:"id"`
	Kind string `json:"kind"`
	// Members are an ensemble's member job IDs.
	Members []string `json:"members,omitempty"`
	record
	StepsWant int     `json:"steps_total"`
	Progress  float64 `json:"progress"`
	CkptStep  int     `json:"checkpoint_step,omitempty"`
	// PersistError is the latest failed durable write, if any (the job keeps
	// running, and resumes from its last durable checkpoint).
	PersistError string `json:"persist_error,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	// WallSec is finished_at − started_at, present once the job has both.
	WallSec float64 `json:"wall_sec,omitempty"`

	// Comm is the view of the record's aggregate, which it shadows.
	Comm *CommStats `json:"comm,omitempty"`

	Spec JobSpec `json:"spec"`
}

// CommStats is the JSON view of the aggregated communication statistics.
type CommStats struct {
	MsgsSent       int64   `json:"msgs_sent"`
	BytesSent      int64   `json:"bytes_sent"`
	Collectives    int64   `json:"collectives"`
	SimTimeS       float64 `json:"sim_time_s"`
	CompTimeS      float64 `json:"comp_time_s"`
	StencilTimeS   float64 `json:"stencil_time_s"`
	CollectiveTime float64 `json:"collective_time_s"`
}

// Status snapshots the job under its lock; an ensemble's is derived from
// its members'.
func (j *Job) Status() JobStatus {
	if j.members != nil {
		return j.ensembleStatus()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	r := j.rec
	st := JobStatus{
		ID:           j.ID,
		Kind:         j.Spec.Kind,
		record:       r,
		StepsWant:    j.Spec.Steps,
		CkptStep:     j.ckptStep,
		PersistError: j.persistErr,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339Nano),
		Spec:         j.Spec,
	}
	if j.Spec.Steps > 0 {
		st.Progress = float64(r.StepsDone) / float64(j.Spec.Steps)
	}
	if r.StartedAt != nil && r.FinishedAt != nil {
		st.WallSec = r.FinishedAt.Sub(*r.StartedAt).Seconds()
	}
	if a := r.Comm; a != nil {
		st.Comm = &CommStats{
			MsgsSent:       a.MsgsSent,
			BytesSent:      a.BytesSent,
			Collectives:    a.Collectives,
			SimTimeS:       a.SimTime,
			CompTimeS:      a.CompTimeMax,
			StencilTimeS:   a.StencilTime(),
			CollectiveTime: a.CollectiveTime(),
		}
	}
	return st
}

// setPlan records the autotuner's decision.
func (j *Job) setPlan(p tune.Plan) {
	j.mu.Lock()
	j.rec.Plan = &p
	j.mu.Unlock()
}

// getPlan returns the recorded plan, if any.
func (j *Job) getPlan() *tune.Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.rec.Plan
}

// diagnostics computes the physical health summary of a finished run. JSON
// has no NaN or ±Inf, so a value a blown-up run leaves non-finite is dropped
// (all_finite then reads 0) rather than making the job's status unencodable.
func diagnostics(g *grid.Grid, finals []*state.State) map[string]float64 {
	finite := 0.0
	if diag.AllFinite(finals) {
		finite = 1
	}
	d := map[string]float64{
		"all_finite":                finite,
		"mean_surface_pressure_hpa": diag.MeanSurfacePressure(g, finals) / 100,
		"global_dry_mass_kg":        diag.GlobalDryMass(g, finals),
		"max_wind_ms":               diag.MaxWind(g, finals),
		"kinetic_energy":            diag.KineticEnergy(g, finals),
		"available_energy":          diag.AvailableEnergy(g, finals),
	}
	for k, v := range d {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			delete(d, k)
		}
	}
	return d
}
