// Package server is the simulation job service: an HTTP/JSON control plane
// that queues dynamical-core runs and harness sweeps, executes them on a
// worker pool over the goroutine-rank comm runtime, checkpoints them
// periodically through internal/checkpoint, and exposes progress, comm
// statistics, physical diagnostics and Prometheus-style metrics. It turns
// the paper's evaluation — a matrix of (algorithm, process count) cells —
// into schedulable, cancellable, resumable jobs.
//
//cadyvet:persistence job specs, progress metadata and checkpoints under Config.Dir are the restart source of truth; durable writes route through checkpoint's blessed helpers
package server

import (
	"context"
	"fmt"
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
	// (internal/harness) over Ps.
	Kind string `json:"kind,omitempty"`
	// Alg is the integrator for run jobs: ca, yz, xy or 3d. Must be empty
	// for auto-layout jobs (the planner chooses it).
	Alg string `json:"alg,omitempty"`

	// Layout selects how the process grid is chosen: "" or "explicit" uses
	// Alg/PA/PB/PC as given; "auto" defers to the autotuner (internal/tune)
	// at execution time — the planner picks the scheme, factorization,
	// worker count and stage depth for Procs ranks, and the chosen plan is
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

	// Tenant attributes the job to a tenant for fleet quota accounting and
	// per-tenant metrics. Free-form but restricted to [a-zA-Z0-9._-]; empty
	// means the anonymous tenant. Set from the X-Tenant header by the
	// coordinator, passed through to backends.
	Tenant string `json:"tenant,omitempty"`

	// SharedKey keys this job's checkpoints in the shared artifact store
	// (Config.Shared): every snapshot is dual-written there, and a fresh
	// execution with no local checkpoint resumes from the newest shared one.
	// The fleet coordinator sets it to the fleet job ID so a job migrated
	// off a dead backend resumes on another. Run jobs only.
	SharedKey string `json:"shared_key,omitempty"`

	// Rebalance, when non-nil, turns on the live load-rebalancing runtime for
	// this job (internal/balance): per-rank compute telemetry is watched at
	// every step boundary, and a sustained imbalance triggers an in-flight
	// migration to a re-planned layout. Requires layout "auto" — rebalancing
	// reasons in the planner's candidate space, and an explicitly pinned
	// layout is a promise the runtime must not silently break. The zero
	// policy {} uses the documented defaults.
	Rebalance *balance.Policy `json:"rebalance,omitempty"`

	// PerturbAmp > 0 applies a deterministic multiplicative perturbation of
	// relative amplitude PerturbAmp to the initial U, V and Φ fields, seeded
	// by PerturbSeed — the ensemble-member mechanism. The noise at a grid
	// point depends only on (seed, global index, component), so any process
	// layout produces the same global initial state; Psa is untouched so the
	// surface-pressure and dry-mass diagnostics stay those of the base state.
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
	default:
		return fmt.Errorf("unknown kind %q (want run or figures)", sp.Kind)
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
	if sp.Nx <= 0 || sp.Ny <= 0 || sp.Nz <= 0 {
		return fmt.Errorf("mesh extents must be positive, got %dx%dx%d", sp.Nx, sp.Ny, sp.Nz)
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
	if sp.DeadlineSec < 0 {
		return fmt.Errorf("deadline_sec = %g must be >= 0", sp.DeadlineSec)
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
	if sp.Rebalance != nil {
		if err := sp.Rebalance.Validate(); err != nil {
			return fmt.Errorf("rebalance: %w", err)
		}
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
		// gate checks only what planning cannot change. The planned spec is
		// re-validated through Normalize before the run starts.
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
	if sp.PA == 0 {
		sp.PA = 2
	}
	if sp.PB == 0 {
		sp.PB = 2
	}
	if sp.PA < 1 || sp.PB < 1 {
		return fmt.Errorf("process grid %dx%d must be positive", sp.PA, sp.PB)
	}
	ranks := sp.PA * sp.PB
	switch sp.Alg {
	case "ca", "yz":
		if sp.PC != 0 {
			return fmt.Errorf("pc is only meaningful for -alg 3d")
		}
		if sp.PA > sp.Ny/2 || sp.PB > sp.Nz/2 {
			return fmt.Errorf("process grid %dx%d infeasible for mesh %dx%dx%d (need p_y <= ny/2, p_z <= nz/2)",
				sp.PA, sp.PB, sp.Nx, sp.Ny, sp.Nz)
		}
	case "xy":
		if sp.PC != 0 {
			return fmt.Errorf("pc is only meaningful for -alg 3d")
		}
		if sp.PA > sp.Nx/2 || sp.PB > sp.Ny/2 {
			return fmt.Errorf("process grid %dx%d infeasible for mesh %dx%dx%d (need p_x <= nx/2, p_y <= ny/2)",
				sp.PA, sp.PB, sp.Nx, sp.Ny, sp.Nz)
		}
	case "3d":
		if sp.PC == 0 {
			sp.PC = 1
		}
		if sp.PC < 1 {
			return fmt.Errorf("pc = %d must be positive", sp.PC)
		}
		ranks *= sp.PC
		if sp.PA > sp.Nx/2 || sp.PB > sp.Ny/2 || sp.PC > sp.Nz/2 {
			return fmt.Errorf("process grid %dx%dx%d infeasible for mesh %dx%dx%d",
				sp.PA, sp.PB, sp.PC, sp.Nx, sp.Ny, sp.Nz)
		}
	default:
		return fmt.Errorf("unknown alg %q (want ca, yz, xy or 3d)", sp.Alg)
	}
	if ranks > maxRanks {
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
	cfg := sp.config()
	var a dycore.Algorithm
	switch sp.Alg {
	case "ca":
		a = dycore.AlgCommAvoid
	case "yz":
		a = dycore.AlgBaselineYZ
	case "xy":
		a = dycore.AlgBaselineXY
	case "3d":
		a = dycore.AlgBaseline3D
	}
	return dycore.Setup{Alg: a, PA: sp.PA, PB: sp.PB, PC: sp.PC, Cfg: cfg}
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
// identity fields (ID, Spec) are immutable after creation.
type Job struct {
	ID   string
	Spec JobSpec

	mu    sync.Mutex
	state JState //cadyvet:guardedby mu
	// stepsDone counts cumulative completed steps over all segments;
	// ckptStep is the boundary of the latest snapshot (0 = none).
	stepsDone int                //cadyvet:guardedby mu
	ckptStep  int                //cadyvet:guardedby mu
	snap      *checkpoint.Global //cadyvet:guardedby mu
	resumable bool               //cadyvet:guardedby mu
	errMsg    string             //cadyvet:guardedby mu

	// cancel is set while running.
	cancel          context.CancelFunc //cadyvet:guardedby mu
	cancelRequested bool               //cadyvet:guardedby mu

	submitted time.Time //cadyvet:guardedby mu
	started   time.Time //cadyvet:guardedby mu
	finished  time.Time //cadyvet:guardedby mu
	attempts  int       //cadyvet:guardedby mu
	// restarts counts automatic restarts consumed (fault recovery);
	// retryTimer is the pending backoff timer while JRetrying.
	restarts   int         //cadyvet:guardedby mu
	retryTimer *time.Timer //cadyvet:guardedby mu

	// persistErr surfaces the latest persistence failure in the job status
	// (durable writes are no longer fire-and-forget); cleared by the next
	// successful write.
	persistErr string //cadyvet:guardedby mu

	agg     comm.Aggregate     //cadyvet:guardedby mu
	count   dycore.Counters    //cadyvet:guardedby mu
	diags   map[string]float64 //cadyvet:guardedby mu
	figures []string           //cadyvet:guardedby mu

	// plan is the autotuner's decision for auto-layout jobs (set when the
	// first execution segment plans, reused by resumes). A live rebalance
	// replaces it with the migrated layout so resumes restart there.
	plan *tune.Plan //cadyvet:guardedby mu
	// migrations is the live-rebalancing migration log.
	migrations []balance.Migration //cadyvet:guardedby mu
	// chaos is the job's fault injector, built lazily from the server's
	// chaos plan so crash budgets span automatic restarts.
	chaos *fault.Injector //cadyvet:guardedby mu
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

// JobStatus is the JSON view of a job returned by GET /jobs/{id}.
type JobStatus struct {
	ID        string  `json:"id"`
	Kind      string  `json:"kind"`
	State     JState  `json:"state"`
	StepsDone int     `json:"steps_done"`
	StepsWant int     `json:"steps_total"`
	Progress  float64 `json:"progress"`
	Resumable bool    `json:"resumable"`
	CkptStep  int     `json:"checkpoint_step,omitempty"`
	Attempts  int     `json:"attempts"`
	Restarts  int     `json:"restarts,omitempty"`
	Error     string  `json:"error,omitempty"`
	// PersistError is the latest failed durable write, if any (the job keeps
	// running on its in-memory checkpoint, but a process crash would lose it).
	PersistError string `json:"persist_error,omitempty"`

	SubmittedAt string  `json:"submitted_at"`
	StartedAt   string  `json:"started_at,omitempty"`
	FinishedAt  string  `json:"finished_at,omitempty"`
	WallSec     float64 `json:"wall_sec,omitempty"`

	Comm        *CommStats         `json:"comm,omitempty"`
	Counters    *dycore.Counters   `json:"counters,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Figures     []string           `json:"figures,omitempty"`

	// Plan is the autotuner's chosen layout for auto-layout jobs (the
	// current layout after any live rebalancing).
	Plan *tune.Plan `json:"plan,omitempty"`
	// Migrations is the live-rebalancing migration log of the job.
	Migrations []balance.Migration `json:"migrations,omitempty"`

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

// Status snapshots the job under its lock.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:           j.ID,
		Kind:         j.Spec.Kind,
		State:        j.state,
		StepsDone:    j.stepsDone,
		StepsWant:    j.Spec.Steps,
		Resumable:    j.resumable,
		CkptStep:     j.ckptStep,
		Attempts:     j.attempts,
		Restarts:     j.restarts,
		Error:        j.errMsg,
		PersistError: j.persistErr,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339Nano),
		Spec:         j.Spec,
	}
	if j.Spec.Steps > 0 {
		st.Progress = float64(j.stepsDone) / float64(j.Spec.Steps)
	}
	if !j.started.IsZero() {
		st.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
		st.WallSec = j.finished.Sub(j.started).Seconds()
	}
	if j.agg.Ranks > 0 {
		st.Comm = &CommStats{
			MsgsSent:       j.agg.MsgsSent,
			BytesSent:      j.agg.BytesSent,
			Collectives:    j.agg.Collectives,
			SimTimeS:       j.agg.SimTime,
			CompTimeS:      j.agg.CompTimeMax,
			StencilTimeS:   j.agg.StencilTime(),
			CollectiveTime: j.agg.CollectiveTime(),
		}
		c := j.count
		st.Counters = &c
	}
	if len(j.diags) > 0 {
		st.Diagnostics = make(map[string]float64, len(j.diags))
		for k, v := range j.diags {
			st.Diagnostics[k] = v
		}
	}
	st.Figures = j.figures
	if j.plan != nil {
		p := *j.plan
		st.Plan = &p
	}
	if len(j.migrations) > 0 {
		st.Migrations = make([]balance.Migration, len(j.migrations))
		copy(st.Migrations, j.migrations)
	}
	return st
}

// setPlan records the autotuner's decision.
func (j *Job) setPlan(p tune.Plan) {
	j.mu.Lock()
	j.plan = &p
	j.mu.Unlock()
}

// getPlan returns the recorded plan, if any.
func (j *Job) getPlan() *tune.Plan {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.plan
}

// setSnapshot records the latest checkpoint (called from the quiesced
// Snapshot barrier callback).
func (j *Job) setSnapshot(step int, gl *checkpoint.Global) {
	j.mu.Lock()
	j.ckptStep = step
	j.snap = gl
	j.mu.Unlock()
}

// latestSnapshot returns the newest checkpoint and its boundary.
func (j *Job) latestSnapshot() (*checkpoint.Global, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snap, j.ckptStep
}

// diagnostics computes the physical health summary of a finished run.
func diagnostics(g *grid.Grid, finals []*state.State) map[string]float64 {
	finite := 0.0
	if diag.AllFinite(finals) {
		finite = 1
	}
	return map[string]float64{
		"all_finite":                finite,
		"mean_surface_pressure_hpa": diag.MeanSurfacePressure(g, finals) / 100,
		"global_dry_mass_kg":        diag.GlobalDryMass(g, finals),
		"max_wind_ms":               diag.MaxWind(g, finals),
		"kinetic_energy":            diag.KineticEnergy(g, finals),
		"available_energy":          diag.AvailableEnergy(g, finals),
	}
}
