package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cadycore/internal/balance"
	"cadycore/internal/checkpoint"
	"cadycore/internal/comm"
	"cadycore/internal/dycore"
	"cadycore/internal/fault"
	"cadycore/internal/grid"
	"cadycore/internal/harness"
	"cadycore/internal/heldsuarez"
	"cadycore/internal/state"
	"cadycore/internal/tune"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent job executors (default 2). Each
	// running job itself spawns one goroutine per simulated rank.
	Workers int
	// QueueCap bounds the admission queue (default 16); submits beyond it
	// are rejected with 429 + Retry-After.
	QueueCap int
	// Dir, when non-empty, persists job specs, progress metadata and
	// checkpoints under Dir/<job-id>/ so jobs survive a process restart
	// (see New, which recovers them).
	Dir string
	// Shared, when non-nil, is a checkpoint store shared with other backends
	// (typically a checkpoint.DirStore on a directory every fleet member
	// mounts). Jobs with a non-empty spec shared_key dual-write their
	// checkpoints there keyed by it, and — when the job has no local
	// checkpoint — resume from the newest shared snapshot, which is how a
	// coordinator migrates a job from a dead backend to this one.
	Shared checkpoint.Store
	// Model is the simulated network cost model (default comm.TianheLike).
	Model comm.NetModel
	// Planner chooses layouts for "layout": "auto" jobs. Nil builds a
	// default planner from Model (analytic profile, short pilots) with the
	// plan cache under Dir/plans when Dir is set.
	Planner *tune.Planner
	// Chaos, when non-nil and non-empty, injects the fault plan into every
	// run job: stragglers, message jitter and transient send errors perturb
	// the simulated clock, and rank crashes kill jobs mid-run so the restart
	// policy below recovers them from their latest checkpoint. The
	// chaos-testing mode behind cmd/cadyserved's -chaos flag.
	Chaos *fault.Plan
	// Restart is the automatic crash-recovery policy for run jobs whose
	// ranks die; the zero value enables it with the defaults documented on
	// RestartPolicy.
	Restart RestartPolicy
}

// RestartPolicy governs automatic recovery of jobs aborted by an injected
// rank death: the job enters the "retrying" state, waits out an exponential
// backoff and is re-enqueued to resume from its latest checkpoint.
type RestartPolicy struct {
	// MaxRestarts is the restart budget per job (default 3; negative
	// disables automatic restart). A job's spec max_restarts overrides it.
	MaxRestarts int
	// Backoff is the delay before the first restart (default 100ms); it
	// doubles on each subsequent restart, capped at MaxBackoff (default 5s).
	Backoff    time.Duration
	MaxBackoff time.Duration
}

// normalize fills the documented defaults.
func (rp RestartPolicy) normalize() RestartPolicy {
	if rp.MaxRestarts == 0 {
		rp.MaxRestarts = 3
	}
	if rp.MaxRestarts < 0 {
		rp.MaxRestarts = 0
	}
	if rp.Backoff <= 0 {
		rp.Backoff = 100 * time.Millisecond
	}
	if rp.MaxBackoff <= 0 {
		rp.MaxBackoff = 5 * time.Second
	}
	return rp
}

// delay returns the backoff before the n-th restart (1-based).
func (rp RestartPolicy) delay(n int) time.Duration {
	d := rp.Backoff
	for i := 1; i < n && d < rp.MaxBackoff; i++ {
		d *= 2
	}
	if d > rp.MaxBackoff {
		d = rp.MaxBackoff
	}
	return d
}

// Submission errors mapped to HTTP statuses by the handlers.
var (
	// ErrQueueFull: the bounded queue rejected the job (HTTP 429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining: the server is shutting down (HTTP 503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Server is the job service. Create with New, expose via ServeHTTP (it is
// an http.Handler), stop with Shutdown.
type Server struct {
	cfg     Config
	model   comm.NetModel
	planner *tune.Planner
	restart RestartPolicy
	chaos   *fault.Plan      // nil when chaos testing is off
	shared  checkpoint.Store // nil when no shared artifact store is attached
	mux     *http.ServeMux
	met     metrics
	start   time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*Job //cadyvet:guardedby mu
	order []string        //cadyvet:guardedby mu
	seq   int             //cadyvet:guardedby mu
	// queue itself is not guarded (channel operations synchronize); only the
	// send-vs-close race is, which is why sends happen under mu with closed.
	queue  chan *Job
	closed bool //cadyvet:guardedby mu

	wg sync.WaitGroup

	// testHold, when non-nil, makes every worker receive once from it
	// before starting a job — lets tests fill the queue deterministically.
	testHold chan struct{}
	// testStep, when non-nil, is called at every step boundary of every
	// run job — lets tests cancel or drain at an exact boundary. Set it
	// before the first Submit (the queue send orders it for workers).
	testStep func(j *Job, done int)
}

// New builds the service, recovers any persisted jobs from cfg.Dir and
// starts the worker pool.
//
//cadyvet:component
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	model := cfg.Model
	if model.ComputeRate == 0 {
		model = comm.TianheLike()
	}
	planner := cfg.Planner
	if planner == nil {
		planner = &tune.Planner{
			Profile:    tune.ProfileFromModel(model),
			TopK:       2,
			PilotSteps: 1,
		}
		if cfg.Dir != "" {
			planner.Cache = tune.NewCache(filepath.Join(cfg.Dir, "plans"))
		}
	}
	chaos := cfg.Chaos
	if chaos != nil {
		if err := chaos.Validate(0); err != nil {
			return nil, err
		}
		if chaos.Empty() {
			chaos = nil
		}
	}
	s := &Server{
		cfg:     cfg,
		model:   model,
		planner: planner,
		restart: cfg.Restart.normalize(),
		chaos:   chaos,
		shared:  cfg.Shared,
		jobs:    make(map[string]*Job),
		queue:   make(chan *Job, cfg.QueueCap),
		start:   time.Now(),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.mux = http.NewServeMux()
	s.routes()
	if cfg.Dir != "" {
		if err := s.recover(); err != nil {
			return nil, err
		}
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Submit validates, registers and enqueues a job. The queue is the
// admission control: a full queue rejects the submission outright
// (ErrQueueFull) rather than keeping an unbounded backlog.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if s.baseCtx.Err() != nil {
		return nil, ErrDraining
	}
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.seq++
	j := &Job{
		ID:        fmt.Sprintf("j-%06d", s.seq),
		Spec:      spec,
		state:     JQueued,
		submitted: time.Now(),
	}
	select {
	case s.queue <- j:
	default:
		s.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	s.mu.Unlock()
	s.met.submitted.Add(1)
	s.persistSpec(j)
	s.persistMeta(j)
	return j, nil
}

// Get returns a job by ID.
func (s *Server) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (s *Server) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// Cancel requests a job stop. A queued job is cancelled in place; a running
// job is stopped cooperatively at its next step boundary (where it is
// checkpointed). Terminal jobs return an error.
func (s *Server) Cancel(id string) error {
	j, ok := s.Get(id)
	if !ok {
		return fmt.Errorf("server: no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case JQueued:
		s.finishLocked(j, JCancelled, j.errMsg, true)
		s.persistMetaLocked(j)
		return nil
	case JRunning:
		j.cancelRequested = true
		if j.cancel != nil {
			j.cancel()
		}
		return nil
	case JRetrying:
		// Stop the pending restart; the job keeps its checkpoint.
		if j.retryTimer != nil {
			j.retryTimer.Stop()
			j.retryTimer = nil
		}
		s.finishLocked(j, JCancelled, j.errMsg, true)
		s.persistMetaLocked(j)
		return nil
	default:
		return fmt.Errorf("server: job %s is %s, not cancellable", id, j.state)
	}
}

// Resume re-enqueues a stopped job. Execution restarts from the latest
// checkpoint when one exists (baseline restarts are bitwise-exact; the
// default comm-avoiding integrator reconverges its lagged Ĉ cache, see
// DESIGN.md), from the initial condition otherwise.
func (s *Server) Resume(id string) (*Job, error) {
	j, ok := s.Get(id)
	if !ok {
		return nil, fmt.Errorf("server: no job %s", id)
	}
	if s.baseCtx.Err() != nil {
		return nil, ErrDraining
	}
	j.mu.Lock()
	if !j.state.terminal() {
		st := j.state
		j.mu.Unlock()
		return nil, fmt.Errorf("server: job %s is %s, not resumable", id, st)
	}
	if j.state == JCompleted {
		j.mu.Unlock()
		return nil, fmt.Errorf("server: job %s already completed", id)
	}
	if j.Spec.Kind != "run" {
		j.mu.Unlock()
		return nil, fmt.Errorf("server: %s jobs are not resumable", j.Spec.Kind)
	}
	prev := j.state
	j.state = JQueued
	j.errMsg = ""
	j.cancelRequested = false
	j.finished = time.Time{}
	j.mu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		j.mu.Lock()
		j.state = prev
		j.mu.Unlock()
		return nil, ErrDraining
	}
	select {
	case s.queue <- j:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		j.mu.Lock()
		j.state = prev
		j.mu.Unlock()
		s.met.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.met.resumed.Add(1)
	s.persistMeta(j)
	return j, nil
}

// Shutdown drains the service: no new submissions are accepted, running
// jobs are stopped at their next step boundary and checkpointed (state
// "interrupted", resumable), still-queued jobs stay "queued" with their
// specs persisted. It returns when the workers have exited or ctx expires.
//
//cadyvet:component
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	// Jobs parked in a restart backoff cannot restart on a drained server:
	// surface them as interrupted (resumable), like running jobs that were
	// stopped. Then persist the final metadata of everything still queued.
	for _, j := range s.List() {
		j.mu.Lock()
		if j.state == JRetrying {
			if j.retryTimer != nil {
				j.retryTimer.Stop()
				j.retryTimer = nil
			}
			s.finishLocked(j, JInterrupted, j.errMsg, true)
		}
		j.mu.Unlock()
		s.persistMeta(j)
	}
	return nil
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.baseCtx.Err() != nil }

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		if s.testHold != nil {
			<-s.testHold
		}
		j.mu.Lock()
		if j.state != JQueued {
			// Cancelled while queued.
			j.mu.Unlock()
			continue
		}
		if s.baseCtx.Err() != nil {
			// Draining: leave the job queued (its spec and metadata are
			// persisted) for a later service instance to resume.
			j.mu.Unlock()
			continue
		}
		j.state = JRunning
		j.started = time.Now()
		j.attempts++
		j.mu.Unlock()
		s.met.busy.Add(1)
		s.runJob(j)
		s.met.busy.Add(-1)
		s.persistMeta(j)
	}
}

// runJob executes one attempt of a job: it describes the run to balance.Run
// (the one supervised-run driver, shared with cmd/dycore) and translates the
// outcome into a job state. The service hangs on the driver's callbacks:
// Snapshot persists and shares each checkpoint, Commit persists a migrated
// plan, Observe feeds /metrics, ShouldStop is the attempt's context.
func (s *Server) runJob(j *Job) {
	var ctx context.Context
	var cancel context.CancelFunc
	if j.Spec.DeadlineSec > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(j.Spec.DeadlineSec*float64(time.Second)))
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()

	defer func() {
		if r := recover(); r != nil {
			j.mu.Lock()
			s.finishLocked(j, JFailed, fmt.Sprintf("panic: %v", r), j.snap != nil)
			j.mu.Unlock()
		}
	}()

	if j.Spec.Kind == "figures" {
		s.runFigures(j)
		return
	}

	g := grid.New(j.Spec.Nx, j.Spec.Ny, j.Spec.Nz)
	spec := balance.RunSpec{
		Grid: g, Model: s.model, Steps: j.Spec.Steps,
		Progress: func(step int) {
			j.mu.Lock()
			j.stepsDone = step
			j.mu.Unlock()
			s.met.steps.Add(1)
			if s.testStep != nil {
				s.testStep(j, step)
			}
		},
		ShouldStop:    func() bool { return ctx.Err() != nil },
		SnapshotEvery: j.Spec.CheckpointEvery,
		Snapshot: func(step int, gl *checkpoint.Global) {
			j.setSnapshot(step, gl)
			s.met.snapshots.Add(1)
			s.persistSnap(j, gl)
			s.shareSnap(j, step, gl)
		},
		Observe: s.met.observeRun,
		Commit: func(plan tune.Plan, mig balance.Migration) {
			j.mu.Lock()
			j.plan = &plan
			j.migrations = append(j.migrations, mig)
			s.persistMetaLocked(j)
			j.mu.Unlock()
			s.met.rebalanceMigrations.Add(1)
		},
	}
	if j.Spec.autoLayout() {
		plan, err := s.planJob(j, g)
		if err == nil && j.Spec.Rebalance != nil {
			// The controller starts from the job's current plan — the
			// autotuner's choice, or the migrated layout of a resumed job
			// (Commit records migrations, so checkpoints stay coherent).
			spec.Controller, err = balance.NewController(*j.Spec.Rebalance, g, j.Spec.config(),
				s.planner.Profile, j.Spec.Steps, plan.Candidate())
			if err != nil {
				err = fmt.Errorf("rebalance: %w", err)
			}
		}
		if err != nil {
			j.mu.Lock()
			s.finishLocked(j, JFailed, err.Error(), false)
			j.mu.Unlock()
			return
		}
		spec.Setup = plan.Setup(j.Spec.config())
	} else {
		spec.Setup = j.Spec.setup()
	}
	if j.Spec.heldSuarez() {
		hs := heldsuarez.Standard()
		dt2 := j.Spec.Dt2
		spec.Hook = func(g *grid.Grid, st *state.State, step int) { hs.Apply(g, st, dt2) }
	}
	if s.chaos != nil {
		spec.Faults = j.ensureChaos(s.chaos)
	}

	snap, start := j.latestSnapshot()
	if snap == nil {
		// No local checkpoint: a shared-store snapshot means another backend
		// ran (part of) this job before it was migrated here — adopt it.
		if snap, start = s.sharedSnapshot(j); snap != nil {
			j.mu.Lock()
			j.ckptStep = start
			j.snap = snap
			j.stepsDone = start
			j.mu.Unlock()
			s.met.sharedResumes.Add(1)
		}
	}
	switch {
	case snap != nil:
		spec.Init, spec.Start = snap.InitFunc(), start
	case j.Spec.PerturbAmp > 0:
		// Fresh start of an ensemble member: perturb the initial state.
		spec.Init = perturbInit(heldsuarez.InitialState, j.Spec.PerturbSeed, j.Spec.PerturbAmp)
	default:
		spec.Init = heldsuarez.InitialState
	}
	if spec.Start >= spec.Steps {
		j.mu.Lock()
		s.finishLocked(j, JCompleted, "", false)
		j.mu.Unlock()
		return
	}

	// The restart policy is the queue's (retrying state, backoff, requeue), so
	// the driver gets no restart budget: a crash comes back as the error.
	out, err := balance.Run(spec)
	ended := time.Now()
	if ctl := spec.Controller; ctl != nil {
		st := ctl.Snapshot()
		s.met.rebalanceDecisions.Add(st.Decisions)
		s.met.rebalanceSkipped.Add(st.Skipped)
	}

	completed := err == nil && out.StepsDone >= spec.Steps
	if completed {
		// The final state is the job's last checkpoint, durable and shared
		// before the job reads as completed.
		final := checkpoint.Gather(g, out.Finals)
		j.setSnapshot(out.StepsDone, final)
		s.persistSnap(j, final)
		s.shareSnap(j, out.StepsDone, final)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	j.agg = comm.MergeAggregate(j.agg, out.Agg)
	j.count.Add(out.Count)
	var crash *dycore.RankFailure
	switch {
	case errors.As(err, &crash):
		s.handleAbort(j, crash)
	case err != nil:
		s.finishLocked(j, JFailed, err.Error(), j.snap != nil)
	case completed:
		s.finishLocked(j, JCompleted, "", false)
		j.finished = ended // wall_sec is the run, not the final checkpoint's fsyncs
		j.diags = diagnostics(g, out.Finals)
	// Otherwise it stopped at a boundary, and the stop-triggered Snapshot
	// already recorded the checkpoint at exactly j.stepsDone.
	case j.cancelRequested:
		s.finishLocked(j, JCancelled, "", true)
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.finishLocked(j, JFailed, "deadline exceeded", true)
	default:
		s.finishLocked(j, JInterrupted, "", true)
	}
}

// finishLocked ends a job's current attempt in state st.
//
//cadyvet:locked j.mu
func (s *Server) finishLocked(j *Job, st JState, errMsg string, resumable bool) {
	j.state, j.errMsg, j.resumable = st, errMsg, resumable
	j.finished = time.Now()
	j.cancel = nil
	switch st {
	case JCompleted:
		s.met.completed.Add(1)
	case JFailed:
		s.met.failed.Add(1)
	case JCancelled:
		s.met.cancelled.Add(1)
	case JInterrupted:
		s.met.interrupted.Add(1)
	}
}

// sharedSnapshot loads the newest shared-store snapshot of a job keyed for
// dual-write, skipping snapshots whose mesh does not match (a reused key).
func (s *Server) sharedSnapshot(j *Job) (*checkpoint.Global, int) {
	if s.shared == nil || j.Spec.SharedKey == "" || j.Spec.Kind != "run" {
		return nil, 0
	}
	gl, step, err := s.shared.Latest(j.Spec.SharedKey)
	if err != nil || gl == nil {
		return nil, 0
	}
	if gl.Nx != j.Spec.Nx || gl.Ny != j.Spec.Ny || gl.Nz != j.Spec.Nz {
		return nil, 0
	}
	if step > j.Spec.Steps {
		return nil, 0
	}
	return gl, step
}

// handleAbort translates an injected rank death into the restart policy:
// unless a cancel or drain intervened or the restart budget is exhausted,
// the job enters "retrying" and an exponential-backoff timer re-enqueues it
// to resume from its latest checkpoint.
//
//cadyvet:locked j.mu
func (s *Server) handleAbort(j *Job, crash *dycore.RankFailure) {
	s.met.rankFailures.Add(1)
	limit := s.restart.MaxRestarts
	if j.Spec.MaxRestarts != nil {
		limit = *j.Spec.MaxRestarts
	}
	switch {
	case j.cancelRequested:
		s.finishLocked(j, JCancelled, crash.Error(), true)
	case s.baseCtx.Err() != nil:
		// Draining: no restart timer can run to completion; leave the job
		// resumable for the next service instance.
		s.finishLocked(j, JInterrupted, crash.Error(), true)
	case j.restarts >= limit:
		s.finishLocked(j, JFailed, fmt.Sprintf("%s (restart budget %d exhausted)", crash.Error(), limit), true)
	default:
		j.restarts++
		j.state, j.errMsg, j.resumable = JRetrying, crash.Error(), true
		j.cancel = nil
		j.retryTimer = time.AfterFunc(s.restart.delay(j.restarts), func() { s.requeueRetry(j) })
		s.met.restarts.Add(1)
	}
	s.persistMetaLocked(j)
}

// requeueRetry moves a retrying job back into the admission queue when its
// backoff expires. A full queue re-arms the timer instead of dropping the
// job; a drained or closed server surfaces it as interrupted (resumable).
func (s *Server) requeueRetry(j *Job) {
	s.mu.Lock()
	closed := s.closed || s.baseCtx.Err() != nil
	if closed {
		s.mu.Unlock()
		j.mu.Lock()
		if j.state == JRetrying {
			j.retryTimer = nil
			s.finishLocked(j, JInterrupted, j.errMsg, true)
			s.persistMetaLocked(j)
		}
		j.mu.Unlock()
		return
	}
	j.mu.Lock()
	if j.state != JRetrying {
		// Cancelled while backing off.
		j.mu.Unlock()
		s.mu.Unlock()
		return
	}
	j.retryTimer = nil
	select {
	case s.queue <- j:
		j.state = JQueued
		j.mu.Unlock()
		s.mu.Unlock()
	default:
		j.retryTimer = time.AfterFunc(s.restart.Backoff, func() { s.requeueRetry(j) })
		j.mu.Unlock()
		s.mu.Unlock()
	}
}

// runFigures executes a figures job: the harness sweep with the shared
// memoized cache. Sweeps are not checkpointable; they run to completion.
func (s *Server) runFigures(j *Job) {
	o := harness.Defaults()
	o.Nx, o.Ny, o.Nz = j.Spec.Nx, j.Spec.Ny, j.Spec.Nz
	o.M = j.Spec.M
	o.Steps = j.Spec.Steps
	o.Dt1, o.Dt2 = j.Spec.Dt1, j.Spec.Dt2
	o.Ps = harness.SortedPs(j.Spec.Ps)
	o.Model = s.model
	figs := harness.AllFigures(o)
	j.mu.Lock()
	defer j.mu.Unlock()
	j.figures = make([]string, 0, len(figs))
	for _, f := range figs {
		j.figures = append(j.figures, f.Format())
	}
	j.stepsDone = j.Spec.Steps
	s.finishLocked(j, JCompleted, "", false)
}

// planJob resolves the layout of an auto job: reuse the plan recorded by an
// earlier segment (so resumes keep their decomposition and checkpoints stay
// coherent), otherwise consult the planner and re-validate its choice
// through the same Normalize gate explicit submissions pass.
func (s *Server) planJob(j *Job, g *grid.Grid) (tune.Plan, error) {
	if p := j.getPlan(); p != nil {
		return *p, nil
	}
	plan, err := s.planner.Plan(g, j.Spec.Procs, j.Spec.config())
	if err != nil {
		return tune.Plan{}, fmt.Errorf("autotune: %w", err)
	}
	if err := validatePlanned(j.Spec, plan); err != nil {
		return tune.Plan{}, fmt.Errorf("autotune: planned layout %s invalid: %w", plan, err)
	}
	j.setPlan(plan)
	s.persistMeta(j)
	return plan, nil
}

// validatePlanned runs the planner's choice through the explicit-layout
// validation path (the reject-on-infeasible gate).
func validatePlanned(sp JobSpec, p tune.Plan) error {
	v := sp
	v.Layout = "explicit"
	v.Procs = 0
	v.Alg = string(p.Scheme)
	v.PA, v.PB, v.PC = p.PA, p.PB, 0
	v.M = p.M
	v.StageM = 0
	if p.Scheme == tune.SchemeCA {
		v.StageM = p.Stage
	}
	// The explicit-layout gate rejects rebalance (a pinned layout must not
	// migrate); the planned spec is only borrowing that gate for feasibility.
	v.Rebalance = nil
	return v.Normalize()
}

// --- persistence -----------------------------------------------------------
//
// Layout under cfg.Dir: <id>/spec.json, <id>/meta.json, <id>/snap.ck.
// Writes are temp-file + fsync + rename + parent-dir fsync so a crash at any
// point leaves either the old or the new file, never a torn or lost one; the
// checkpoint format's own CRC64 catches anything else. Failures are no
// longer swallowed: they surface in the job status (persist_error) and the
// cady_persist_errors_total counter.

type jobMeta struct {
	State      JState              `json:"state"`
	StepsDone  int                 `json:"steps_done"`
	CkptStep   int                 `json:"checkpoint_step"`
	Resumable  bool                `json:"resumable"`
	Error      string              `json:"error,omitempty"`
	Attempts   int                 `json:"attempts"`
	Restarts   int                 `json:"restarts,omitempty"`
	Plan       *tune.Plan          `json:"plan,omitempty"`
	Migrations []balance.Migration `json:"migrations,omitempty"`
}

func (s *Server) jobDir(j *Job) string { return filepath.Join(s.cfg.Dir, j.ID) }

// notePersist records the outcome of a durable write on the job (which must
// be locked) and in the service metrics.
//
//cadyvet:locked j.mu
func (s *Server) notePersist(j *Job, err error) {
	if err != nil {
		j.persistErr = err.Error()
		s.met.persistErrors.Add(1)
	} else {
		j.persistErr = ""
	}
}

func (s *Server) persistSpec(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	dir := s.jobDir(j)
	err := os.MkdirAll(dir, 0o755)
	if err == nil {
		b, _ := json.MarshalIndent(j.Spec, "", "  ")
		err = writeFileAtomic(filepath.Join(dir, "spec.json"), b)
	}
	if err != nil {
		j.mu.Lock()
		s.notePersist(j, err)
		j.mu.Unlock()
	}
}

func (s *Server) persistMeta(j *Job) {
	j.mu.Lock()
	defer j.mu.Unlock()
	s.persistMetaLocked(j)
}

//cadyvet:locked j.mu
func (s *Server) persistMetaLocked(j *Job) {
	if s.cfg.Dir == "" {
		return
	}
	m := jobMeta{
		State:      j.state,
		StepsDone:  j.stepsDone,
		CkptStep:   j.ckptStep,
		Resumable:  j.resumable,
		Error:      j.errMsg,
		Attempts:   j.attempts,
		Restarts:   j.restarts,
		Plan:       j.plan,
		Migrations: j.migrations,
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	if err := writeFileAtomic(filepath.Join(s.jobDir(j), "meta.json"), b); err != nil {
		s.notePersist(j, err)
	}
}

func (s *Server) persistSnap(j *Job, gl *checkpoint.Global) {
	if s.cfg.Dir == "" {
		return
	}
	err := writeSnapFile(filepath.Join(s.jobDir(j), "snap.ck"), gl)
	j.mu.Lock()
	defer j.mu.Unlock()
	s.notePersist(j, err)
	s.persistMetaLocked(j)
}

// shareSnap dual-writes a checkpoint into the shared artifact store under
// the job's shared_key, stamped with its global step boundary.
func (s *Server) shareSnap(j *Job, step int, gl *checkpoint.Global) {
	if s.shared == nil || j.Spec.SharedKey == "" {
		return
	}
	err := s.shared.Put(j.Spec.SharedKey, step, gl)
	j.mu.Lock()
	s.notePersist(j, err)
	j.mu.Unlock()
	if err == nil {
		s.met.sharedPuts.Add(1)
	}
}

// writeSnapFile durably writes one checkpoint (checkpoint.WriteAtomic: temp
// file, fsync, rename, parent-dir fsync). The temp file lives in the
// destination directory (a cross-device rename would not be atomic); a
// process death between create and rename can strand it, which is why
// recover() sweeps *.tmp before trusting a job directory.
func writeSnapFile(path string, gl *checkpoint.Global) error {
	return checkpoint.WriteAtomic(path, gl)
}

// writeFileAtomic durably replaces path with b (same protocol).
func writeFileAtomic(path string, b []byte) error {
	return checkpoint.WriteFileAtomic(path, b)
}

// recover re-registers persisted jobs from cfg.Dir. Jobs that were queued,
// running or interrupted when the previous process died come back as
// resumable "interrupted" jobs; completed and terminal jobs keep their
// state. The latest checkpoint, when present and valid, is reloaded.
//
//cadyvet:unshared recovery runs from New before the worker pool or any handler exists; s and every recovered Job are still private to the constructor
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return os.MkdirAll(s.cfg.Dir, 0o755)
		}
		return err
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "j-") {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		dir := filepath.Join(s.cfg.Dir, id)
		// A crash between temp write and rename leaves a stale *.tmp next to
		// the last complete file. It is never valid state (the rename is the
		// commit point): remove it so nothing can ever load it.
		if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) > 0 {
			for _, t := range tmps {
				os.Remove(t)
			}
		}
		specB, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue
		}
		var spec JobSpec
		if json.Unmarshal(specB, &spec) != nil || spec.Normalize() != nil {
			continue
		}
		j := &Job{ID: id, Spec: spec, state: JQueued, submitted: time.Now()}
		if metaB, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
			var m jobMeta
			if json.Unmarshal(metaB, &m) == nil {
				j.state = m.State
				j.stepsDone = m.StepsDone
				j.ckptStep = m.CkptStep
				j.resumable = m.Resumable
				j.errMsg = m.Error
				j.attempts = m.Attempts
				j.restarts = m.Restarts
				j.plan = m.Plan
				j.migrations = m.Migrations
			}
		}
		if f, err := os.Open(filepath.Join(dir, "snap.ck")); err == nil {
			if gl, err := checkpoint.Read(f); err == nil {
				j.snap = gl
			}
			f.Close()
		}
		// meta.json's checkpoint step describes snap.ck; with no snapshot
		// loaded (missing, or a format Read refuses) there is none to report.
		if j.snap == nil {
			j.ckptStep = 0
		}
		// A job that was mid-flight (or parked in a restart backoff) when
		// the process died cannot still be running; surface it as
		// interrupted and resumable.
		if j.state == JQueued || j.state == JRunning || j.state == JRetrying {
			j.state = JInterrupted
			j.resumable = true
		}
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j-")); err == nil && n > s.seq {
			s.seq = n
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return nil
}
