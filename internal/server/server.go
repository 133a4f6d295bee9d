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
	// DefaultQuota caps each tenant's in-flight jobs — queued, running or
	// retrying (0, the default, sets no cap); Quotas overrides it per
	// tenant. A submission over its tenant's quota is rejected with 429 +
	// Retry-After.
	DefaultQuota int
	Quotas       map[string]int
	// Classes assigns tenants a priority class, "high", "normal" (default)
	// or "low". Workers take queued jobs in smooth weighted round robin over
	// the tenants with class weights 4/2/1.
	Classes map[string]string
	// Dir, when non-empty, persists job specs and progress metadata under
	// Dir/<job-id>/ so jobs survive a process restart (see New, which
	// recovers them). Each job directory is a checkpoint.DirStore keyed by
	// the job ID: the checkpoint home of every job not checkpointing into Shared.
	Dir string
	// Shared, when non-nil, is a checkpoint store shared with other backends
	// (typically a checkpoint.DirStore on a directory every fleet member
	// mounts). It is the checkpoint home of every job with a non-empty spec
	// shared_key: the job checkpoints there under that key and resumes from
	// the newest snapshot there, whichever backend wrote it — which is how a
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
	chaos   *fault.Plan // nil when chaos testing is off
	mux     *http.ServeMux
	met     metrics
	start   time.Time

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu    sync.Mutex
	jobs  map[string]*Job //cadyvet:guardedby mu
	order []string        //cadyvet:guardedby mu
	seq   int             //cadyvet:guardedby mu
	// The admission queue: one FIFO per tenant (admission.go), queued jobs
	// in all of them, and the workers' wake-up, signalled under mu.
	tenants map[string]*tenantQ //cadyvet:guardedby mu
	queued  int                 //cadyvet:guardedby mu
	wake    *sync.Cond
	closed  bool //cadyvet:guardedby mu

	wg sync.WaitGroup

	// testHold, when non-nil, makes every worker receive once from it
	// after taking a job and before starting it — lets tests fill the queue
	// deterministically.
	testHold chan struct{}
	// testStep, when non-nil, is called at every step boundary of every
	// run job — lets tests cancel or drain at an exact boundary. Set it
	// before the first Submit (the queue's lock orders it for workers).
	testStep func(j *Job, done int)
}

// New builds the service, recovers any persisted jobs from cfg.Dir and
// starts the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 16
	}
	if err := cfg.CheckTenancy(); err != nil {
		return nil, err
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
		jobs:    make(map[string]*Job),
		tenants: make(map[string]*tenantQ),
		start:   time.Now(),
	}
	s.wake = sync.NewCond(&s.mu)
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
// admission control: a full queue (ErrQueueFull) or a tenant at its quota
// (ErrQuotaExceeded) rejects the submission outright rather than keeping an
// unbounded backlog.
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
		tq:        s.tenantLocked(spec.Tenant),
		state:     JQueued,
		submitted: time.Now(),
	}
	if err := s.admitLocked(j, false); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	j.mu.Lock() // a worker that takes the job waits until its home is open
	s.mu.Unlock()
	s.met.submitted.Add(1)
	// One commit: a job directory without meta.json recovers as the queued,
	// all-zero job this one is.
	s.persistSpecLocked(j)
	j.mu.Unlock()
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

// Cancel requests a job stop. A queued job leaves the queue and is cancelled
// in place; a running job is stopped cooperatively at its next step boundary
// (where it is checkpointed). Terminal jobs return an error.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return fmt.Errorf("server: no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == JQueued {
		s.dropLocked(j)
	}
	s.mu.Unlock()
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

// Resume re-enqueues a stopped job. Execution restarts from the checkpoint
// in the job's home when one exists (bitwise for every scheme: a snapshot
// carries the comm-avoiding integrator's lagged Ĉ), from the initial
// condition otherwise.
func (s *Server) Resume(id string) (*Job, error) {
	if s.baseCtx.Err() != nil {
		return nil, ErrDraining
	}
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("server: no job %s", id)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	var err error
	switch {
	case s.closed:
		err = ErrDraining
	case !j.state.terminal():
		err = fmt.Errorf("server: job %s is %s, not resumable", id, j.state)
	case j.state == JCompleted:
		err = fmt.Errorf("server: job %s already completed", id)
	case j.Spec.Kind != "run":
		err = fmt.Errorf("server: %s jobs are not resumable", j.Spec.Kind)
	default:
		err = s.admitLocked(j, false)
	}
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	j.state = JQueued
	j.errMsg = ""
	j.cancelRequested = false
	j.finished = time.Time{}
	s.met.resumed.Add(1)
	s.persistMetaLocked(j)
	return j, nil
}

// Shutdown drains the service: no new submissions are accepted, running
// jobs are stopped at their next step boundary and checkpointed (state
// "interrupted", resumable), still-queued jobs stay "queued" with their
// specs persisted. It returns when the workers have exited or ctx expires.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.wake.Broadcast()
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

// worker takes jobs from the admission queue until Shutdown closes it; jobs
// still queued then stay queued (their specs and metadata are persisted) for
// a later service instance to resume.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queued == 0 {
			s.wake.Wait()
		}
		var j *Job
		if !s.closed {
			j = s.popLocked()
		}
		s.mu.Unlock()
		if j == nil {
			return
		}
		if s.testHold != nil {
			<-s.testHold
		}
		j.mu.Lock()
		if j.state != JQueued || s.baseCtx.Err() != nil {
			// Cancelled after a worker took it, or draining.
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
// Snapshot saves each checkpoint to the job's home, Commit persists a
// migrated plan, Observe feeds /metrics, ShouldStop is the attempt's context.
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
			s.finishLocked(j, JFailed, fmt.Sprintf("panic: %v", r), j.ckptStep > 0)
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
			s.met.snapshots.Add(1)
			s.saveSnap(j, step, gl)
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
			spec.Controller, err = balance.NewController(*j.Spec.Rebalance, g,
				s.planner.Profile, j.Spec.Steps, plan.Setup(j.Spec.config()))
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

	snap, start := s.loadSnap(j)
	if snap != nil {
		j.mu.Lock()
		first := j.attempts == 1
		j.ckptStep, j.stepsDone = start, start
		j.mu.Unlock()
		if first && j.store != nil && j.store == s.cfg.Shared {
			// The first attempt here found a checkpoint: another backend ran
			// (part of) this job before it was migrated here.
			s.met.sharedResumes.Add(1)
		}
	}
	switch {
	case snap != nil:
		// A snapshot at the final step runs zero steps: balance.Run still
		// restores it, so the job completes with its final diagnostics.
		spec.Init, spec.Start = snap.InitFunc(), start
	case j.Spec.PerturbAmp > 0:
		// Fresh start of an ensemble member: perturb the initial state.
		spec.Init = perturbInit(heldsuarez.InitialState, j.Spec.PerturbSeed, j.Spec.PerturbAmp)
	default:
		spec.Init = heldsuarez.InitialState
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
	if completed && j.store != nil {
		// The final state is the job's last checkpoint, durable before the
		// job reads as completed. The memory home keeps none: nothing can
		// resume a completed job.
		s.saveSnap(j, out.StepsDone, checkpoint.Gather(g, out.Finals))
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
		s.finishLocked(j, JFailed, err.Error(), j.ckptStep > 0)
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

// finishLocked ends a job's current attempt in state st, releasing its
// tenant's in-flight slot. A completed job cannot resume, so it drops its
// memory checkpoint.
//
//cadyvet:locked j.mu
func (s *Server) finishLocked(j *Job, st JState, errMsg string, resumable bool) {
	if !j.state.terminal() {
		j.tq.inflight.Add(-1)
	}
	if st == JCompleted {
		j.snap = nil
	}
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
	defer s.mu.Unlock()
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != JRetrying {
		// Cancelled while backing off.
		return
	}
	j.retryTimer = nil
	switch {
	case s.closed || s.baseCtx.Err() != nil:
		s.finishLocked(j, JInterrupted, j.errMsg, true)
		s.persistMetaLocked(j)
	case s.admitLocked(j, true) != nil:
		j.retryTimer = time.AfterFunc(s.restart.Backoff, func() { s.requeueRetry(j) })
	default:
		j.state = JQueued
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
// coherent), otherwise consult the planner and check its choice against the
// dycore.MinPerRank rule explicit submissions pass.
func (s *Server) planJob(j *Job, g *grid.Grid) (tune.Plan, error) {
	if p := j.getPlan(); p != nil {
		return *p, nil
	}
	plan, err := s.planner.Plan(g, j.Spec.Procs, j.Spec.config())
	if err != nil {
		return tune.Plan{}, fmt.Errorf("autotune: %w", err)
	}
	if err := plan.Setup(j.Spec.config()).Check(g, dycore.MinPerRank); err != nil {
		return tune.Plan{}, fmt.Errorf("autotune: planned layout %s invalid: %w", plan, err)
	}
	j.setPlan(plan)
	s.persistMeta(j)
	return plan, nil
}

// --- persistence -----------------------------------------------------------
//
// Layout under cfg.Dir: <id>/spec.json, <id>/meta.json and, for a job whose
// checkpoint home is the job directory, <id>/<id>@<step>.ck. Writes go
// through checkpoint's commit helpers (temp file, fsync, rename, parent-dir
// fsync), so a crash at any point leaves either the old or the new file,
// never a torn or lost one; the checkpoint format's own CRC64 catches
// anything else.
// Failures surface in the job status (persist_error) and the
// cady_persist_errors_total counter.

type jobMeta struct {
	State      JState              `json:"state"`
	StepsDone  int                 `json:"steps_done"`
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

// persistSpecLocked opens the job's checkpoint home and commits spec.json.
//
//cadyvet:locked j.mu
func (s *Server) persistSpecLocked(j *Job) {
	err := s.openHome(j)
	if err == nil && s.cfg.Dir != "" {
		b, _ := json.MarshalIndent(j.Spec, "", "  ")
		err = checkpoint.WriteFileAtomic(filepath.Join(s.jobDir(j), "spec.json"), b)
	}
	if err != nil {
		s.notePersist(j, err)
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
		Resumable:  j.resumable,
		Error:      j.errMsg,
		Attempts:   j.attempts,
		Restarts:   j.restarts,
		Plan:       j.plan,
		Migrations: j.migrations,
	}
	b, _ := json.MarshalIndent(m, "", "  ")
	if err := checkpoint.WriteFileAtomic(filepath.Join(s.jobDir(j), "meta.json"), b); err != nil {
		s.notePersist(j, err)
	}
}

// --- checkpoint home ---------------------------------------------------------
//
// A run job's checkpoint lives in exactly one home, j.ckptStep its step,
// chosen once when the job is registered: the shared store under its
// shared_key when the server has one, else its directory as a DirStore under
// its ID when the server persists, else Job.snap in memory.

// openHome opens the job's home, creating its directory. A directory that
// cannot be created stays the home: its every checkpoint fails.
func (s *Server) openHome(j *Job) error {
	var dir checkpoint.Store
	var err error
	if s.cfg.Dir != "" {
		if dir, err = checkpoint.NewDirStore(s.jobDir(j)); err != nil {
			dir = lostDir{err}
		}
	}
	switch {
	case s.cfg.Shared != nil && j.Spec.SharedKey != "":
		j.store, j.key = s.cfg.Shared, j.Spec.SharedKey
	case dir != nil:
		j.store, j.key = dir, j.ID
	}
	return err
}

// lostDir is the home of a job whose directory could not be created.
type lostDir struct{ err error }

func (d lostDir) Put(string, int, *checkpoint.Global) error      { return d.err }
func (d lostDir) Latest(string) (*checkpoint.Global, int, error) { return nil, 0, d.err }

// saveSnap records the checkpoint at step in the job's home. A failed write
// leaves the job at its last durable checkpoint and surfaces in
// persist_error.
func (s *Server) saveSnap(j *Job, step int, gl *checkpoint.Global) {
	var err error
	if j.store != nil {
		err = j.store.Put(j.key, step, gl)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s.notePersist(j, err)
	if err != nil {
		return
	}
	j.ckptStep = step
	switch j.store {
	case nil:
		j.snap = gl
	case s.cfg.Shared:
		s.met.sharedPuts.Add(1)
	}
}

// loadSnap returns the checkpoint in the job's home and its step, or nil
// when there is none to resume from. A snapshot of another mesh (a reused
// shared key) or past the job's last step is not the job's.
func (s *Server) loadSnap(j *Job) (*checkpoint.Global, int) {
	j.mu.Lock()
	gl, step := j.snap, j.ckptStep
	j.mu.Unlock()
	var err error
	if j.store != nil {
		gl, step, err = j.store.Latest(j.key)
	}
	if err != nil || gl == nil || step > j.Spec.Steps ||
		gl.Nx != j.Spec.Nx || gl.Ny != j.Spec.Ny || gl.Nz != j.Spec.Nz {
		return nil, 0
	}
	return gl, step
}

// recover re-registers persisted jobs from cfg.Dir. Jobs that were queued,
// running or interrupted when the previous process died come back as
// resumable "interrupted" jobs; completed and terminal jobs keep their
// state. Each job's checkpoint is verified in its home, and only its step is
// kept: a resume loads it again. No new job reuses any j-* directory's ID.
//
//cadyvet:unshared recovery runs from New before the worker pool or any handler exists; s and every recovered Job are still private to the constructor
func (s *Server) recover() error {
	entries, err := os.ReadDir(s.cfg.Dir)
	if err != nil {
		if os.IsNotExist(err) {
			return checkpoint.MkdirDurable(s.cfg.Dir)
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
		if n, err := strconv.Atoi(strings.TrimPrefix(id, "j-")); err == nil && n > s.seq {
			s.seq = n
		}
		dir := filepath.Join(s.cfg.Dir, id)
		// A crash between temp write and rename leaves a stale *.tmp next to
		// the last complete file. It is never valid state (the rename is the
		// commit point): remove it so nothing can ever load it.
		tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
		for _, t := range tmps {
			os.Remove(t)
		}
		specB, err := os.ReadFile(filepath.Join(dir, "spec.json"))
		if err != nil {
			continue
		}
		var spec JobSpec
		if json.Unmarshal(specB, &spec) != nil || spec.Normalize() != nil {
			continue
		}
		j := &Job{ID: id, Spec: spec, tq: s.tenantLocked(spec.Tenant), state: JQueued, submitted: time.Now()}
		if metaB, err := os.ReadFile(filepath.Join(dir, "meta.json")); err == nil {
			var m jobMeta
			if json.Unmarshal(metaB, &m) == nil {
				j.state = m.State
				j.stepsDone = m.StepsDone
				j.resumable = m.Resumable
				j.errMsg = m.Error
				j.attempts = m.Attempts
				j.restarts = m.Restarts
				j.plan = m.Plan
				j.migrations = m.Migrations
			}
		}
		// checkpoint_step is the newest checkpoint the home reads back (none
		// when missing or refused); meta.json, committed apart, may lag it.
		s.notePersist(j, s.openHome(j))
		_, j.ckptStep = s.loadSnap(j)
		j.stepsDone = max(j.stepsDone, j.ckptStep)
		// A job that was mid-flight (or parked in a restart backoff) when
		// the process died cannot still be running; surface it as
		// interrupted and resumable.
		if j.state == JQueued || j.state == JRunning || j.state == JRetrying {
			j.state = JInterrupted
			j.resumable = true
		}
		s.jobs[id] = j
		s.order = append(s.order, id)
	}
	return nil
}
