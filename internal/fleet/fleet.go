// Package fleet is the sharded multi-tenant serving layer: a coordinator
// that fronts N cadyserved backends behind the same HTTP/JSON job API. It
// admits jobs under per-tenant quotas and priority classes (weighted-fair
// dequeue), shards them across backends (rendezvous hashing by job ID with a
// least-loaded fallback read from each backend's /metrics), and persists
// job→backend routing plus checkpoints in a shared artifact store
// (checkpoint.DirStore) so that when a backend dies mid-job — detected by
// health probes with exponential backoff — the job migrates to a live
// backend and resumes bitwise from the latest shared checkpoint (a snapshot
// is the whole carried state). On top of sharding it fans one JobSpec into K
// perturbed ensemble members and aggregates their diagnostics.
//
//cadyvet:persistence fleet.json routing state survives coordinator restarts; durable writes route through checkpoint.WriteFileAtomic
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"cadycore/internal/checkpoint"
	"cadycore/internal/server"
)

// Config sizes the coordinator.
type Config struct {
	// Backends are the base URLs of the cadyserved daemons (e.g.
	// "http://127.0.0.1:8081"). More can be registered at runtime via
	// POST /backends.
	Backends []string
	// StoreDir is the shared artifact store directory: every backend must
	// run with -shared pointing at the same path. The coordinator keeps its
	// own routing state in StoreDir/fleet.json and reads final member states
	// from the *.ck files the backends dual-write.
	StoreDir string

	// DefaultQuota caps a tenant's in-flight (admitted, not yet terminal)
	// jobs (default 8); Quotas overrides it per tenant. Submissions beyond
	// the quota are rejected with 429 + Retry-After.
	DefaultQuota int
	Quotas       map[string]int
	// Classes assigns tenants to a priority class ("high", "normal", "low";
	// default "normal"); ClassWeights sets the weighted-fair dequeue weight
	// of each class (defaults 4/2/1). A tenant's share of dispatch slots
	// under contention is proportional to its weight.
	Classes      map[string]string
	ClassWeights map[string]int

	// ProbeInterval is the health-probe cadence (default 500ms);
	// ProbeTimeout bounds one probe (default 2s). A backend that fails
	// FailThreshold consecutive probes (default 3) is declared dead and its
	// jobs migrate; while failing, re-probes back off exponentially from
	// ProbeInterval up to ProbeBackoffMax (default 4s).
	ProbeInterval   time.Duration
	ProbeTimeout    time.Duration
	FailThreshold   int
	ProbeBackoffMax time.Duration

	// WatchInterval is the reconciliation cadence: how often the coordinator
	// lists every backend's jobs to pick up terminal states it has not
	// observed through status proxying, and to cancel zombie copies left on
	// recovered backends (default 200ms).
	WatchInterval time.Duration

	// MaxMigrations bounds how many times one job may be migrated before it
	// is failed (default 3). DispatchRetry is the idle wait when no backend
	// can accept a job (default 50ms).
	MaxMigrations int
	DispatchRetry time.Duration

	// Client, when non-nil, overrides the HTTP client used for backend
	// calls (probes use a per-call timeout on top of it).
	Client *http.Client
}

func (c Config) withDefaults() Config {
	if c.DefaultQuota <= 0 {
		c.DefaultQuota = 8
	}
	if c.ClassWeights == nil {
		c.ClassWeights = map[string]int{"high": 4, "normal": 2, "low": 1}
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.ProbeBackoffMax <= 0 {
		c.ProbeBackoffMax = 4 * time.Second
	}
	if c.WatchInterval <= 0 {
		c.WatchInterval = 200 * time.Millisecond
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 3
	}
	if c.DispatchRetry <= 0 {
		c.DispatchRetry = 50 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// jstate is a fleet job's lifecycle state. "dispatching" (a dispatcher owns
// the job but the submit POST is in flight) is internal; the HTTP API
// reports it as "queued".
type jstate string

const (
	fQueued      jstate = "queued"
	fDispatching jstate = "dispatching"
	fRunning     jstate = "running"
	fCompleted   jstate = "completed"
	fFailed      jstate = "failed"
	fCancelled   jstate = "cancelled"
)

func (st jstate) terminal() bool {
	return st == fCompleted || st == fFailed || st == fCancelled
}

// public maps the internal state to the API vocabulary.
func (st jstate) public() string {
	if st == fDispatching {
		return string(fQueued)
	}
	return string(st)
}

// job is one coordinator-tracked job. All mutable fields are guarded by the
// coordinator mutex.
type job struct {
	ID     string
	Tenant string
	Spec   server.JobSpec // normalized; SharedKey = ID, Tenant set

	Ensemble string // owning ensemble ID ("" for plain jobs)
	Member   int

	State      jstate
	Backend    string // owning backend URL while dispatched
	BackendID  string // backend-local job ID
	Migrations int
	ErrMsg     string

	cancelRequested bool
	remote          *server.JobStatus // last observed backend status
	stepsDone       int               // high-water mark across backends

	submitted time.Time
	finished  time.Time
}

// ensemble is one fan-out of K perturbed members.
type ensemble struct {
	ID      string
	Tenant  string
	Spec    EnsembleSpec
	Members []string // fleet job IDs, member order

	submitted time.Time
}

// Coordinator is the fleet control plane. Create with New, expose with
// ServeHTTP, stop with Shutdown.
type Coordinator struct {
	cfg    Config
	store  *checkpoint.DirStore
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	backends  []*backend           //cadyvet:guardedby mu
	jobs      map[string]*job      //cadyvet:guardedby mu
	order     []string             //cadyvet:guardedby mu
	ensembles map[string]*ensemble //cadyvet:guardedby mu
	eorder    []string             //cadyvet:guardedby mu
	seq, eseq int                  //cadyvet:guardedby mu
	tenants   map[string]*tenantQ  //cadyvet:guardedby mu
	met       fleetMetrics         //cadyvet:guardedby mu

	// paused parks the dispatcher (test hook for deterministic queue
	// build-up before any dispatch).
	paused bool //cadyvet:guardedby mu

	kick chan struct{} // nudges the dispatcher when work arrives
}

// New builds the coordinator: opens the shared store, reloads fleet.json,
// probes every backend once, reconciles recovered jobs against what the
// backends report, and starts the dispatch/probe/watch loops.
//
//cadyvet:component
//cadyvet:unshared construction: c is unreachable by any other goroutine until the loops start on the last lines
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("fleet: Config.StoreDir is required")
	}
	store, err := checkpoint.NewDirStore(cfg.StoreDir)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		store:     store,
		client:    cfg.Client,
		jobs:      make(map[string]*job),
		ensembles: make(map[string]*ensemble),
		tenants:   make(map[string]*tenantQ),
		kick:      make(chan struct{}, 1),
		start:     time.Now(),
	}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	for _, u := range cfg.Backends {
		c.backends = append(c.backends, newBackend(u))
	}
	c.mux = http.NewServeMux()
	c.routes()
	if err := c.load(); err != nil {
		return nil, err
	}
	c.probeAll()
	c.reconcile()
	c.persist()
	c.wg.Add(3)
	go c.dispatcher()
	go c.prober()
	go c.watcher()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Shutdown stops the coordinator loops and persists routing state. Backends
// and their jobs are left untouched: a restarted coordinator reconciles.
//
//cadyvet:component
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.cancel()
	done := make(chan struct{})
	go func() {
		c.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	c.persist()
	return nil
}

// --- persistence -----------------------------------------------------------

// persistedJob is the durable form of a job record.
type persistedJob struct {
	ID         string         `json:"id"`
	Tenant     string         `json:"tenant"`
	Spec       server.JobSpec `json:"spec"`
	Ensemble   string         `json:"ensemble,omitempty"`
	Member     int            `json:"member,omitempty"`
	State      string         `json:"state"`
	Backend    string         `json:"backend,omitempty"`
	BackendID  string         `json:"backend_id,omitempty"`
	Migrations int            `json:"migrations,omitempty"`
	Error      string         `json:"error,omitempty"`
	StepsDone  int            `json:"steps_done,omitempty"`
}

type persistedEnsemble struct {
	ID      string       `json:"id"`
	Tenant  string       `json:"tenant"`
	Spec    EnsembleSpec `json:"spec"`
	Members []string     `json:"members"`
}

type persistedState struct {
	Seq       int                 `json:"seq"`
	ESeq      int                 `json:"eseq"`
	Jobs      []persistedJob      `json:"jobs"`
	Ensembles []persistedEnsemble `json:"ensembles"`
}

func (c *Coordinator) stateFile() string { return filepath.Join(c.cfg.StoreDir, "fleet.json") }

// persist durably writes the routing state (fleet.json, atomic).
func (c *Coordinator) persist() {
	c.mu.Lock()
	ps := persistedState{Seq: c.seq, ESeq: c.eseq}
	for _, id := range c.order {
		j := c.jobs[id]
		st := j.State
		if st == fDispatching {
			st = fQueued
		}
		ps.Jobs = append(ps.Jobs, persistedJob{
			ID: j.ID, Tenant: j.Tenant, Spec: j.Spec,
			Ensemble: j.Ensemble, Member: j.Member,
			State: string(st), Backend: j.Backend, BackendID: j.BackendID,
			Migrations: j.Migrations, Error: j.ErrMsg, StepsDone: j.stepsDone,
		})
	}
	for _, id := range c.eorder {
		e := c.ensembles[id]
		ps.Ensembles = append(ps.Ensembles, persistedEnsemble{
			ID: e.ID, Tenant: e.Tenant, Spec: e.Spec, Members: e.Members,
		})
	}
	c.mu.Unlock()
	b, err := json.MarshalIndent(ps, "", "  ")
	if err != nil {
		return
	}
	if err := checkpoint.WriteFileAtomic(c.stateFile(), b); err != nil {
		c.mu.Lock()
		c.met.persistErrors++
		c.mu.Unlock()
	}
}

// load reloads fleet.json (missing file = fresh fleet).
func (c *Coordinator) load() error {
	b, err := readFileIfExists(c.stateFile())
	if err != nil || b == nil {
		return err
	}
	var ps persistedState
	if err := json.Unmarshal(b, &ps); err != nil {
		return fmt.Errorf("fleet: corrupt state file %s: %w", c.stateFile(), err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq, c.eseq = ps.Seq, ps.ESeq
	for i := range ps.Jobs {
		pj := &ps.Jobs[i]
		j := &job{
			ID: pj.ID, Tenant: pj.Tenant, Spec: pj.Spec,
			Ensemble: pj.Ensemble, Member: pj.Member,
			State: jstate(pj.State), Backend: pj.Backend, BackendID: pj.BackendID,
			Migrations: pj.Migrations, ErrMsg: pj.Error, stepsDone: pj.StepsDone,
			submitted: time.Now(),
		}
		switch j.State {
		case fQueued, fRunning, fCompleted, fFailed, fCancelled:
		default:
			j.State = fQueued
		}
		c.jobs[j.ID] = j
		c.order = append(c.order, j.ID)
		// Rebuild the outcome counters so /metrics survives a restart.
		switch j.State {
		case fCompleted:
			c.met.completed++
		case fFailed:
			c.met.failed++
		case fCancelled:
			c.met.cancelled++
		}
		c.met.migrations += int64(j.Migrations)
	}
	for i := range ps.Ensembles {
		pe := &ps.Ensembles[i]
		e := &ensemble{ID: pe.ID, Tenant: pe.Tenant, Spec: pe.Spec, Members: pe.Members, submitted: time.Now()}
		c.ensembles[e.ID] = e
		c.eorder = append(c.eorder, e.ID)
	}
	return nil
}
