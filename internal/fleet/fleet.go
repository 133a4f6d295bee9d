// Package fleet is the routing layer over N cadyserved backends: a
// coordinator that serves the same HTTP/JSON job API and places each job on
// a backend while answering its submission — the backend with the fewest of
// the coordinator's own in-flight jobs first, rendezvous hashing of the job
// ID breaking ties. Admission is the backends' own (internal/server: tenant
// quotas, priority classes, the bounded queue); the coordinator keeps no
// queue and passes a backend's 429 + Retry-After through when none accepts.
// It persists job→backend routing, one record per job, in a shared artifact
// store (checkpoint.DirStore), the one home of every fleet job's checkpoints, so
// when a backend dies — detected by health probes with exponential backoff —
// its jobs migrate to a live backend and resume bitwise from the latest
// shared checkpoint (a snapshot is the whole carried state). On top of
// routing it fans one JobSpec into K perturbed ensemble members and
// aggregates their diagnostics.
//
//cadyvet:persistence per-job, per-ensemble and ID-counter records under StoreDir/fleet survive coordinator restarts; durable writes route through checkpoint.WriteFileAtomic and MkdirDurable
package fleet

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
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
	// own routing state under StoreDir/fleet.
	StoreDir string

	// ProbeInterval is the health-probe cadence (default 500ms). A backend
	// that fails FailThreshold consecutive probes (default 3) is declared
	// dead and its jobs migrate; while failing, re-probes back off
	// exponentially from ProbeInterval up to probeBackoffMax.
	ProbeInterval time.Duration
	FailThreshold int

	// MaxMigrations bounds how many times one job may be migrated before it
	// is failed (default 3).
	MaxMigrations int

	// Client, when non-nil, overrides the HTTP client used for backend
	// calls (probes use a per-call timeout on top of it).
	Client *http.Client
}

const (
	probeTimeout    = 2 * time.Second // bound on one health probe
	probeBackoffMax = 4 * time.Second // cap on a failing backend's re-probe backoff
)

func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.MaxMigrations <= 0 {
		c.MaxMigrations = 3
	}
	if c.Client == nil {
		c.Client = &http.Client{}
	}
	return c
}

// job is one coordinator-tracked job; its exported fields are its durable
// record. All mutable fields are guarded by the coordinator
// mutex; ID, Tenant and Spec are immutable.
type job struct {
	ID     string         `json:"id"`
	Tenant string         `json:"tenant"`
	Spec   server.JobSpec `json:"spec"` // normalized; SharedKey = ID, Tenant set

	Ensemble string `json:"ensemble,omitempty"` // owning ensemble ID ("" for plain jobs)
	Member   int    `json:"member,omitempty"`

	// State is the job's lifecycle state in the service's vocabulary. A
	// fleet job is queued (waiting for a backend: a migration no backend has
	// accepted yet, which the prober retries every tick), running (placed on
	// Backend as BackendID), or completed, failed or cancelled; never
	// interrupted or retrying, since a stopped backend copy migrates instead.
	State      server.JState `json:"state"`
	Backend    string        `json:"backend,omitempty"`    // owning backend URL once placed
	BackendID  string        `json:"backend_id,omitempty"` // backend-local job ID
	Migrations int           `json:"migrations,omitempty"`
	ErrMsg     string        `json:"error,omitempty"`
	StepsDone  int           `json:"steps_done,omitempty"` // high-water mark across backends
	Submitted  time.Time     `json:"submitted_at"`
	// Finished (RFC 3339, UTC) and Diagnostics are set when the job reaches
	// a terminal state: its finish time and its backend copy's final
	// diagnostics.
	Finished    string             `json:"finished_at,omitempty"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`

	cancelRequested bool
	// remote is the last observed status of the backend copy; nil after a
	// restart until the startup reconcile finds the copy.
	remote *server.JobStatus
}

// ensemble is one fan-out of K perturbed members.
type ensemble struct {
	ID        string       `json:"id"`
	Tenant    string       `json:"tenant"`
	Spec      EnsembleSpec `json:"spec"`
	Members   []string     `json:"members"` // fleet job IDs, member order
	Submitted time.Time    `json:"submitted_at"`
}

// Coordinator is the fleet control plane. Create with New, expose with
// ServeHTTP, stop with Shutdown.
type Coordinator struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux
	start  time.Time

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	// persistMu serialises persist, marshal and write together, so records
	// reach the disk in the order they were marshalled. Taken before mu,
	// never while holding it.
	persistMu sync.Mutex

	mu        sync.Mutex
	backends  []*backend           //cadyvet:guardedby mu
	jobs      map[string]*job      //cadyvet:guardedby mu
	order     []string             //cadyvet:guardedby mu
	ensembles map[string]*ensemble //cadyvet:guardedby mu
	eorder    []string             //cadyvet:guardedby mu
	ids       counters             //cadyvet:guardedby mu
	met       fleetMetrics         //cadyvet:guardedby mu
}

// New builds the coordinator: opens the shared store, reloads its records,
// probes every backend once, reconciles recovered jobs against what the
// backends report, and starts the one background goroutine, the prober.
//
//cadyvet:unshared construction: c is unreachable by any other goroutine until the prober starts on the last lines
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.withDefaults()
	if cfg.StoreDir == "" {
		return nil, fmt.Errorf("fleet: Config.StoreDir is required")
	}
	for _, u := range cfg.Backends {
		if err := CheckBackendURL(u); err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		client:    cfg.Client,
		jobs:      make(map[string]*job),
		ensembles: make(map[string]*ensemble),
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
	c.reconcile()
	c.wg.Add(1)
	go c.prober()
	return c, nil
}

// ServeHTTP implements http.Handler.
func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) { c.mux.ServeHTTP(w, r) }

// Shutdown stops the prober and writes the running jobs' records, whose
// progress (steps_done) no event writes; every other change is already
// durable. Backends and their jobs are left untouched: a restarted
// coordinator reconciles.
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
	var running []stored
	c.mu.Lock()
	for _, id := range c.order {
		if j := c.jobs[id]; j.State == server.JRunning {
			running = append(running, j)
		}
	}
	c.mu.Unlock()
	return c.persist(running...)
}

// --- persistence -----------------------------------------------------------

// wallNow is time.Now in UTC, which drops its monotonic reading: a job's
// times are persisted and read back, and must compare the same after a
// restart.
func wallNow() time.Time { return time.Now().UTC() }

// stored is a record with a file of its own under StoreDir/fleet.
type stored interface{ recordName() string }

func (j *job) recordName() string      { return "job-" + j.ID }
func (e *ensemble) recordName() string { return "ensemble-" + e.ID }
func (*counters) recordName() string   { return "ids" }

// counters are the last job and ensemble IDs handed out, written before a
// backend sees the new ID: a failed submit's withdrawn copies may have
// checkpointed under it, and a restart must not hand those to another job.
type counters struct {
	Seq  int `json:"seq"`
	ESeq int `json:"eseq"`
}

func (c *Coordinator) recordDir() string { return filepath.Join(c.cfg.StoreDir, "fleet") }

// writeState is the durable write of one record; tests wrap it to hold a
// write back and interleave two persists, or to count what an event writes.
var writeState = checkpoint.WriteFileAtomic

// persist durably writes the records an event changed, so an event costs the
// same however many jobs the fleet holds. They are marshalled under mu and
// written outside it, but inside persistMu, so an older record of a job never
// renames over a newer one. They land in argument order until one fails (an
// ensemble behind its members); a failure counts in persistErrors.
func (c *Coordinator) persist(recs ...stored) (err error) {
	if len(recs) == 0 {
		return nil
	}
	c.persistMu.Lock()
	defer c.persistMu.Unlock()
	files := make([][]byte, len(recs))
	c.mu.Lock()
	for i := 0; err == nil && i < len(recs); i++ {
		files[i], err = json.MarshalIndent(recs[i], "", "  ")
	}
	c.mu.Unlock()
	for i := 0; err == nil && i < len(recs); i++ {
		err = writeState(filepath.Join(c.recordDir(), recs[i].recordName()+".json"), files[i])
	}
	if err != nil {
		c.mu.Lock()
		c.met.persistErrors++
		c.mu.Unlock()
	}
	return err
}

// load rebuilds the fleet from its records (none: a fresh fleet) in
// submission order. It rebuilds the outcome counters so /metrics survives a
// restart and the backends' in-flight counts so placement does; the ID
// counters are a record of their own, written ahead of every record of an ID.
func (c *Coordinator) load() error {
	err := checkpoint.MkdirDurable(c.recordDir())
	if err == nil {
		err = c.migrateLegacy()
	}
	var ids []*counters
	var js []*job
	var es []*ensemble
	if err == nil {
		ids, err = readRecords[counters](c.recordDir(), "ids.json")
	}
	if err == nil {
		js, err = readRecords[job](c.recordDir(), "job-*.json")
	}
	if err == nil {
		es, err = readRecords[ensemble](c.recordDir(), "ensemble-*.json")
	}
	// Submission order: by time, then ID (an ensemble's members share its time).
	slices.SortFunc(js, func(a, b *job) int { return cmp.Or(a.Submitted.Compare(b.Submitted), strings.Compare(a.ID, b.ID)) })
	slices.SortFunc(es, func(a, b *ensemble) int { return cmp.Or(a.Submitted.Compare(b.Submitted), strings.Compare(a.ID, b.ID)) })
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(ids) == 1 {
		c.ids = *ids[0]
	}
	for _, j := range js {
		switch j.State {
		case server.JCompleted:
			c.met.completed++
		case server.JFailed:
			c.met.failed++
		case server.JCancelled:
			c.met.cancelled++
		case server.JRunning:
			if b := c.findBackendLocked(j.Backend); b != nil {
				b.inflight++
			}
		default: // queued, or unknown: wait for placement
			j.State, j.Backend, j.BackendID = server.JQueued, "", ""
		}
		c.met.migrations += int64(j.Migrations)
		c.addLocked(j)
	}
	for _, e := range es {
		c.ensembles[e.ID] = e
		c.eorder = append(c.eorder, e.ID)
	}
	return err
}

// readRecords decodes the record files in dir matching pattern, in name order.
func readRecords[T any](dir, pattern string) (recs []*T, err error) {
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	for _, name := range names {
		rec := new(T)
		b, err := os.ReadFile(name)
		if err = cmp.Or(err, json.Unmarshal(b, rec)); err != nil {
			return nil, fmt.Errorf("fleet: record %s: %w", name, err)
		}
		recs = append(recs, rec)
	}
	return recs, err
}

// migrateLegacy splits a fleet.json (the whole-state file older coordinators
// rewrote on every event) into records once and removes it; a record written
// before records carried their submission time is dated by the file's mtime.
func (c *Coordinator) migrateLegacy() error {
	path := filepath.Join(c.cfg.StoreDir, "fleet.json")
	fi, err := os.Stat(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	var b []byte
	var st struct {
		counters
		Jobs      []*job
		Ensembles []*ensemble
	}
	if err == nil {
		b, err = os.ReadFile(path)
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	recs := []stored{&st.counters}
	for _, j := range st.Jobs {
		j.Submitted = cmp.Or(j.Submitted, fi.ModTime().UTC())
		recs = append(recs, j)
	}
	for _, e := range st.Ensembles {
		e.Submitted = cmp.Or(e.Submitted, fi.ModTime().UTC())
		recs = append(recs, e)
	}
	if err == nil {
		err = c.persist(recs...)
	}
	if err == nil {
		err = os.Remove(path)
	}
	if err == nil {
		return checkpoint.SyncDir(c.cfg.StoreDir)
	}
	return fmt.Errorf("fleet: migrating %s: %w", path, err)
}

// addLocked registers a job.
//
//cadyvet:locked c.mu
func (c *Coordinator) addLocked(j *job) {
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
}

// registerLocked adds freshly placed jobs. One whose backend was declared
// dead while its placement was in flight migrates at once: the prober
// migrated only the jobs it could see.
//
//cadyvet:locked c.mu
func (c *Coordinator) registerLocked(js ...*job) {
	for _, j := range js {
		c.addLocked(j)
		if b := c.findBackendLocked(j.Backend); b == nil || !b.healthy {
			c.migrateLocked(j, "backend "+j.Backend+" unhealthy")
		}
	}
}
