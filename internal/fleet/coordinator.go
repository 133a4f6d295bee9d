package fleet

import (
	"errors"
	"fmt"
	"time"

	"cadycore/internal/server"
)

// SubmitJob admits one job for a tenant: quota check, fleet ID assignment
// (the ID doubles as the shared-store checkpoint key), tenant FIFO enqueue.
func (c *Coordinator) SubmitJob(spec server.JobSpec, tenant string) (*job, error) {
	if spec.SharedKey != "" {
		return nil, errors.New("fleet: shared_key is coordinator-assigned; leave it empty")
	}
	if tenant == "" {
		tenant = spec.Tenant
	}
	if tenant == "" {
		tenant = "default"
	}
	spec.Tenant = tenant
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	tq := c.tenant(tenant)
	if err := c.admitLocked(tq, 1); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	c.seq++
	j := &job{
		ID:        fmt.Sprintf("f-%06d", c.seq),
		Tenant:    tenant,
		Spec:      spec,
		State:     fQueued,
		submitted: time.Now(),
	}
	j.Spec.SharedKey = j.ID
	c.jobs[j.ID] = j
	c.order = append(c.order, j.ID)
	c.enqueueLocked(j)
	c.mu.Unlock()
	c.persist()
	return j, nil
}

// GetJob returns a job by fleet ID.
func (c *Coordinator) GetJob(id string) (*job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// CancelJob stops a job: queued jobs are cancelled in place, dispatched jobs
// are cancelled on their backend (the backend checkpoints at the boundary).
func (c *Coordinator) CancelJob(id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("fleet: no job %s", id)
	}
	if j.State.terminal() {
		st := j.State
		c.mu.Unlock()
		return fmt.Errorf("fleet: job %s is %s, not cancellable", id, st)
	}
	j.cancelRequested = true
	var url, backendID string
	switch j.State {
	case fQueued:
		c.dropQueuedLocked(j)
		c.finalizeLocked(j, fCancelled, "")
	case fRunning:
		url, backendID = j.Backend, j.BackendID
	}
	c.mu.Unlock()
	c.persist()
	if url != "" {
		// Best-effort: a dead backend's copy dies with it, and the watch
		// loop resolves the fleet state either way.
		return c.cancelBackendJob(url, backendID)
	}
	return nil
}

// --- dispatcher ------------------------------------------------------------

func (c *Coordinator) dispatcher() {
	defer c.wg.Done()
	// One reused timer instead of a time.After per retry round: on a busy
	// fleet the retry path is hot, and each time.After allocates a timer
	// that lingers until it fires even after the select moved on.
	retry := time.NewTimer(c.cfg.DispatchRetry)
	defer retry.Stop()
	for {
		c.mu.Lock()
		j := c.nextQueuedLocked()
		if j != nil {
			j.State = fDispatching
		}
		c.mu.Unlock()
		if j == nil {
			retry.Reset(c.cfg.DispatchRetry)
			select {
			case <-c.ctx.Done():
				return
			case <-c.kick:
			case <-retry.C:
			}
			continue
		}
		if !c.dispatch(j) {
			c.mu.Lock()
			if !j.State.terminal() {
				c.requeueFrontLocked(j)
				c.met.dispatchErrors++
			}
			c.mu.Unlock()
			retry.Reset(c.cfg.DispatchRetry)
			select {
			case <-c.ctx.Done():
				return
			case <-retry.C:
			}
		}
	}
}

// dispatch places one job on the best candidate backend, walking the
// rendezvous order on backpressure or connection errors.
func (c *Coordinator) dispatch(j *job) bool {
	c.mu.Lock()
	if j.cancelRequested {
		c.finalizeLocked(j, fCancelled, "")
		c.mu.Unlock()
		c.persist()
		return true
	}
	cands := c.candidatesLocked(j.ID)
	spec := j.Spec
	c.mu.Unlock()
	for _, url := range cands {
		st, err := c.submitToBackend(url, spec)
		if err != nil {
			if c.ctx.Err() != nil {
				return false
			}
			continue
		}
		c.mu.Lock()
		j.State = fRunning
		j.Backend = url
		j.BackendID = st.ID
		j.remote = st
		if b := c.findBackendLocked(url); b != nil {
			b.load++ // optimistic until the next scrape
		}
		c.met.dispatched++
		cancelled := j.cancelRequested
		c.mu.Unlock()
		c.persist()
		if cancelled {
			c.cancelBackendJob(url, st.ID)
		}
		return true
	}
	return false
}

// --- remote state handling -------------------------------------------------

// applyRemoteLocked folds an observed backend status into the fleet job,
// returning any follow-up persist need. Terminal backend states finalize
// the fleet job; an interrupted backend copy (drain) re-queues it for
// migration. Caller holds c.mu.
//
//cadyvet:locked c.mu
func (c *Coordinator) applyRemoteLocked(j *job, st *server.JobStatus) (changed bool) {
	if j.State != fRunning || st.ID != j.BackendID {
		// Not dispatched anymore (migrated or finalized while the fetch was
		// in flight) or a stale copy: ignore.
		return false
	}
	j.remote = st
	if st.StepsDone > j.stepsDone {
		j.stepsDone = st.StepsDone
	}
	switch st.State {
	case server.JCompleted:
		c.finalizeLocked(j, fCompleted, "")
		return true
	case server.JFailed:
		c.finalizeLocked(j, fFailed, st.Error)
		return true
	case server.JCancelled:
		if j.cancelRequested {
			c.finalizeLocked(j, fCancelled, "")
		} else {
			// Cancelled out of band (operator on the backend): migrate, the
			// shared checkpoint keeps the work done so far.
			c.migrateLocked(j, "backend copy cancelled")
		}
		return true
	case server.JInterrupted:
		if j.cancelRequested {
			c.finalizeLocked(j, fCancelled, "")
		} else {
			// The backend drained: move the job elsewhere.
			c.migrateLocked(j, "backend drained")
		}
		return true
	}
	return false
}

// finalizeLocked moves a job to a terminal state and releases its quota
// slot. Caller holds c.mu.
//
//cadyvet:locked c.mu
func (c *Coordinator) finalizeLocked(j *job, st jstate, errMsg string) {
	if j.State.terminal() {
		return
	}
	j.State = st
	j.ErrMsg = errMsg
	j.finished = time.Now()
	c.releaseLocked(j)
	switch st {
	case fCompleted:
		c.met.completed++
	case fFailed:
		c.met.failed++
	case fCancelled:
		c.met.cancelled++
	}
}

// migrateLocked re-queues a non-terminal job for dispatch on another
// backend, charging its migration budget. The new backend resumes from the
// newest shared-store checkpoint (or the initial state when the job never
// reached one). Caller holds c.mu.
//
//cadyvet:locked c.mu
func (c *Coordinator) migrateLocked(j *job, reason string) {
	if j.State.terminal() {
		return
	}
	if j.cancelRequested {
		c.finalizeLocked(j, fCancelled, "")
		return
	}
	j.Migrations++
	c.met.migrations++
	if j.Migrations > c.cfg.MaxMigrations {
		c.finalizeLocked(j, fFailed, fmt.Sprintf("migration budget %d exhausted (%s)", c.cfg.MaxMigrations, reason))
		return
	}
	c.requeueFrontLocked(j)
}

// --- prober ----------------------------------------------------------------

func (c *Coordinator) prober() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.ProbeInterval / 2)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		c.probeDue()
	}
}

// probeDue probes every backend whose next-probe time has arrived and
// applies the results; a backend crossing the failure threshold has its
// jobs migrated.
func (c *Coordinator) probeDue() {
	now := time.Now()
	c.mu.Lock()
	var due []string
	for _, b := range c.backends {
		if !b.nextProbe.After(now) {
			due = append(due, b.url)
		}
	}
	c.mu.Unlock()
	for _, url := range due {
		c.probeBackend(url)
	}
}

// probeBackend runs one probe round for one backend.
func (c *Coordinator) probeBackend(url string) {
	ok, load, capacity, counters := c.probeOnce(url)
	now := time.Now()
	c.mu.Lock()
	b := c.findBackendLocked(url)
	if b == nil {
		c.mu.Unlock()
		return
	}
	b.probes++
	if ok {
		wasDown := !b.healthy
		b.healthy = true
		b.fails = 0
		b.backoff = 0
		b.nextProbe = now.Add(c.cfg.ProbeInterval)
		b.load = load
		b.capacity = capacity
		if counters != nil {
			b.counters = counters
		}
		c.mu.Unlock()
		if wasDown {
			// The backend may hold zombie copies of jobs migrated while it
			// was away; the watcher cancels them on its next pass.
			c.kickDispatch()
		}
		return
	}
	b.probeFails++
	b.fails++
	if b.backoff == 0 {
		b.backoff = c.cfg.ProbeInterval
	} else {
		b.backoff *= 2
		if b.backoff > c.cfg.ProbeBackoffMax {
			b.backoff = c.cfg.ProbeBackoffMax
		}
	}
	b.nextProbe = now.Add(b.backoff)
	died := b.healthy && b.fails >= c.cfg.FailThreshold
	if died {
		b.healthy = false
		for _, id := range c.order {
			j := c.jobs[id]
			if j.Backend == url && !j.State.terminal() && j.State != fQueued {
				c.migrateLocked(j, "backend "+url+" unhealthy")
			}
		}
	}
	c.mu.Unlock()
	if died {
		c.persist()
	}
}

// probeAll synchronously probes every backend once (startup).
func (c *Coordinator) probeAll() {
	c.mu.Lock()
	urls := make([]string, len(c.backends))
	for i, b := range c.backends {
		urls[i] = b.url
	}
	c.mu.Unlock()
	for _, url := range urls {
		ok, load, capacity, counters := c.probeOnce(url)
		c.mu.Lock()
		if b := c.findBackendLocked(url); b != nil {
			b.probes++
			b.healthy = ok
			b.load, b.capacity = load, capacity
			if counters != nil {
				b.counters = counters
			}
			b.nextProbe = time.Now().Add(c.cfg.ProbeInterval)
			if !ok {
				b.fails = c.cfg.FailThreshold
				b.probeFails++
			}
		}
		c.mu.Unlock()
	}
}

// --- watcher ---------------------------------------------------------------

func (c *Coordinator) watcher() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.WatchInterval)
	defer t.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-t.C:
		}
		c.watchOnce()
	}
}

// watchOnce reconciles fleet state against every healthy backend's job list:
// it folds in terminal states the status proxy has not seen and cancels
// zombie copies (a migrated job's original backend came back and still holds
// a live copy).
func (c *Coordinator) watchOnce() {
	c.mu.Lock()
	var urls []string
	for _, b := range c.backends {
		if b.healthy {
			urls = append(urls, b.url)
		}
	}
	c.mu.Unlock()

	type zombie struct{ url, backendID string }
	var zombies []zombie
	changed := false
	for _, url := range urls {
		list, err := c.listBackendJobs(url)
		if err != nil {
			continue
		}
		c.mu.Lock()
		for i := range list {
			st := &list[i]
			key := st.Spec.SharedKey
			if key == "" {
				continue
			}
			j, ok := c.jobs[key]
			if !ok {
				continue
			}
			if j.State == fRunning && j.Backend == url && j.BackendID == st.ID {
				if c.applyRemoteLocked(j, st) {
					changed = true
				}
				continue
			}
			// A copy of a fleet job on a backend that does not own it: a
			// zombie from a migration. Cancel live copies; ignore dead ones.
			// While the dispatcher holds the job, the copy may be the one it
			// just placed (POST answered, Backend/BackendID not yet committed);
			// a real zombie is still here on the next pass, once the job runs.
			owns := j.State == fRunning && j.Backend == url
			if !owns && j.State != fDispatching && !st.State.Terminal() {
				zombies = append(zombies, zombie{url, st.ID})
			}
		}
		c.mu.Unlock()
	}
	for _, z := range zombies {
		c.cancelBackendJob(z.url, z.backendID)
	}
	if changed {
		c.persist()
	}
}

// --- startup reconciliation ------------------------------------------------

// reconcile adopts recovered state after a coordinator restart: dispatched
// jobs found on their backend adopt its current state; dispatched jobs whose
// backend is gone (or no longer knows them) are re-queued; queued jobs go
// back into their tenant FIFOs; admission bookkeeping is rebuilt from the
// resulting states. No job is dispatched twice: the backend copy keeps
// running untouched through a coordinator restart.
func (c *Coordinator) reconcile() {
	// One listing per healthy backend, outside the lock.
	byBackend := make(map[string]map[string][]server.JobStatus) // url -> shared_key -> statuses
	c.mu.Lock()
	var urls []string
	for _, b := range c.backends {
		if b.healthy {
			urls = append(urls, b.url)
		}
	}
	c.mu.Unlock()
	for _, url := range urls {
		list, err := c.listBackendJobs(url)
		if err != nil {
			continue
		}
		m := make(map[string][]server.JobStatus)
		for _, st := range list {
			if st.Spec.SharedKey != "" {
				m[st.Spec.SharedKey] = append(m[st.Spec.SharedKey], st)
			}
		}
		byBackend[url] = m
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range c.order {
		j := c.jobs[id]
		if j.State.terminal() {
			continue
		}
		if j.State == fRunning {
			var found *server.JobStatus
			if m := byBackend[j.Backend]; m != nil {
				for i := range m[j.ID] {
					if m[j.ID][i].ID == j.BackendID {
						found = &m[j.ID][i]
					}
				}
			}
			switch {
			case found == nil:
				c.migrateLocked(j, "backend lost across coordinator restart")
			default:
				j.remote = found
				if found.StepsDone > j.stepsDone {
					j.stepsDone = found.StepsDone
				}
				switch found.State {
				case server.JCompleted:
					c.finalizeLocked(j, fCompleted, "")
				case server.JFailed:
					c.finalizeLocked(j, fFailed, found.Error)
				case server.JCancelled:
					c.finalizeLocked(j, fCancelled, "")
				case server.JInterrupted:
					c.migrateLocked(j, "backend drained while coordinator was down")
					// default: still queued/running/retrying there — adopt as-is.
				}
			}
		} else if j.State == fQueued {
			// Back into its tenant FIFO (quota is rebuilt below).
			tq := c.tenant(j.Tenant)
			tq.fifo = append(tq.fifo, j)
		}
	}
	// Rebuild quota accounting from the reconciled states.
	for _, tq := range c.tenants {
		tq.inflight = 0
	}
	for _, id := range c.order {
		j := c.jobs[id]
		if !j.State.terminal() {
			c.tenant(j.Tenant).inflight++
		}
	}
	c.kickDispatch()
}
