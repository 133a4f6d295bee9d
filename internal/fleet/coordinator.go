package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"time"

	"cadycore/internal/server"
)

// SubmitJob places one job for a tenant: it assigns the fleet ID (which
// doubles as the shared-store checkpoint key) and submits the job to a
// backend before returning. When no backend admits it, the error is the
// backends' rejection (*Rejection) to pass through.
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
	c.ids.Seq++
	j := &job{ID: fmt.Sprintf("f-%06d", c.ids.Seq), Tenant: tenant, Spec: spec, Submitted: wallNow()}
	ids := &c.ids
	c.mu.Unlock()
	c.persist(ids) // the ID is durable before a backend sees it
	j.Spec.SharedKey = j.ID
	url, st, err := c.place(j.ID, j.Spec)
	if err != nil {
		return nil, err
	}
	j.State, j.Backend, j.BackendJobID, j.remote = server.JRunning, url, st.ID, st
	j.StepsTotal = st.StepsWant
	c.mu.Lock()
	c.registerLocked(j)
	c.mu.Unlock()
	c.persist(j)
	return j, nil
}

// GetJob returns a job by fleet ID.
func (c *Coordinator) GetJob(id string) (*job, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	return j, ok
}

// CancelJob stops a job: one waiting for a backend is cancelled in place, a
// placed one is cancelled on its backend (which checkpoints at the boundary;
// the fleet job reads cancelled once that is observed).
func (c *Coordinator) CancelJob(id string) error {
	c.mu.Lock()
	j, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("fleet: no job %s", id)
	}
	if j.State.Terminal() {
		st := j.State
		c.mu.Unlock()
		return fmt.Errorf("fleet: job %s is %s, not cancellable", id, st)
	}
	j.cancelRequested = true
	var url, backendID string
	switch j.State {
	case server.JQueued:
		c.finalizeLocked(j, server.JCancelled, "")
	case server.JRunning:
		url, backendID = j.Backend, j.BackendJobID
	}
	c.mu.Unlock()
	c.persist(j)
	if url != "" {
		// Best-effort: a dead backend's copy dies with it.
		return c.cancelBackendJob(url, backendID)
	}
	return nil
}

// --- placement ---------------------------------------------------------------

// place offers a job to the healthy backends in placement order until one
// admits it, and charges that backend one in-flight job. When none does, the
// error is the rejection to pass through: a backend's 429 with its
// Retry-After when any answered so, else the first other refusal, else 503.
func (c *Coordinator) place(id string, spec server.JobSpec) (string, *server.JobStatus, error) {
	c.mu.Lock()
	cands := c.candidatesLocked(id)
	c.mu.Unlock()
	var rej *Rejection
	for _, url := range cands {
		st, err := c.submitToBackend(url, spec)
		if err == nil {
			c.mu.Lock()
			if b := c.findBackendLocked(url); b != nil {
				b.inflight++
			}
			c.met.dispatched++
			c.mu.Unlock()
			return url, st, nil
		}
		var r *Rejection
		if errors.As(err, &r) && (rej == nil || r.Code == http.StatusTooManyRequests && rej.Code != r.Code) {
			rej = r
		}
	}
	c.mu.Lock()
	c.met.dispatchErrors++
	c.mu.Unlock()
	if rej == nil {
		rej = &Rejection{Code: http.StatusServiceUnavailable, RetryAfter: "1", Msg: "fleet: no healthy backend"}
	}
	return "", nil, rej
}

// unplace withdraws a copy the fleet will not track (a migration cancelled
// while it was being placed).
func (c *Coordinator) unplace(url, backendID string) {
	c.cancelBackendJob(url, backendID)
	c.mu.Lock()
	if b := c.findBackendLocked(url); b != nil && b.inflight > 0 {
		b.inflight--
	}
	c.mu.Unlock()
}

// placePending places the jobs waiting for a backend (migrations no backend
// has accepted yet), oldest first, until a placement fails.
func (c *Coordinator) placePending() {
	c.mu.Lock()
	var pending []*job
	for _, id := range c.order {
		if j := c.jobs[id]; j.State == server.JQueued {
			pending = append(pending, j)
		}
	}
	c.mu.Unlock()
	for _, j := range pending {
		url, st, err := c.place(j.ID, j.Spec)
		if err != nil {
			break
		}
		c.mu.Lock()
		placed := j.State == server.JQueued
		if placed {
			j.State, j.Backend, j.BackendJobID, j.remote = server.JRunning, url, st.ID, st
		}
		c.mu.Unlock()
		if placed {
			c.persist(j)
		} else { // cancelled meanwhile
			c.unplace(url, st.ID)
		}
	}
}

// --- remote state handling -------------------------------------------------

// applyRemoteLocked folds an observed status of the job's own backend copy
// into the fleet job. Terminal backend states finalize the fleet job; a copy
// cancelled out of band or interrupted by a drain migrates it. It reports
// whether the job's state changed.
//
//cadyvet:locked c.mu
func (c *Coordinator) applyRemoteLocked(j *job, st *server.JobStatus) (changed bool) {
	if j.State != server.JRunning || st.ID != j.BackendJobID {
		// Migrated or finalized while the fetch was in flight: ignore.
		return false
	}
	j.remote = st
	if st.StepsDone > j.StepsDone {
		j.StepsDone = st.StepsDone
	}
	switch st.State {
	case server.JCompleted:
		c.finalizeLocked(j, server.JCompleted, "")
	case server.JFailed:
		c.finalizeLocked(j, server.JFailed, st.Error)
	case server.JCancelled, server.JInterrupted:
		if j.cancelRequested {
			c.finalizeLocked(j, server.JCancelled, "")
		} else {
			// The shared checkpoint keeps the work done so far.
			c.migrateLocked(j, "backend copy "+string(st.State))
		}
	default:
		return false
	}
	return true
}

// leaveLocked takes a placed job off its backend's in-flight count.
//
//cadyvet:locked c.mu
func (c *Coordinator) leaveLocked(j *job) {
	if j.State != server.JRunning {
		return
	}
	if b := c.findBackendLocked(j.Backend); b != nil && b.inflight > 0 {
		b.inflight--
	}
}

// finalizeLocked moves a job to a terminal state.
//
//cadyvet:locked c.mu
func (c *Coordinator) finalizeLocked(j *job, st server.JState, errMsg string) {
	if j.State.Terminal() {
		return
	}
	c.leaveLocked(j)
	j.State = st
	j.Error = errMsg
	j.Finished = wallNow().Format(time.RFC3339Nano)
	if j.remote != nil { // nothing reads a finished job's backend status but these
		j.Diagnostics, j.remote = j.remote.Diagnostics, nil
	}
	switch st {
	case server.JCompleted:
		c.met.completed++
	case server.JFailed:
		c.met.failed++
	case server.JCancelled:
		c.met.cancelled++
	}
}

// migrateLocked takes a non-terminal job off its backend to wait for another,
// charging its migration budget. The new backend resumes from the newest
// shared-store checkpoint (or the initial state when the job never reached
// one).
//
//cadyvet:locked c.mu
func (c *Coordinator) migrateLocked(j *job, reason string) {
	if j.State.Terminal() {
		return
	}
	if j.cancelRequested {
		c.finalizeLocked(j, server.JCancelled, "")
		return
	}
	j.Migrations++
	c.met.migrations++
	if j.Migrations > c.cfg.MaxMigrations {
		c.finalizeLocked(j, server.JFailed, fmt.Sprintf("migration budget %d exhausted (%s)", c.cfg.MaxMigrations, reason))
		return
	}
	c.leaveLocked(j)
	j.State, j.Backend, j.BackendJobID, j.remote = server.JQueued, "", "", nil
}

// --- prober ----------------------------------------------------------------

// prober is the coordinator's one background goroutine: each tick it probes
// the backends that are due and places the jobs waiting for a backend.
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
		c.placePending()
	}
}

// probeDue probes every backend whose next-probe time has arrived.
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

// probeBackend runs one probe of one backend. A backend crossing the failure
// threshold has its jobs migrated; one coming back has the zombie copies a
// migration left there cancelled.
func (c *Coordinator) probeBackend(url string) {
	ok := c.probeOnce(url)
	now := time.Now()
	c.mu.Lock()
	b := c.findBackendLocked(url)
	if b == nil {
		c.mu.Unlock()
		return
	}
	if ok {
		recovered := !b.healthy
		b.healthy, b.fails, b.backoff = true, 0, 0
		b.nextProbe = now.Add(c.cfg.ProbeInterval)
		c.mu.Unlock()
		if recovered {
			c.syncBackend(url, true)
		}
		return
	}
	b.fails++
	b.backoff = min(max(2*b.backoff, c.cfg.ProbeInterval), probeBackoffMax)
	b.nextProbe = now.Add(b.backoff)
	var moved []stored
	if b.healthy && b.fails >= c.cfg.FailThreshold {
		b.healthy = false
		for _, id := range c.order {
			if j := c.jobs[id]; j.State == server.JRunning && j.Backend == url {
				c.migrateLocked(j, "backend "+url+" unhealthy")
				moved = append(moved, j)
			}
		}
	}
	c.mu.Unlock()
	c.persist(moved...)
}

// --- reconciliation against a backend's job list ---------------------------

// syncBackend lists one backend's jobs and folds them in: each copy the
// backend owns updates its fleet job (applyRemoteLocked). With
// cancelZombies it also cancels the live copies of fleet jobs the backend
// does not own — zombies a migration left. Only the prober's goroutine (and
// startup) may cancel: it makes the only placements of registered jobs, so
// anywhere else a copy being placed could pass for a zombie.
func (c *Coordinator) syncBackend(url string, cancelZombies bool) {
	list, err := c.listBackendJobs(url)
	if err != nil {
		return
	}
	var zombies []string
	var changed []stored
	c.mu.Lock()
	for i := range list {
		st := &list[i]
		j := c.jobs[st.Spec.SharedKey]
		switch {
		case j == nil: // not a fleet job, or one still being placed
		case j.State == server.JRunning && j.Backend == url && j.BackendJobID == st.ID:
			if c.applyRemoteLocked(j, st) {
				changed = append(changed, j)
			}
		case cancelZombies && !st.State.Terminal():
			zombies = append(zombies, st.ID)
		}
	}
	c.mu.Unlock()
	for _, id := range zombies {
		c.cancelBackendJob(url, id)
	}
	c.persist(changed...)
}

// reconcile adopts recovered state after a coordinator restart. Probing
// every backend syncs each healthy one: placed jobs found there adopt their
// copy's state (a completed copy completes, a running one keeps running with
// no second submission, a drained one migrates) and zombie copies are
// cancelled. Placed jobs whose copy was not seen — their remote status is
// still unset — migrate.
func (c *Coordinator) reconcile() {
	c.mu.Lock()
	urls := make([]string, len(c.backends))
	for i, b := range c.backends {
		urls[i] = b.url
	}
	c.mu.Unlock()
	for _, url := range urls {
		c.probeBackend(url)
	}
	var moved []stored
	c.mu.Lock()
	for _, id := range c.order {
		if j := c.jobs[id]; j.State == server.JRunning && j.remote == nil {
			c.migrateLocked(j, "backend lost across coordinator restart")
			moved = append(moved, j)
		}
	}
	c.mu.Unlock()
	c.persist(moved...)
}
