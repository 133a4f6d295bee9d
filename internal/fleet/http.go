package fleet

import (
	"errors"
	"net/http"
	"time"

	"cadycore/internal/server"
)

// JobInfo is the JSON view of a fleet job: the backend status vocabulary
// (id, state, steps_done, diagnostics, spec) plus the fleet routing fields,
// so clients written against cadyserved (any cadyserved client) work
// against the coordinator unchanged.
type JobInfo struct {
	ID        string `json:"id"`
	Tenant    string `json:"tenant"`
	State     string `json:"state"`
	StepsDone int    `json:"steps_done"`
	StepsWant int    `json:"steps_total"`

	Backend      string `json:"backend,omitempty"`
	BackendJobID string `json:"backend_job_id,omitempty"`
	Migrations   int    `json:"migrations,omitempty"`
	Ensemble     string `json:"ensemble,omitempty"`
	Member       *int   `json:"member,omitempty"`
	Error        string `json:"error,omitempty"`

	SubmittedAt string `json:"submitted_at"`
	FinishedAt  string `json:"finished_at,omitempty"`

	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`

	Spec server.JobSpec `json:"spec"`
}

// jobInfoLocked snapshots one job.
//
//cadyvet:locked c.mu
func (c *Coordinator) jobInfoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:           j.ID,
		Tenant:       j.Tenant,
		State:        string(j.State),
		StepsDone:    j.StepsDone,
		StepsWant:    j.Spec.Steps,
		Backend:      j.Backend,
		BackendJobID: j.BackendID,
		Migrations:   j.Migrations,
		Ensemble:     j.Ensemble,
		Error:        j.ErrMsg,
		SubmittedAt:  j.Submitted.UTC().Format(time.RFC3339Nano),
		FinishedAt:   j.Finished,
		Spec:         j.Spec,
	}
	if j.Ensemble != "" {
		m := j.Member
		info.Member = &m
	}
	if len(j.Diagnostics) > 0 {
		info.Diagnostics = j.Diagnostics
	}
	return info
}

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /jobs", c.handleList)
	c.mux.HandleFunc("GET /jobs/{id}", c.handleGet)
	c.mux.HandleFunc("POST /jobs/{id}/cancel", c.handleCancel)
	c.mux.HandleFunc("POST /ensembles", c.handleSubmitEnsemble)
	c.mux.HandleFunc("GET /ensembles", c.handleListEnsembles)
	c.mux.HandleFunc("GET /ensembles/{id}", c.handleGetEnsemble)
	c.mux.HandleFunc("GET /backends", c.handleBackends)
	c.mux.HandleFunc("POST /backends", c.handleRegisterBackend)
	c.mux.HandleFunc("POST /backends/drain", c.handleDrainBackend)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
}

// submitError passes a backend's refusal through with its status and
// Retry-After; anything else is a validation failure (400).
func submitError(w http.ResponseWriter, err error) {
	var r *Rejection
	if errors.As(err, &r) {
		if r.RetryAfter != "" {
			w.Header().Set("Retry-After", r.RetryAfter)
		}
		server.WriteError(w, r.Code, r.Msg)
		return
	}
	server.WriteError(w, http.StatusBadRequest, err.Error())
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	if err := server.DecodeStrict(r.Body, &spec); err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	j, err := c.SubmitJob(spec, r.Header.Get("X-Tenant"))
	if err != nil {
		submitError(w, err)
		return
	}
	c.mu.Lock()
	info := c.jobInfoLocked(j)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusAccepted, info)
}

// handleList folds in the current status of every backend that owns a
// placed job (one listing each), then pages the fleet's own job table,
// filtered by ?status= like a backend's.
func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	var filter server.JState
	if v := r.URL.Query().Get("status"); v != "" {
		var err error
		if filter, err = server.ParseJState(v); err != nil {
			server.WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	c.mu.Lock()
	var owners []string
	for _, b := range c.backends {
		if b.healthy && b.inflight > 0 {
			owners = append(owners, b.url)
		}
	}
	c.mu.Unlock()
	for _, url := range owners {
		c.syncBackend(url, false)
	}
	c.mu.Lock()
	all := make([]JobInfo, 0, len(c.order))
	for _, id := range c.order {
		info := c.jobInfoLocked(c.jobs[id])
		if filter == "" || info.State == string(filter) {
			all = append(all, info)
		}
	}
	c.mu.Unlock()
	server.WritePage(w, r, all)
}

// refresh fetches the live status of each placed job among js from its
// backend and folds it in; an unreachable backend leaves the cached view.
func (c *Coordinator) refresh(js ...*job) {
	type probe struct {
		j              *job
		url, backendID string
	}
	var probes []probe
	c.mu.Lock()
	for _, j := range js {
		if j.State == server.JRunning {
			probes = append(probes, probe{j, j.Backend, j.BackendID})
		}
	}
	c.mu.Unlock()
	var changed []stored
	for _, p := range probes {
		if st, err := c.fetchJob(p.url, p.backendID); err == nil {
			c.mu.Lock()
			if c.applyRemoteLocked(p.j, st) {
				changed = append(changed, p.j)
			}
			c.mu.Unlock()
		}
	}
	c.persist(changed...)
}

func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := c.GetJob(r.PathValue("id"))
	if !ok {
		server.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	c.refresh(j)
	c.mu.Lock()
	info := c.jobInfoLocked(j)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.GetJob(id); !ok {
		server.WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	if err := c.CancelJob(id); err != nil {
		server.WriteError(w, http.StatusConflict, err.Error())
		return
	}
	j, _ := c.GetJob(id)
	c.mu.Lock()
	info := c.jobInfoLocked(j)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleSubmitEnsemble(w http.ResponseWriter, r *http.Request) {
	var es EnsembleSpec
	if err := server.DecodeStrict(r.Body, &es); err != nil {
		server.WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
		return
	}
	e, err := c.SubmitEnsemble(es, r.Header.Get("X-Tenant"))
	if err != nil {
		submitError(w, err)
		return
	}
	c.mu.Lock()
	st := c.ensembleStatusLocked(e)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleListEnsembles(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]EnsembleStatus, 0, len(c.eorder))
	for _, id := range c.eorder {
		out = append(out, c.ensembleStatusLocked(c.ensembles[id]))
	}
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]any{"ensembles": out})
}

func (c *Coordinator) handleGetEnsemble(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	e := c.ensembles[r.PathValue("id")]
	var members []*job
	if e != nil {
		for _, id := range e.Members {
			members = append(members, c.jobs[id])
		}
	}
	c.mu.Unlock()
	if e == nil {
		server.WriteError(w, http.StatusNotFound, "no such ensemble")
		return
	}
	c.refresh(members...)
	c.mu.Lock()
	st := c.ensembleStatusLocked(e)
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, st)
}

// backendInfo is the JSON view of one backend's health.
type backendInfo struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	InFlight int    `json:"inflight"`
	Fails    int    `json:"consecutive_failures,omitempty"`
}

func (c *Coordinator) handleBackends(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]backendInfo, 0, len(c.backends))
	for _, b := range c.backends {
		out = append(out, backendInfo{b.url, b.healthy, b.inflight, b.fails})
	}
	c.mu.Unlock()
	server.WriteJSON(w, http.StatusOK, map[string]any{"backends": out})
}

// decodeBackendURL reads a {"url": ...} body naming a backend.
func decodeBackendURL(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req struct {
		URL string `json:"url"`
	}
	err := server.DecodeStrict(r.Body, &req)
	if err == nil {
		err = CheckBackendURL(req.URL)
	}
	if err != nil {
		server.WriteError(w, http.StatusBadRequest, `body must be {"url": "http://host:port"}: `+err.Error())
		return "", false
	}
	return newBackend(req.URL).url, true
}

// handleRegisterBackend adds a backend at runtime (the registration hook);
// it becomes eligible for placement after its first successful probe.
func (c *Coordinator) handleRegisterBackend(w http.ResponseWriter, r *http.Request) {
	url, ok := decodeBackendURL(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	known := c.findBackendLocked(url) != nil
	if !known {
		c.backends = append(c.backends, newBackend(url))
	}
	c.mu.Unlock()
	if known {
		server.WriteError(w, http.StatusConflict, "backend already registered")
		return
	}
	server.WriteJSON(w, http.StatusCreated, backendInfo{URL: url})
}

// handleDrainBackend forwards the drain hook to one backend: it stops
// accepting work, checkpoints and interrupts its running jobs, and its
// failing probes migrate them.
func (c *Coordinator) handleDrainBackend(w http.ResponseWriter, r *http.Request) {
	url, ok := decodeBackendURL(w, r)
	if !ok {
		return
	}
	c.mu.Lock()
	known := c.findBackendLocked(url) != nil
	c.mu.Unlock()
	if !known {
		server.WriteError(w, http.StatusNotFound, "no such backend")
		return
	}
	if err := c.post(url+"/drain", http.StatusAccepted); err != nil {
		server.WriteError(w, http.StatusBadGateway, err.Error())
		return
	}
	server.WriteJSON(w, http.StatusAccepted, map[string]any{"draining": url})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.ctx.Err() != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
