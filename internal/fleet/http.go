package fleet

import (
	"errors"
	"net/http"

	"cadycore/internal/server"
)

func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /jobs", c.handleSubmit)
	c.mux.HandleFunc("GET /jobs", c.handleList)
	c.mux.HandleFunc("GET /jobs/{id}", c.handleGet)
	c.mux.HandleFunc("POST /jobs/{id}/cancel", c.handleCancel)
	c.mux.HandleFunc("GET /backends", c.handleBackends)
	c.mux.HandleFunc("POST /backends", c.handleRegisterBackend)
	c.mux.HandleFunc("POST /backends/drain", c.handleDrainBackend)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", c.handleHealthz)
}

// view snapshots a job's record, which is its API view.
func (c *Coordinator) view(j *job) job {
	c.mu.Lock()
	defer c.mu.Unlock()
	return *j
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
	server.WriteJSON(w, http.StatusAccepted, c.view(j))
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
	all := make([]job, 0, len(c.order))
	for _, id := range c.order {
		if j := c.jobs[id]; filter == "" || j.State == filter {
			all = append(all, *j)
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
			probes = append(probes, probe{j, j.Backend, j.BackendJobID})
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
	server.WriteJSON(w, http.StatusOK, c.view(j))
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
	server.WriteJSON(w, http.StatusOK, c.view(j))
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
