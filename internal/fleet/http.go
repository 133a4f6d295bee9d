package fleet

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
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

// jobInfoLocked snapshots one job. Caller holds c.mu.
//
//cadyvet:locked c.mu
func (c *Coordinator) jobInfoLocked(j *job) JobInfo {
	info := JobInfo{
		ID:           j.ID,
		Tenant:       j.Tenant,
		State:        j.State.public(),
		StepsDone:    j.stepsDone,
		StepsWant:    j.Spec.Steps,
		Backend:      j.Backend,
		BackendJobID: j.BackendID,
		Migrations:   j.Migrations,
		Ensemble:     j.Ensemble,
		Error:        j.ErrMsg,
		SubmittedAt:  j.submitted.UTC().Format(time.RFC3339Nano),
		Spec:         j.Spec,
	}
	if j.Ensemble != "" {
		m := j.Member
		info.Member = &m
	}
	if !j.finished.IsZero() {
		info.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.remote != nil && len(j.remote.Diagnostics) > 0 {
		info.Diagnostics = j.remote.Diagnostics
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, `{"error":"internal: response encoding failed"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(b, '\n'))
}

type errorBody struct {
	Error string `json:"error"`
}

// submitError preserves the backend admission contract at the coordinator:
// quota rejections are 429 + Retry-After, validation failures are 400.
func submitError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrQuotaExceeded) {
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
}

func (c *Coordinator) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec server.JobSpec
	if err := server.DecodeStrict(r.Body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
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
	writeJSON(w, http.StatusAccepted, info)
}

func (c *Coordinator) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	filter := q.Get("status")
	offset, err := queryInt(q.Get("offset"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad offset: " + err.Error()})
		return
	}
	limit, err := queryInt(q.Get("limit"))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad limit: " + err.Error()})
		return
	}
	c.mu.Lock()
	all := make([]JobInfo, 0, len(c.order))
	for _, id := range c.order {
		info := c.jobInfoLocked(c.jobs[id])
		if filter == "" || info.State == filter {
			all = append(all, info)
		}
	}
	c.mu.Unlock()
	total := len(all)
	if offset > total {
		offset = total
	}
	page := all[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs": page, "total": total, "offset": offset, "count": len(page),
	})
}

func queryInt(v string) (int, error) {
	if v == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errors.New("must be >= 0")
	}
	return n, nil
}

// handleGet proxies the owning backend for a live status (then folds it in,
// so terminal transitions are observed at poll speed rather than watch
// cadence) and falls back to the cached view when the backend is
// unreachable.
func (c *Coordinator) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := c.GetJob(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	c.mu.Lock()
	var url, backendID string
	if j.State == fRunning {
		url, backendID = j.Backend, j.BackendID
	}
	c.mu.Unlock()
	if url != "" {
		if st, err := c.fetchJob(url, backendID); err == nil {
			c.mu.Lock()
			changed := c.applyRemoteLocked(j, st)
			c.mu.Unlock()
			if changed {
				c.persist()
			}
		}
	}
	c.mu.Lock()
	info := c.jobInfoLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := c.GetJob(id); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if err := c.CancelJob(id); err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	j, _ := c.GetJob(id)
	c.mu.Lock()
	info := c.jobInfoLocked(j)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, info)
}

func (c *Coordinator) handleSubmitEnsemble(w http.ResponseWriter, r *http.Request) {
	var es EnsembleSpec
	if err := server.DecodeStrict(r.Body, &es); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
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
	writeJSON(w, http.StatusAccepted, st)
}

func (c *Coordinator) handleListEnsembles(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]EnsembleStatus, 0, len(c.eorder))
	for _, id := range c.eorder {
		out = append(out, c.ensembleStatusLocked(c.ensembles[id]))
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"ensembles": out})
}

func (c *Coordinator) handleGetEnsemble(w http.ResponseWriter, r *http.Request) {
	e, ok := c.GetEnsemble(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such ensemble"})
		return
	}
	// Live-refresh running members through the same proxy path the job GET
	// uses, so ensemble polling converges at poll speed.
	c.mu.Lock()
	type probe struct {
		j              *job
		url, backendID string
	}
	var probes []probe
	for _, id := range e.Members {
		if j := c.jobs[id]; j != nil && j.State == fRunning {
			probes = append(probes, probe{j, j.Backend, j.BackendID})
		}
	}
	c.mu.Unlock()
	changed := false
	for _, p := range probes {
		if st, err := c.fetchJob(p.url, p.backendID); err == nil {
			c.mu.Lock()
			if c.applyRemoteLocked(p.j, st) {
				changed = true
			}
			c.mu.Unlock()
		}
	}
	if changed {
		c.persist()
	}
	c.mu.Lock()
	st := c.ensembleStatusLocked(e)
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// backendInfo is the JSON view of one backend's health.
type backendInfo struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Load     int    `json:"load"`
	Capacity int    `json:"capacity"`
	Fails    int    `json:"consecutive_failures,omitempty"`
}

func (c *Coordinator) handleBackends(w http.ResponseWriter, r *http.Request) {
	c.mu.Lock()
	out := make([]backendInfo, 0, len(c.backends))
	for _, b := range c.backends {
		out = append(out, backendInfo{b.url, b.healthy, b.load, b.capacity, b.fails})
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"backends": out})
}

// handleRegisterBackend adds a backend at runtime (the registration hook);
// it becomes eligible for dispatch after its first successful probe.
func (c *Coordinator) handleRegisterBackend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be {\"url\": \"http://...\"}"})
		return
	}
	b := newBackend(req.URL)
	c.mu.Lock()
	if c.findBackendLocked(b.url) != nil {
		c.mu.Unlock()
		writeJSON(w, http.StatusConflict, errorBody{Error: "backend already registered"})
		return
	}
	c.backends = append(c.backends, b)
	c.mu.Unlock()
	c.probeBackend(b.url)
	c.mu.Lock()
	var info backendInfo
	if bb := c.findBackendLocked(b.url); bb != nil {
		info = backendInfo{bb.url, bb.healthy, bb.load, bb.capacity, bb.fails}
	}
	c.mu.Unlock()
	writeJSON(w, http.StatusCreated, info)
}

// handleDrainBackend forwards the drain hook to one backend: it stops
// accepting work, checkpoints and interrupts its running jobs, and the
// coordinator migrates them as it observes the drain.
func (c *Coordinator) handleDrainBackend(w http.ResponseWriter, r *http.Request) {
	var req struct {
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.URL == "" {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "body must be {\"url\": \"http://...\"}"})
		return
	}
	c.mu.Lock()
	b := c.findBackendLocked(newBackend(req.URL).url)
	c.mu.Unlock()
	if b == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such backend"})
		return
	}
	if err := c.drainBackend(b.url); err != nil {
		writeJSON(w, http.StatusBadGateway, errorBody{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"draining": b.url})
}

func (c *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if c.ctx.Err() != nil {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
