package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"
)

func (s *Server) routes() {
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGet)
	s.mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("POST /jobs/{id}/resume", s.handleResume)
	s.mux.HandleFunc("POST /drain", s.handleDrain)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	// Marshal before touching the ResponseWriter: the old Encoder form wrote
	// the status header first and ignored Encode's error, so a failing value
	// produced a 2xx with a torn body. Now an encoding failure becomes a
	// clean 500. (The Write error is unchecked deliberately: at that point
	// the client hung up and there is no one left to tell.)
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

// submitError maps a Submit/Resume error to its HTTP status, setting
// Retry-After on backpressure responses so closed-loop clients know the
// rejection is transient.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errorBody{Error: err.Error()})
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
	}
}

// DecodeStrict decodes a submission body into v, rejecting unknown fields: a
// retired or misspelled field is an error naming it, never a silent default.
// (Persisted specs and metas are read leniently, so files written by older
// releases keep loading.)
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := DecodeStrict(r.Body, &spec); err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "invalid JSON: " + err.Error()})
		return
	}
	// The tenant rides either in the spec or in the X-Tenant header (the
	// fleet convention); the header wins only when the spec leaves it empty.
	if h := r.Header.Get("X-Tenant"); h != "" && spec.Tenant == "" {
		spec.Tenant = h
	}
	j, err := s.Submit(spec)
	if err != nil {
		submitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleList serves GET /jobs with optional ?status= filter and
// ?offset=/?limit= pagination (limit 0 = everything after offset). The
// response keeps jobs addressable without the submitter's ID — and gives the
// fleet coordinator its reconciliation primitive: page through a backend's
// jobs and match them by shared_key.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var filter JState
	if v := q.Get("status"); v != "" {
		switch JState(v) {
		case JQueued, JRunning, JRetrying, JCompleted, JCancelled, JInterrupted, JFailed:
			filter = JState(v)
		default:
			writeJSON(w, http.StatusBadRequest, errorBody{Error: "unknown status " + strconv.Quote(v)})
			return
		}
	}
	offset, err := queryInt(q.Get("offset"), 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad offset: " + err.Error()})
		return
	}
	limit, err := queryInt(q.Get("limit"), 0)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "bad limit: " + err.Error()})
		return
	}

	all := make([]JobStatus, 0, 16)
	for _, j := range s.List() {
		st := j.Status()
		if filter == "" || st.State == filter {
			all = append(all, st)
		}
	}
	total := len(all)
	if offset > total {
		offset = total
	}
	page := all[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"jobs":   page,
		"total":  total,
		"offset": offset,
		"count":  len(page),
	})
}

// queryInt parses a non-negative integer query parameter.
func queryInt(v string, def int) (int, error) {
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("%d must be >= 0", n)
	}
	return n, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	if err := s.Cancel(id); err != nil {
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		return
	}
	j, _ := s.Get(id)
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: "no such job"})
		return
	}
	j, err := s.Resume(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
			submitError(w, err)
		default:
			writeJSON(w, http.StatusConflict, errorBody{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusAccepted, j.Status())
}

// handleDrain starts an asynchronous graceful shutdown — the coordinator's
// drain hook for taking a backend out of rotation: running jobs stop at
// their next checkpointed step boundary, /healthz flips to 503 immediately,
// and migrated jobs resume elsewhere from the shared store.
//
//cadyvet:component
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	already := s.Draining()
	if !already {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			s.Shutdown(ctx)
		}()
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"draining": true, "already_draining": already})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
