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

// WriteJSON answers with v as indented JSON; the fleet coordinator's job API
// answers through it too.
func WriteJSON(w http.ResponseWriter, code int, v any) {
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

// WriteError answers with the API's error body, {"error": msg}.
func WriteError(w http.ResponseWriter, code int, msg string) {
	WriteJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}

// WritePage answers a list request with the ?offset=/?limit= window of all
// (limit 0 = everything after offset) in the paged envelope
// {"jobs", "total", "offset", "count"} both job APIs share.
func WritePage[T any](w http.ResponseWriter, r *http.Request, all []T) {
	var bounds [2]int
	for i, name := range []string{"offset", "limit"} {
		v := r.URL.Query().Get(name)
		if v == "" {
			continue
		}
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			WriteError(w, http.StatusBadRequest, fmt.Sprintf("bad %s %q: want an integer >= 0", name, v))
			return
		}
		bounds[i] = n
	}
	offset, limit := min(bounds[0], len(all)), bounds[1]
	page := all[offset:]
	if limit > 0 && limit < len(page) {
		page = page[:limit]
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"jobs": page, "total": len(all), "offset": offset, "count": len(page),
	})
}

// submitError maps a Submit/Resume error to its HTTP status, setting
// Retry-After on backpressure responses so closed-loop clients know the
// rejection is transient.
func submitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded):
		w.Header().Set("Retry-After", "1")
		WriteError(w, http.StatusTooManyRequests, err.Error())
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		WriteError(w, http.StatusServiceUnavailable, err.Error())
	default:
		WriteError(w, http.StatusBadRequest, err.Error())
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
		WriteError(w, http.StatusBadRequest, "invalid JSON: "+err.Error())
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
	WriteJSON(w, http.StatusAccepted, j.Status())
}

// handleList serves GET /jobs with optional ?status= filter and
// ?offset=/?limit= pagination (limit 0 = everything after offset). The
// response keeps jobs addressable without the submitter's ID — and gives the
// fleet coordinator its reconciliation primitive: page through a backend's
// jobs and match them by shared_key.
func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	var filter JState
	if v := r.URL.Query().Get("status"); v != "" {
		var err error
		if filter, err = ParseJState(v); err != nil {
			WriteError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	all := make([]JobStatus, 0, 16)
	for _, j := range s.List() {
		st := j.Status()
		if filter == "" || st.State == filter {
			all = append(all, st)
		}
	}
	WritePage(w, r, all)
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Get(r.PathValue("id"))
	if !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	WriteJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	if err := s.Cancel(id); err != nil {
		WriteError(w, http.StatusConflict, err.Error())
		return
	}
	j, _ := s.Get(id)
	WriteJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if _, ok := s.Get(id); !ok {
		WriteError(w, http.StatusNotFound, "no such job")
		return
	}
	j, err := s.Resume(id)
	if err != nil {
		switch {
		case errors.Is(err, ErrQueueFull), errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrDraining):
			submitError(w, err)
		default:
			WriteError(w, http.StatusConflict, err.Error())
		}
		return
	}
	WriteJSON(w, http.StatusAccepted, j.Status())
}

// handleDrain starts an asynchronous graceful shutdown — the coordinator's
// drain hook for taking a backend out of rotation: running jobs stop at
// their next checkpointed step boundary, /healthz flips to 503 immediately,
// and migrated jobs resume elsewhere from the shared store.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	already := s.Draining()
	if !already {
		go func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
			defer cancel()
			s.Shutdown(ctx)
		}()
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{"draining": true, "already_draining": already})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ok\n"))
}
