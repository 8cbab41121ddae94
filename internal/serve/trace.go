package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"eva/internal/jobs"
	"eva/internal/obs"
)

// This file is the serve side of the tracing surface: the job-id → trace
// binding that lets async jobs outlive their HTTP exchange, and the two
// read endpoints (GET /traces, GET /jobs/{id}/trace).

// bindJobTrace takes a reference on t and binds it to a job id, so the
// finish hook can close the trace from whichever goroutine ends the job.
// Bind BEFORE submitting: the manager makes a job visible (and finishable)
// before Submit returns.
func (s *Server) bindJobTrace(jobID string, t *obs.Trace) {
	if t == nil {
		return
	}
	t.BindJob(jobID)
	t.Hold()
	s.traceMu.Lock()
	s.jobTraces[jobID] = t
	s.traceMu.Unlock()
}

// takeJobTrace removes and returns the trace bound to a job id, if any.
func (s *Server) takeJobTrace(jobID string) *obs.Trace {
	s.traceMu.Lock()
	t := s.jobTraces[jobID]
	delete(s.jobTraces, jobID)
	s.traceMu.Unlock()
	return t
}

// onJobFinish is the job manager's finish hook: persist the result to the
// durable store (timed as a store_write span on the job's trace), log the
// outcome, and release the trace reference the submission took.
func (s *Server) onJobFinish(snap jobs.Snapshot, result any) {
	t := s.takeJobTrace(snap.ID)
	var sp *obs.Span
	if s.cfg.Store != nil && snap.Status == jobs.StatusDone {
		sp = t.StartSpan("store_write", nil)
	}
	s.persistJobResult(snap, result, t.ID())
	sp.End()
	if t == nil {
		return
	}
	attrs := []any{
		slog.String(obs.LogJobID, snap.ID),
		slog.String(obs.LogTraceID, t.ID()),
		slog.String("status", string(snap.Status)),
	}
	if !snap.Started.IsZero() {
		attrs = append(attrs,
			slog.Duration("wait", snap.Started.Sub(snap.Created)),
			slog.Duration("run", snap.Finished.Sub(snap.Started)))
	}
	if snap.Error != "" {
		attrs = append(attrs, slog.String("error", snap.Error))
	}
	s.log.Info("job finished", attrs...)
	t.Release()
}

// TracesResponse is the body of GET /traces.
type TracesResponse struct {
	Node   string          `json:"node,omitempty"`
	Count  int             `json:"count"`
	Traces []obs.TraceJSON `json:"traces"`
}

// handleTraces serves recent finished traces, newest first. ?min_ms filters
// to traces at least that long; ?limit caps the count (default 50).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "invalid limit %q", v)
			return
		}
		limit = n
	}
	var minDur time.Duration
	if v := r.URL.Query().Get("min_ms"); v != "" {
		ms, err := strconv.ParseFloat(v, 64)
		if err != nil || ms < 0 {
			writeError(w, http.StatusBadRequest, "invalid min_ms %q", v)
			return
		}
		minDur = time.Duration(ms * float64(time.Millisecond))
	}
	traces := s.tracer.Recent(minDur, limit)
	if traces == nil {
		traces = []obs.TraceJSON{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Node: s.cfg.NodeID, Count: len(traces), Traces: traces})
}

// handleJobTrace serves the span tree of one job's trace, live or finished.
func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	t, ok := s.tracer.ByJob(id)
	if !ok {
		writeError(w, http.StatusNotFound, "no trace for job %q (traces are kept in a bounded ring; this one may have been evicted)", id)
		return
	}
	writeJSON(w, http.StatusOK, t)
}
