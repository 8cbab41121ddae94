package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"eva/internal/execute"
	"eva/internal/jobs"
)

// The jobs API fronts long-running encrypted computations with a queue:
// POST /jobs enqueues a run of a program and returns a job id immediately, a
// bounded worker pool drains the FIFO queue, GET /jobs/{id} polls status,
// GET /jobs/{id}/events streams progress over SSE, GET /jobs/{id}/result
// returns the results exactly once, and DELETE /jobs/{id} cancels. Admission
// control sheds load with 429 + Retry-After when the queue is full or the
// estimated resident ciphertext footprint of all admitted jobs would exceed
// the configured budget.

// JobRequest is the body of POST /jobs: batches of inputs for one program on
// one context. Batches run one after another inside the job, and each batch
// fans out across Workers executor goroutines. Output selects the result
// form: "" returns ciphertext payloads (or decrypted values in demo mode),
// "handle" persists every encrypted output as a content-addressed handle and
// returns ids instead of payloads.
type JobRequest struct {
	ProgramID string         `json:"program_id"`
	ContextID string         `json:"context_id"`
	Workers   int            `json:"workers,omitempty"`
	Output    string         `json:"output,omitempty"`
	Batches   []ExecuteBatch `json:"batches"`
}

// ExecuteBatch is one input set of a /jobs request. Cipher carries
// base64 ciphertexts (client-encrypted), Handles references stored
// ciphertext handles by id (resolved server-side, so chained jobs never
// round-trip ciphertext through the client), Plain carries the program's
// unencrypted inputs, and Values carries plaintext values for the program's
// Cipher inputs — allowed only on demo-mode contexts, where the server
// encrypts them (and decrypts the outputs) itself. Each Cipher input must be
// supplied by exactly one of Cipher, Handles, or Values.
type ExecuteBatch struct {
	Cipher  map[string]string    `json:"cipher,omitempty"`
	Handles map[string]string    `json:"handles,omitempty"`
	Plain   map[string][]float64 `json:"plain,omitempty"`
	Values  map[string][]float64 `json:"values,omitempty"`
}

// BatchStats summarizes one batch's execution.
type BatchStats struct {
	Instructions int     `json:"instructions"`
	Workers      int     `json:"workers"`
	WallMillis   float64 `json:"wall_ms"`
}

// BatchResult is the per-batch response: base64 ciphertext outputs, plus
// decrypted (or natively unencrypted) outputs in Values where available.
// When the request asked for "output": "handle", Handles maps each encrypted
// output to the id of its stored content-addressed handle instead.
type BatchResult struct {
	Cipher  map[string]string    `json:"cipher,omitempty"`
	Handles map[string]string    `json:"handles,omitempty"`
	Values  map[string][]float64 `json:"values,omitempty"`
	Error   string               `json:"error,omitempty"`
	Stats   BatchStats           `json:"stats"`
}

// JobStatus is the wire form of a job's state (POST /jobs and GET /jobs/{id}).
type JobStatus struct {
	JobID       string  `json:"job_id"`
	Status      string  `json:"status"`
	Batches     int     `json:"batches"`
	BatchesDone int     `json:"batches_done"`
	EstBytes    int64   `json:"est_bytes"`
	Error       string  `json:"error,omitempty"`
	CreatedAt   string  `json:"created_at"`
	WaitMillis  float64 `json:"wait_ms,omitempty"`
	RunMillis   float64 `json:"run_ms,omitempty"`
	// TraceID is the request trace the job is bound to; GET
	// /jobs/{id}/trace serves its span tree.
	TraceID string `json:"trace_id,omitempty"`
}

// JobResult is the body of GET /jobs/{id}/result: one BatchResult per batch
// (or per pipeline stage). The result is delivered exactly once; a second
// fetch (or a fetch after the TTL) gets 410 Gone.
type JobResult struct {
	JobID   string        `json:"job_id"`
	Status  string        `json:"status"`
	Results []BatchResult `json:"results"`
}

func jobStatusJSON(s jobs.Snapshot) JobStatus {
	js := JobStatus{
		JobID:       s.ID,
		Status:      string(s.Status),
		Batches:     s.Batches,
		BatchesDone: s.BatchesDone,
		EstBytes:    s.EstBytes,
		Error:       s.Error,
		CreatedAt:   s.Created.UTC().Format(time.RFC3339Nano),
	}
	if !s.Started.IsZero() {
		js.WaitMillis = float64(s.Started.Sub(s.Created)) / float64(time.Millisecond)
		end := s.Finished
		if end.IsZero() {
			end = time.Now()
		}
		js.RunMillis = float64(end.Sub(s.Started)) / float64(time.Millisecond)
	}
	return js
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if coalesceRequested(r) {
		s.handleCoalescedSubmit(w, r, &req)
		return
	}
	ce, ropts, ok := s.checkBatches(w, &req)
	if !ok {
		return
	}
	// Resolve and validate every batch now: submissions fail fast (400 for
	// malformed inputs, 404 for unknown handles, one structured 422 for all
	// input contract violations), and the resolved ciphertexts are what
	// admission control accounts for.
	plans := make([]*stagePlan, len(req.Batches))
	bindings := make([]func(string) InputBinding, len(req.Batches))
	for i := range req.Batches {
		plans[i] = newStagePlan(ce, req.Output)
		bindings[i] = req.Batches[i].binding
	}
	if !s.lowerStages(w, r, "batch", plans, bindings) {
		return
	}
	s.submitJob(w, r, plans, ropts, false)
}

func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrOverBudget):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
	case errors.Is(err, jobs.ErrJobTooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, "%v", err)
	case errors.Is(err, jobs.ErrClosed):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, ok := s.jobs.Get(id)
	if !ok {
		// The in-memory record is gone (restart, or TTL eviction) but the
		// job may have completed with its result persisted: report it done
		// so clients — and the cluster's requeue logic — don't mistake a
		// finished job for a lost one.
		if rec, ok := s.storedResultExists(id); ok {
			writeJSON(w, http.StatusOK, JobStatus{
				JobID:   id,
				Status:  rec.Status,
				Batches: len(rec.Results), BatchesDone: len(rec.Results),
				CreatedAt: rec.FinishedAt.UTC().Format(time.RFC3339Nano),
			})
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	st := jobStatusJSON(snap)
	st.TraceID = s.tracer.TraceIDForJob(id)
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, jobStatusJSON(snap))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	result, snap, fs := s.jobs.FetchResult(id)
	switch fs {
	case jobs.FetchNotFound:
		// The in-memory record was lost to a restart or the TTL, but the
		// persisted copy still honors fetch-once: it is returned and
		// deleted in one step, or kept for a retry if it cannot be deleted.
		rec, err := s.fetchStoredResult(id)
		if err != nil {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusServiceUnavailable, "job %q result could not be retired from the store; it is kept for a retry: %v", id, err)
			return
		}
		if rec != nil {
			writeJSON(w, http.StatusOK, JobResult{JobID: id, Status: rec.Status, Results: rec.Results})
			return
		}
		writeError(w, http.StatusNotFound, "unknown job %q (finished jobs are evicted minutes after completion)", id)
	case jobs.FetchNotDone:
		writeError(w, http.StatusConflict, "job %q is %s; poll GET /jobs/%s until it is done", id, snap.Status, id)
	case jobs.FetchGone:
		if snap.Status == jobs.StatusDone {
			writeError(w, http.StatusGone, "job %q result was already fetched (results are delivered exactly once)", id)
		} else {
			writeError(w, http.StatusGone, "job %q is %s: %s", id, snap.Status, snap.Error)
		}
	default:
		results, ok := result.([]BatchResult)
		if !ok {
			writeError(w, http.StatusInternalServerError, "job %q carries an unexpected result type", id)
			return
		}
		// Drop the persisted copy so the just-delivered result cannot be
		// fetched a second time through the store after a restart.
		s.dropStoredResult(id)
		writeJSON(w, http.StatusOK, JobResult{JobID: id, Status: string(snap.Status), Results: results})
	}
}

// handleJobEvents streams a job's progress as server-sent events: the full
// history first (late subscribers replay from the start), then live events
// until the terminal one. Each event is `event: <type>` + `data: <JSON>`.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	history, ch, unsubscribe, ok := s.jobs.Subscribe(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	defer unsubscribe()
	flusher, canFlush := w.(http.Flusher)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	write := func(e jobs.Event) {
		data, _ := json.Marshal(e)
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", e.Type, data)
		if canFlush {
			flusher.Flush()
		}
	}
	for _, e := range history {
		write(e)
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, open := <-ch:
			if !open {
				return
			}
			write(e)
		}
	}
}

// resolveExecution looks up the execution context, which pins its program, for
// a job or coalesced request, refreshing LRU recency. A context missing from
// the in-memory table (restart, LRU eviction) is restored from the durable
// store, so execution against a context id survives both.
func (s *Server) resolveExecution(programID, contextID string) (*contextEntry, int, error) {
	ce, ok := s.lookupContext(contextID)
	if !ok {
		return nil, http.StatusNotFound, fmt.Errorf("unknown context %q; POST /contexts first", contextID)
	}
	if ce.Entry.ID != programID {
		return nil, http.StatusConflict, fmt.Errorf("context %q belongs to program %q, not %q", contextID, ce.Entry.ID, programID)
	}
	s.registry.Get(programID) // refresh recency if still cached
	return ce, http.StatusOK, nil
}

// checkBatches runs the checks a /jobs request passes before
// any input is resolved — its context (which pins the program, so LRU
// eviction never breaks a live context), batch count, run options and output
// mode — answering the request itself on failure.
func (s *Server) checkBatches(w http.ResponseWriter, req *JobRequest) (*contextEntry, execute.RunOptions, bool) {
	ce, status, err := s.resolveExecution(req.ProgramID, req.ContextID)
	if err != nil {
		writeError(w, status, "%v", err)
		return nil, execute.RunOptions{}, false
	}
	if len(req.Batches) == 0 {
		writeError(w, http.StatusBadRequest, "no batches")
		return nil, execute.RunOptions{}, false
	}
	if len(req.Batches) > maxBatchesPerRequest {
		writeError(w, http.StatusRequestEntityTooLarge, "%d batches exceeds the per-request limit of %d", len(req.Batches), maxBatchesPerRequest)
		return nil, execute.RunOptions{}, false
	}
	if err := validOutputMode(req.Output); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil, execute.RunOptions{}, false
	}
	return ce, runOptions(req.Workers), true
}

// runOptions resolves a request's worker count against the DoS clamp on the
// DAG-parallel scheduler; zero workers leaves the executor's GOMAXPROCS
// default, and one worker runs the program sequentially.
func runOptions(workers int) execute.RunOptions {
	// Clamp the client-supplied knob: goroutines beyond the machine's
	// parallelism only cost memory, and an unbounded value is a DoS vector.
	return execute.RunOptions{
		Workers:   min(workers, 4*runtime.GOMAXPROCS(0)),
		Scheduler: execute.SchedulerParallel,
	}
}
