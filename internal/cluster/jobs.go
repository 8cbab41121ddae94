package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"time"

	"eva/internal/obs"
	"eva/internal/serve"
)

// Routed jobs. When a node admits an async job as a router, the job itself
// runs on the context's owner node, but the router keeps a durable
// routed-job record: the original request body, the context id (which
// determines the candidate nodes), and the current assignment. The job id
// handed to the client is "<router>~<suffix>", so any node can route
// subsequent status/result calls back to the router that homes the record;
// the router proxies them to the current worker and — when the worker is
// dead or has forgotten the job — resubmits the recorded request to the
// next healthy replica. Re-execution is safe: an EVA job is a pure,
// deterministic encrypted computation, so failover gives at-least-once
// execution with exactly-once result delivery (fetch-once is enforced
// wherever the result lands).

// kindRoutedJob is the artifact-store kind for routed-job records.
const kindRoutedJob = "cjob"

// routedJob is one record. Fields are exported for JSON persistence.
type routedJob struct {
	Suffix    string          `json:"suffix"` // id = home + "~" + suffix
	ContextID string          `json:"context_id"`
	Body      json.RawMessage `json:"body"`           // the original JobRequest (or PipelineRequest)
	Path      string          `json:"path,omitempty"` // submit path; "" means /jobs
	Node      string          `json:"node"`           // current assignment
	LocalID   string          `json:"local_id"`
	Attempts  int             `json:"attempts"`
	Delivered bool            `json:"delivered"`
	Cancelled bool            `json:"cancelled"`
	Failed    string          `json:"failed,omitempty"` // terminal routing failure
	CreatedAt time.Time       `json:"created_at"`
	RetiredAt time.Time       `json:"retired_at,omitempty"` // when Delivered/Cancelled was set

	requeueing bool `json:"-"` // guards concurrent requeue attempts
}

// nodeCtx bounds node-to-node maintenance calls (replication, requeue,
// program shipping) independently of any client request.
func nodeCtx() context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	// The deadline owns cleanup; callers treat the context as fire-and-forget.
	_ = cancel
	return ctx
}

// loadRoutedJobs reloads this router's records after a restart.
func (c *Cluster) loadRoutedJobs() {
	if c.cfg.Store == nil {
		return
	}
	ids, err := c.cfg.Store.List(kindRoutedJob)
	if err != nil {
		return
	}
	for _, id := range ids {
		data, err := c.cfg.Store.Get(kindRoutedJob, id)
		if err != nil {
			continue
		}
		var rec routedJob
		if json.Unmarshal(data, &rec) != nil || rec.Suffix == "" {
			continue
		}
		c.cjobs[rec.Suffix] = &rec
	}
}

// persistRoutedJob writes rec to the store (a no-op without one).
func (c *Cluster) persistRoutedJob(rec *routedJob) error {
	if c.cfg.Store == nil {
		return nil
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return c.cfg.Store.Put(kindRoutedJob, rec.Suffix, data)
}

// saveRoutedJob persists an update to a record whose id the client already
// holds. A failed write leaves the stored copy stale, which is logged.
func (c *Cluster) saveRoutedJob(rec *routedJob) {
	if err := c.persistRoutedJob(rec); err != nil {
		c.log.Warn("routed job update not persisted; a restart reverts it",
			slog.String(obs.LogJobID, c.clusterJobID(rec)),
			slog.String("error", err.Error()))
	}
}

func (c *Cluster) dropRoutedJob(rec *routedJob) {
	c.mu.Lock()
	delete(c.cjobs, rec.Suffix)
	c.mu.Unlock()
	if c.cfg.Store == nil {
		return
	}
	if err := c.cfg.Store.Delete(kindRoutedJob, rec.Suffix); err != nil {
		c.log.Warn("retired routed job not deleted from the store; a restart reloads it",
			slog.String(obs.LogJobID, c.clusterJobID(rec)),
			slog.String("error", err.Error()))
	}
}

// admitRoutedJob answers the submission of a job that rec.Node accepted as
// st. The client gets 202 and the cluster id only once the record is
// durable; if it cannot be written, the node's copy is cancelled (best
// effort) and the client gets 503, so no acknowledged job is lost to a
// restart.
func (c *Cluster) admitRoutedJob(w http.ResponseWriter, rec *routedJob, st serve.JobStatus) {
	if err := c.persistRoutedJob(rec); err != nil {
		status, _, cancelErr := c.roundTrip(nodeCtx(), rec.Node, http.MethodDelete, "/jobs/"+rec.LocalID, nil)
		if cancelErr == nil && status != http.StatusOK {
			cancelErr = fmt.Errorf("status %d", status)
		}
		attrs := []any{
			slog.String(obs.LogJobID, c.clusterJobID(rec)),
			slog.String("node", rec.Node),
			slog.String("local_id", rec.LocalID),
			slog.String("error", err.Error()),
		}
		if cancelErr != nil {
			attrs = append(attrs, slog.String("cancel_error", cancelErr.Error()))
		}
		c.log.Warn("routed job refused: its record could not be persisted, so the node's copy was cancelled", attrs...)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "cluster: the job could not be recorded durably: %v", err)
		return
	}
	c.mu.Lock()
	c.cjobs[rec.Suffix] = rec
	c.mu.Unlock()
	st.JobID = c.clusterJobID(rec)
	w.Header().Set("Location", "/jobs/"+st.JobID)
	writeJSON(w, http.StatusAccepted, st)
}

// handleJobSubmit admits an async job as a router: pick the context's
// owner (or next healthy replica), submit there, and answer with the
// cluster job id backed by a durable record.
func (c *Cluster) handleJobSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	var req serve.JobRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.ContextID == "" {
		c.serveLocal("jobs_submit", w, r, body)
		return
	}
	suffix, err := newSuffix()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	candidates := c.ContextCandidates(req.ContextID)
	var lastStatus int
	var lastBody []byte
	for _, node := range candidates {
		if !c.healthy(node) {
			continue
		}
		status, data, err := c.roundTrip(r.Context(), node, http.MethodPost, "/jobs", body)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			continue // marked down; try the next replica
		}
		if c.isSelf(node) {
			c.countServed("jobs_submit")
		} else {
			c.countForwarded("jobs_submit")
		}
		if status != http.StatusAccepted {
			// Shed (429), bad request, unknown context... pass the worker's
			// verdict through — unless a later replica might hold a context
			// this one is missing.
			lastStatus, lastBody = status, data
			if status == http.StatusNotFound {
				continue
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(data)
			return
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			writeError(w, http.StatusBadGateway, "cluster: node %s returned an unreadable job status: %v", node, err)
			return
		}
		c.admitRoutedJob(w, &routedJob{
			Suffix:    suffix,
			ContextID: req.ContextID,
			Body:      json.RawMessage(body),
			Node:      node,
			LocalID:   st.JobID,
			Attempts:  1,
			CreatedAt: time.Now(),
		}, st)
		return
	}
	if lastStatus != 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(lastStatus)
		w.Write(lastBody)
		return
	}
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, "cluster: no healthy node holds context %q", req.ContextID)
}

// handleJobGet wraps the status/result/cancel handlers with routed-id
// resolution: plain ids stay local, ids homed elsewhere are forwarded to
// their router, and ids homed here go through the record table.
func (c *Cluster) handleJobGet(route string, h func(w http.ResponseWriter, r *http.Request, rec *routedJob)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		home, suffix, isRouted := splitJobID(id)
		if !isRouted {
			c.countServed(route)
			c.local.Handler().ServeHTTP(w, r)
			return
		}
		if home != c.cfg.Self {
			if !c.healthy(home) {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusBadGateway, "cluster: job router %q is down", home)
				return
			}
			if !c.forward(route, w, r, home, nil) {
				w.Header().Set("Retry-After", "1")
				writeError(w, http.StatusBadGateway, "cluster: job router %q is unreachable", home)
			}
			return
		}
		c.mu.Lock()
		rec := c.cjobs[suffix]
		c.mu.Unlock()
		if rec == nil {
			writeError(w, http.StatusNotFound, "unknown job %q", id)
			return
		}
		c.countServed(route)
		h(w, r, rec)
	}
}

func (c *Cluster) clusterJobID(rec *routedJob) string { return c.cfg.Self + "~" + rec.Suffix }

// jobStatus proxies a status poll to the job's current worker, requeueing
// on a dead or amnesiac worker.
func (c *Cluster) jobStatus(w http.ResponseWriter, r *http.Request, rec *routedJob) {
	c.mu.Lock()
	node, localID := rec.Node, rec.LocalID
	failed, cancelled, delivered := rec.Failed, rec.Cancelled, rec.Delivered
	c.mu.Unlock()
	if failed != "" {
		writeJSON(w, http.StatusOK, serve.JobStatus{JobID: c.clusterJobID(rec), Status: "failed", Error: failed})
		return
	}
	status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/jobs/"+localID, nil)
	if err == nil && status == http.StatusOK {
		var st serve.JobStatus
		if json.Unmarshal(data, &st) == nil {
			st.JobID = c.clusterJobID(rec)
			if st.Status == "failed" || st.Status == "cancelled" {
				// A genuine terminal failure (not a dead node): the job will
				// never deliver a result, so retire the record.
				c.dropRoutedJob(rec)
			}
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	if cancelled {
		writeJSON(w, http.StatusOK, serve.JobStatus{JobID: c.clusterJobID(rec), Status: "cancelled"})
		return
	}
	if delivered {
		// Delivered records linger only so the trace stays reachable; a
		// worker that forgot the job is not a failover trigger.
		writeJSON(w, http.StatusOK, serve.JobStatus{JobID: c.clusterJobID(rec), Status: "done"})
		return
	}
	if err == nil && status != http.StatusOK && status != http.StatusNotFound {
		// The worker answered with something meaningful (e.g. 500): relay it.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		return
	}
	// Dead node or a worker that no longer knows the job: fail over.
	if c.requeue(rec, node) {
		writeJSON(w, http.StatusOK, serve.JobStatus{JobID: c.clusterJobID(rec), Status: "queued"})
		return
	}
	c.mu.Lock()
	failed = rec.Failed
	c.mu.Unlock()
	writeJSON(w, http.StatusOK, serve.JobStatus{
		JobID: c.clusterJobID(rec), Status: "failed",
		Error: failed,
	})
}

// jobResult proxies the fetch-once result; a dead worker triggers a
// requeue and tells the client to keep polling.
func (c *Cluster) jobResult(w http.ResponseWriter, r *http.Request, rec *routedJob) {
	c.mu.Lock()
	node, localID := rec.Node, rec.LocalID
	c.mu.Unlock()
	status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/jobs/"+localID+"/result", nil)
	if err == nil {
		switch status {
		case http.StatusOK:
			var jr serve.JobResult
			if uerr := json.Unmarshal(data, &jr); uerr == nil {
				jr.JobID = c.clusterJobID(rec)
				// Mark delivered but keep the record for a retirement
				// window: GET /jobs/{id}/trace still needs to find the
				// worker after the result is gone. The sweep drops it.
				c.mu.Lock()
				rec.Delivered = true
				rec.RetiredAt = time.Now()
				c.mu.Unlock()
				c.saveRoutedJob(rec)
				writeJSON(w, http.StatusOK, jr)
				return
			}
			writeError(w, http.StatusBadGateway, "cluster: node %s returned an unreadable result", node)
			return
		case http.StatusGone:
			c.dropRoutedJob(rec)
			fallthrough
		case http.StatusConflict:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(data)
			return
		case http.StatusNotFound:
			// Fall through to requeue: the worker lost the job.
		default:
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			w.Write(data)
			return
		}
	}
	if r.Context().Err() != nil {
		return
	}
	c.mu.Lock()
	delivered := rec.Delivered
	c.mu.Unlock()
	if delivered {
		// The worker already forgot the job and the result is long gone;
		// there is nothing to requeue.
		c.dropRoutedJob(rec)
		writeError(w, http.StatusGone, "job %q: the result was already delivered", c.clusterJobID(rec))
		return
	}
	if c.requeue(rec, node) {
		writeError(w, http.StatusConflict, "job %q was requeued after its node failed; poll GET /jobs/%s until it is done",
			c.clusterJobID(rec), c.clusterJobID(rec))
		return
	}
	c.mu.Lock()
	failed := rec.Failed
	c.mu.Unlock()
	writeError(w, http.StatusGone, "job %q is failed: %s", c.clusterJobID(rec), failed)
}

// jobTrace proxies GET /jobs/{id}/trace to the job's current worker — the
// node whose tracer holds the span tree — rewriting the job id back to the
// cluster-visible one. No requeue here: a missing trace is a 404, not a
// reason to re-execute the job.
func (c *Cluster) jobTrace(w http.ResponseWriter, r *http.Request, rec *routedJob) {
	c.mu.Lock()
	node, localID := rec.Node, rec.LocalID
	c.mu.Unlock()
	status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/jobs/"+localID+"/trace", nil)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusBadGateway, "cluster: job worker %q is unreachable: %v", node, err)
		return
	}
	if status == http.StatusOK {
		var tj obs.TraceJSON
		if json.Unmarshal(data, &tj) == nil {
			tj.JobID = c.clusterJobID(rec)
			writeJSON(w, http.StatusOK, tj)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// jobCancel cancels the job wherever it currently runs and retires the
// record.
func (c *Cluster) jobCancel(w http.ResponseWriter, r *http.Request, rec *routedJob) {
	c.mu.Lock()
	node, localID := rec.Node, rec.LocalID
	rec.Cancelled = true
	rec.RetiredAt = time.Now()
	c.mu.Unlock()
	c.saveRoutedJob(rec)
	status, data, err := c.roundTrip(r.Context(), node, http.MethodDelete, "/jobs/"+localID, nil)
	if err == nil && status == http.StatusOK {
		var st serve.JobStatus
		if json.Unmarshal(data, &st) == nil {
			st.JobID = c.clusterJobID(rec)
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeJSON(w, http.StatusOK, serve.JobStatus{JobID: c.clusterJobID(rec), Status: "cancelled"})
}

// handleJobEvents proxies the SSE stream from the job's current worker. A
// stream cut by a worker death simply ends; eva.Client.WaitJob falls back
// to polling, which triggers the requeue.
func (c *Cluster) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	home, suffix, isRouted := splitJobID(id)
	if !isRouted {
		c.local.Handler().ServeHTTP(w, r)
		return
	}
	if home != c.cfg.Self {
		if !c.healthy(home) || !c.forwardStream(w, r, home, "/jobs/"+id+"/events") {
			writeError(w, http.StatusBadGateway, "cluster: job router %q is unreachable", home)
		}
		return
	}
	c.mu.Lock()
	rec := c.cjobs[suffix]
	c.mu.Unlock()
	if rec == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	c.mu.Lock()
	node, localID := rec.Node, rec.LocalID
	c.mu.Unlock()
	if c.isSelf(node) {
		r2 := r.Clone(r.Context())
		r2.URL.Path = "/jobs/" + localID + "/events"
		r2.SetPathValue("id", localID)
		c.local.Handler().ServeHTTP(w, r2)
		return
	}
	if !c.forwardStream(w, r, node, "/jobs/"+localID+"/events") {
		writeError(w, http.StatusBadGateway, "cluster: job worker %q is unreachable", node)
	}
}

// forwardStream proxies a response body chunk by chunk (SSE), flushing as
// data arrives.
func (c *Cluster) forwardStream(w http.ResponseWriter, r *http.Request, node, path string) bool {
	client := c.clients[node]
	if client == nil {
		return false
	}
	header := http.Header{}
	header.Set(headerForwarded, c.cfg.Self)
	resp, err := client.DoRaw(r.Context(), http.MethodGet, path, header, nil)
	if err != nil {
		c.markDown(node, err)
		return false
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		if len(w.Header().Values(k)) > 0 {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	flusher, canFlush := w.(http.Flusher)
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true
			}
			if canFlush {
				flusher.Flush()
			}
		}
		if err != nil {
			return true // EOF or a cut stream; the client falls back to polling
		}
	}
}

// requeue moves a routed job off a failed node onto the next healthy
// candidate for its context. It reports whether the job is running (or
// queued) somewhere; false means no candidate could take it and the record
// is marked failed. Concurrent callers (a client poll racing the health
// prober) coordinate through the requeueing flag.
func (c *Cluster) requeue(rec *routedJob, failedNode string) bool {
	c.mu.Lock()
	if rec.Cancelled || rec.Delivered {
		c.mu.Unlock()
		return false
	}
	if rec.Node != failedNode {
		// Someone else already moved it.
		c.mu.Unlock()
		return true
	}
	if rec.requeueing {
		// A concurrent requeue is in flight; report optimistically — the
		// caller polls again.
		c.mu.Unlock()
		return true
	}
	rec.requeueing = true
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		rec.requeueing = false
		c.mu.Unlock()
	}()

	path := rec.Path
	if path == "" {
		path = "/jobs"
	}
	for _, node := range c.ContextCandidates(rec.ContextID) {
		if node == failedNode || !c.healthy(node) {
			continue
		}
		status, data, err := c.roundTrip(nodeCtx(), node, http.MethodPost, path, rec.Body)
		if err != nil || status != http.StatusAccepted {
			continue
		}
		var st serve.JobStatus
		if err := json.Unmarshal(data, &st); err != nil {
			continue
		}
		c.mu.Lock()
		rec.Node, rec.LocalID = node, st.JobID
		rec.Attempts++
		attempts := rec.Attempts
		c.requeues++
		c.mu.Unlock()
		c.saveRoutedJob(rec)
		c.log.Info("routed job requeued",
			slog.String(obs.LogJobID, c.clusterJobID(rec)),
			slog.String("from", failedNode),
			slog.String("to", node),
			slog.Int("attempts", attempts))
		return true
	}
	c.mu.Lock()
	rec.Failed = "no healthy replica could take the job after node " + failedNode + " failed"
	c.mu.Unlock()
	c.saveRoutedJob(rec)
	c.log.Warn("routed job failed: no healthy replica",
		slog.String(obs.LogJobID, c.clusterJobID(rec)),
		slog.String("from", failedNode))
	return false
}

// requeueJobsOn fails over every live routed job assigned to a node that
// was just observed dead (called from the health prober).
func (c *Cluster) requeueJobsOn(node string) {
	c.mu.Lock()
	var victims []*routedJob
	for _, rec := range c.cjobs {
		if rec.Node == node && !rec.Delivered && !rec.Cancelled && rec.Failed == "" {
			victims = append(victims, rec)
		}
	}
	c.mu.Unlock()
	for _, rec := range victims {
		c.requeue(rec, node)
	}
}
