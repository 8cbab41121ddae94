package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"eva/internal/handle"
	"eva/internal/serve"
)

// Ciphertext handles on the ring. A handle's content address does not
// reveal which node stores it, but every handle is created under a context,
// and contexts have ring placement — so PUT /handles routes to the owning
// candidates of its context_id (the primary stores, then the remaining
// candidates replicate before the PUT is answered), while GET/DELETE by bare
// id fall back to local-then-scatter. The serve layer's execution-time resolver is
// wired to the same scatter (SetHandleFetcher in New), so a job routed to a
// context's owner can consume a handle that physically lives elsewhere.

// handleHandlePut routes a ciphertext store to the owner of its context,
// failing over down the candidate list, then replicates the stored record
// to the remaining candidates best-effort (content addressing makes the
// replica PUT idempotent) before answering.
func (c *Cluster) handleHandlePut(w http.ResponseWriter, r *http.Request, body []byte) {
	var req serve.HandlePutRequest
	if err := json.Unmarshal(body, &req); err != nil || req.ContextID == "" {
		// Let the local server produce its ordinary validation error.
		c.serveLocal("handles_put", w, r, body)
		return
	}
	candidates := c.ContextCandidates(req.ContextID)
	var lastStatus int
	var lastBody []byte
	for _, node := range candidates {
		if !c.healthy(node) {
			continue
		}
		status, data, err := c.roundTrip(r.Context(), node, http.MethodPut, "/handles", body)
		if err != nil {
			if r.Context().Err() != nil {
				return
			}
			continue // marked down; try the next replica
		}
		if c.isSelf(node) {
			c.countServed("handles_put")
		} else {
			c.countForwarded("handles_put")
		}
		if status == http.StatusNotFound {
			// This replica does not hold the context (yet); a later one may.
			lastStatus, lastBody = status, data
			continue
		}
		if status == http.StatusOK {
			c.replicateHandle(body, candidates, node)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		return
	}
	if lastStatus != 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(lastStatus)
		w.Write(lastBody)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "cluster: no healthy node holds context %q", req.ContextID)
}

// replicateHandle re-sends a stored PUT /handles body to the remaining
// candidate nodes before the PUT is answered: a replica written after the
// answer could land after a DELETE the client sends next and resurrect the
// handle. Failures are counted, not surfaced: the scatter fetch still finds
// the primary copy.
func (c *Cluster) replicateHandle(body []byte, candidates []string, primary string) {
	for _, node := range candidates {
		if node == primary || !c.healthy(node) {
			continue
		}
		status, _, err := c.roundTrip(nodeCtx(), node, http.MethodPut, "/handles", body)
		if err != nil || status != http.StatusOK {
			c.countReplErr()
		}
	}
}

// handleHandleGet serves GET /handles/{id}: the local registry first, then
// a scatter across healthy peers — the content address does not say which
// node stores the handle, and the uploader may have failed over.
func (c *Cluster) handleHandleGet(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(headerForwarded) != "" {
		c.countServed("handles_get")
		c.local.Handler().ServeHTTP(w, r)
		return
	}
	id := r.PathValue("id")
	meta, data, err := c.local.Handles().Get(id)
	if err == nil {
		c.countServed("handles_get")
		writeJSON(w, http.StatusOK, serve.HandleRecordJSON{Meta: meta, Cipher: data})
		return
	}
	if !errors.Is(err, handle.ErrNotFound) {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	for _, node := range c.ring.nodes {
		if c.isSelf(node) || !c.healthy(node) {
			continue
		}
		status, body, rerr := c.roundTrip(r.Context(), node, http.MethodGet, "/handles/"+id, nil)
		if rerr != nil || status != http.StatusOK {
			continue
		}
		c.countForwarded("handles_get")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(body)
		return
	}
	writeError(w, http.StatusNotFound, "unknown handle %q", id)
}

// handleHandleDelete broadcasts DELETE /handles/{id} to every healthy node:
// replication means any subset may hold a copy, and deletion must reach all
// of them or the scatter fetch resurrects the handle.
func (c *Cluster) handleHandleDelete(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(headerForwarded) != "" {
		c.countServed("handles_delete")
		c.local.Handler().ServeHTTP(w, r)
		return
	}
	id := r.PathValue("id")
	deleted := false
	for _, node := range c.ring.nodes {
		if c.isSelf(node) {
			if c.local.Handles().Delete(id) == nil {
				deleted = true
			}
			continue
		}
		if !c.healthy(node) {
			continue
		}
		status, _, err := c.roundTrip(r.Context(), node, http.MethodDelete, "/handles/"+id, nil)
		if err == nil && status == http.StatusOK {
			deleted = true
		}
	}
	c.countServed("handles_delete")
	if !deleted {
		writeError(w, http.StatusNotFound, "unknown handle %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// fetchHandleFromPeers is the serve layer's remote-resolution hook: when a
// job or pipeline running here references a handle this node does not hold,
// scatter GET /handles/{id} across the peers and install the first hit. The
// registry re-verifies the record against its content address.
func (c *Cluster) fetchHandleFromPeers(ctx context.Context, id string) (*handle.Record, error) {
	if ctx == nil || ctx.Err() != nil {
		ctx = nodeCtx()
	}
	for _, node := range c.ring.nodes {
		if c.isSelf(node) || !c.healthy(node) {
			continue
		}
		status, body, err := c.roundTrip(ctx, node, http.MethodGet, "/handles/"+id, nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		var rec serve.HandleRecordJSON
		if json.Unmarshal(body, &rec) != nil || rec.Meta.ID != id {
			continue
		}
		return &handle.Record{Meta: rec.Meta, Data: rec.Cipher}, nil
	}
	return nil, handle.ErrNotFound
}

// --- /pipelines ---

// handlePipelineSubmit routes a pipeline to the owner of its first stage's
// context, shipping every stage's program and context there first (stages
// may name contexts homed on other nodes; the executing node needs them
// all). The admission is recorded as a routed job so status/result/trace
// calls route like any cluster job.
func (c *Cluster) handlePipelineSubmit(w http.ResponseWriter, r *http.Request, body []byte) {
	var req struct {
		Stages []struct {
			ProgramID string `json:"program_id"`
			ContextID string `json:"context_id"`
		} `json:"stages"`
	}
	if err := json.Unmarshal(body, &req); err != nil || len(req.Stages) == 0 || req.Stages[0].ContextID == "" {
		c.serveLocal("pipelines", w, r, body)
		return
	}
	suffix, err := newSuffix()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	candidates := c.ContextCandidates(req.Stages[0].ContextID)
	primary, ok := c.firstHealthy(candidates)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "cluster: no healthy node holds context %q", req.Stages[0].ContextID)
		return
	}
	for _, st := range req.Stages {
		if st.ProgramID == "" || st.ContextID == "" {
			c.serveLocal("pipelines", w, r, body)
			return
		}
		if err := c.ensureProgram(primary, st.ProgramID); err != nil {
			writeError(w, http.StatusNotFound, "unknown program %q; POST /compile first (%v)", st.ProgramID, err)
			return
		}
		if err := c.ensureContext(primary, st.ContextID, st.ProgramID); err != nil {
			writeError(w, http.StatusNotFound, "cluster: staging context %q on %s: %v", st.ContextID, primary, err)
			return
		}
	}
	status, data, err := c.roundTrip(r.Context(), primary, http.MethodPost, "/pipelines", body)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "cluster: pipeline owner %s unreachable: %v", primary, err)
		return
	}
	if c.isSelf(primary) {
		c.countServed("pipelines")
	} else {
		c.countForwarded("pipelines")
	}
	if status != http.StatusAccepted {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		w.Write(data)
		return
	}
	var st serve.JobStatus
	if err := json.Unmarshal(data, &st); err != nil {
		writeError(w, http.StatusBadGateway, "cluster: node %s returned an unreadable job status: %v", primary, err)
		return
	}
	c.admitRoutedJob(w, &routedJob{
		Suffix:    suffix,
		ContextID: req.Stages[0].ContextID,
		Body:      json.RawMessage(body),
		Path:      "/pipelines",
		Node:      primary,
		LocalID:   st.JobID,
		Attempts:  1,
		CreatedAt: time.Now(),
	}, st)
}

// ensureContext makes a node hold a context, shipping the key bundle from
// the context's owner when the node does not have it yet.
func (c *Cluster) ensureContext(node, contextID, programID string) error {
	status, _, err := c.roundTrip(nodeCtx(), node, http.MethodGet, "/contexts/"+contextID+"/bundle", nil)
	if err == nil && status == http.StatusOK {
		return nil
	}
	var bundle *serve.ContextBundle
	for _, src := range c.ContextCandidates(contextID) {
		if src == node || !c.healthy(src) {
			continue
		}
		status, data, err := c.roundTrip(nodeCtx(), src, http.MethodGet, "/contexts/"+contextID+"/bundle", nil)
		if err != nil || status != http.StatusOK {
			continue
		}
		b := &serve.ContextBundle{}
		if json.Unmarshal(data, b) == nil {
			bundle = b
			break
		}
	}
	if bundle == nil {
		return errors.New("no candidate node holds the context bundle")
	}
	return c.installContextOn(node, contextID, programID, bundle)
}
