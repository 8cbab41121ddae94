package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/serve"
)

// maxRoutedBody caps the request bytes a router buffers before forwarding;
// it matches the serve layer's default body limit.
const maxRoutedBody = 256 << 20

// Handler returns the node's public HTTP handler: the cluster routing layer
// wrapped around the local serve handler. Requests already forwarded by a
// peer (X-Eva-Forwarded) are served locally; everything else is routed to
// the owner of the program or context it names, with failover to the next
// healthy replica.
func (c *Cluster) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /compile", c.routed("compile", c.handleCompile))
	mux.HandleFunc("POST /contexts", c.routed("contexts", c.handleContexts))
	mux.HandleFunc("POST /jobs", c.routed("jobs_submit", c.handleJobSubmit))
	mux.HandleFunc("GET /jobs/{id}", c.handleJobGet("jobs_status", c.jobStatus))
	mux.HandleFunc("GET /jobs/{id}/result", c.handleJobGet("jobs_result", c.jobResult))
	mux.HandleFunc("GET /jobs/{id}/trace", c.handleJobGet("jobs_trace", c.jobTrace))
	mux.HandleFunc("DELETE /jobs/{id}", c.handleJobGet("jobs_cancel", c.jobCancel))
	mux.HandleFunc("GET /jobs/{id}/events", c.handleJobEvents)
	mux.HandleFunc("PUT /handles", c.routed("handles_put", c.handleHandlePut))
	mux.HandleFunc("GET /handles/{id}", c.handleHandleGet)
	mux.HandleFunc("DELETE /handles/{id}", c.handleHandleDelete)
	mux.HandleFunc("POST /pipelines", c.routed("pipelines", c.handlePipelineSubmit))
	mux.HandleFunc("GET /programs", c.handleProgramsScatter)
	mux.HandleFunc("GET /metrics", c.handleMetrics)
	mux.HandleFunc("GET /profile", c.handleProfile)
	// Everything else — /healthz, /programs/{id}, bundles, plain job ids —
	// is local.
	mux.Handle("/", c.local.Handler())
	return mux
}

// routed wraps a routing handler: forwarded requests bypass routing and go
// straight to the local server, and the body is buffered so it can be
// re-sent to a peer (or replayed locally). This is the cluster's ingress:
// the trace is minted here (or adopted from the client's X-Eva-Trace) and
// travels with every hop the request takes, so the owner node's spans land
// in the same trace the ingress node answers with.
func (c *Cluster) routed(route string, h func(w http.ResponseWriter, r *http.Request, body []byte)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(headerForwarded) != "" {
			c.countServed(route)
			c.local.Handler().ServeHTTP(w, r)
			return
		}
		t := c.local.Tracer().Start(r.Header.Get(obs.TraceHeader))
		defer t.Release()
		w.Header().Set(obs.TraceHeader, t.ID())
		sp := t.StartSpan("cluster:"+route, nil)
		defer sp.End()
		r = r.WithContext(obs.ContextWithSpan(obs.ContextWithTrace(r.Context(), t), sp))
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRoutedBody))
		if err != nil {
			writeError(w, http.StatusRequestEntityTooLarge, "reading request: %v", err)
			return
		}
		h(w, r, body)
	}
}

// serveLocal replays a buffered request into the local handler. The ingress
// trace id rides along as a header, so the serve layer joins the routing
// trace instead of minting its own.
func (c *Cluster) serveLocal(route string, w http.ResponseWriter, r *http.Request, body []byte) {
	c.countServed(route)
	r2 := r.Clone(r.Context())
	r2.Body = io.NopCloser(bytes.NewReader(body))
	r2.ContentLength = int64(len(body))
	if t := obs.TraceFromContext(r.Context()); t != nil {
		r2.Header.Set(obs.TraceHeader, t.ID())
	}
	c.local.Handler().ServeHTTP(w, r2)
}

// forward proxies a buffered request to a peer and copies the response
// back. Transport failure marks the peer down and reports false so the
// caller can fail over.
func (c *Cluster) forward(route string, w http.ResponseWriter, r *http.Request, node string, body []byte) bool {
	hops, _ := strconv.Atoi(r.Header.Get(headerHops))
	if hops >= maxHops {
		writeError(w, http.StatusBadGateway, "cluster: forwarding loop detected (%d hops)", hops)
		return true // the response is written; do not fail over
	}
	client := c.clients[node]
	if client == nil {
		return false
	}
	header := http.Header{}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		header.Set("Content-Type", ct)
	}
	header.Set(headerForwarded, c.cfg.Self)
	header.Set(headerHops, strconv.Itoa(hops+1))
	if t := obs.TraceFromContext(r.Context()); t != nil {
		header.Set(obs.TraceHeader, t.ID())
	} else if tid := r.Header.Get(obs.TraceHeader); tid != "" {
		header.Set(obs.TraceHeader, tid)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	fsp := obs.TraceFromContext(r.Context()).StartSpan("forward", obs.SpanFromContext(r.Context()))
	fsp.SetAttr("to", node)
	fsp.SetAttr("route", route)
	defer fsp.End()
	resp, err := client.DoRaw(r.Context(), r.Method, r.URL.RequestURI(), header, rd)
	if err != nil {
		fsp.SetAttr("error", err.Error())
		if r.Context().Err() != nil {
			// The client went away; nothing to fail over for.
			return true
		}
		c.markDown(node, err)
		return false
	}
	defer resp.Body.Close()
	c.countForwarded(route)
	copyResponse(w, resp)
	return true
}

// copyResponse relays a proxied response. Headers the routing layer already
// set (X-Eva-Trace at ingress) win over the worker's copy — both name the
// same trace, and clients must not see the value twice.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	for k, vs := range resp.Header {
		if len(w.Header().Values(k)) > 0 {
			continue
		}
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// --- /compile ---

// handleCompile routes a compile to the program's owner node (any node
// *can* compile anything — compilation is deterministic — but giving each
// program a home makes its artifact durable on a predictable shard). The
// remaining candidate nodes are warmed in the background.
func (c *Cluster) handleCompile(w http.ResponseWriter, r *http.Request, body []byte) {
	var req serve.CompileRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	id, err := serve.CanonicalCompile(req)
	if err != nil {
		// Hand the malformed request to the local server so the client gets
		// the full structured diagnostics (source_errors etc.).
		c.serveLocal("compile", w, r, body)
		return
	}
	candidates := c.programCandidates(id)
	primary, ok := c.firstHealthy(candidates)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "cluster: no healthy node for program %s", id)
		return
	}
	// Warm the other candidates in the background: program replication is
	// an availability optimization, not a correctness requirement (context
	// placement re-ships programs on demand).
	defer c.replicateProgramAsync(id, candidates, primary)
	for _, node := range candidates {
		if !c.healthy(node) || node == "" {
			continue
		}
		if c.isSelf(node) {
			c.serveLocal("compile", w, r, body)
			return
		}
		if c.forward("compile", w, r, node, body) {
			return
		}
	}
	// Every remote candidate died mid-request: compile locally rather than
	// fail — the artifact lands on its home shard when it recovers.
	c.serveLocal("compile", w, r, body)
}

func (c *Cluster) replicateProgramAsync(id string, candidates []string, primary string) {
	go func() {
		for _, node := range candidates {
			if node == primary || !c.healthy(node) {
				continue
			}
			if err := c.ensureProgram(node, id); err != nil {
				c.countReplErr()
			}
		}
	}()
}

// ensureProgram makes a node hold a compiled program, shipping the
// canonical source and exact options from wherever they are available.
func (c *Cluster) ensureProgram(node, programID string) error {
	source, opts, ok := c.local.ProgramSource(programID)
	if !ok {
		// Ask the program's candidate nodes, then every peer.
		tried := map[string]bool{}
		for _, q := range append(c.programCandidates(programID), c.ring.nodes...) {
			if tried[q] || c.isSelf(q) || !c.healthy(q) {
				continue
			}
			tried[q] = true
			status, data, err := c.roundTrip(nodeCtx(), q, http.MethodGet, "/programs/"+programID+"/source", nil)
			if err != nil || status != http.StatusOK {
				continue
			}
			var src serve.ProgramSourceResponse
			if json.Unmarshal(data, &src) == nil {
				source, opts, ok = src.Program, src.Options, true
				break
			}
		}
	}
	if !ok {
		return fmt.Errorf("cluster: program %s not found on any node", programID)
	}
	if c.isSelf(node) {
		id, err := c.local.InstallProgram(source, opts)
		if err != nil {
			return err
		}
		if id != programID {
			return fmt.Errorf("cluster: program %s rebuilt with unexpected id %s", programID, id)
		}
		return nil
	}
	optsJSON := serve.OptionsJSON(opts)
	reqBody, err := json.Marshal(serve.CompileRequest{Program: source, Options: &optsJSON})
	if err != nil {
		return err
	}
	status, data, err := c.roundTrip(nodeCtx(), node, http.MethodPost, "/compile", reqBody)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: shipping program %s to %s: HTTP %d: %s", programID, node, status, truncate(data))
	}
	var comp serve.CompileResponse
	if err := json.Unmarshal(data, &comp); err != nil {
		return err
	}
	if comp.ID != programID {
		return fmt.Errorf("cluster: program %s compiled on %s with unexpected id %s", programID, node, comp.ID)
	}
	return nil
}

// --- /contexts ---

// handleContexts assigns the new context an id, places it on the ring, and
// creates it on the owner; the key bundle is then replicated synchronously
// to the remaining candidate nodes so owner-down failover has somewhere to
// requeue.
func (c *Cluster) handleContexts(w http.ResponseWriter, r *http.Request, body []byte) {
	var req serve.ContextRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if req.ProgramID == "" && req.Bundle != nil {
		req.ProgramID = req.Bundle.ProgramID
	}
	if req.ContextID == "" {
		suffix, err := newSuffix()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		req.ContextID = suffix
	}
	candidates := c.contextCandidates(req.ContextID)
	primary, ok := c.firstHealthy(candidates)
	if !ok {
		writeError(w, http.StatusServiceUnavailable, "cluster: no healthy node for context %s", req.ContextID)
		return
	}
	if err := c.ensureProgram(primary, req.ProgramID); err != nil {
		writeError(w, http.StatusNotFound, "unknown program %q; POST /compile first (%v)", req.ProgramID, err)
		return
	}
	routedBody, err := json.Marshal(req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	status, data, err := c.roundTrip(r.Context(), primary, http.MethodPost, "/contexts", routedBody)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, "cluster: context owner %s unreachable: %v", primary, err)
		return
	}
	if c.isSelf(primary) {
		c.countServed("contexts")
	} else {
		c.countForwarded("contexts")
	}
	if status == http.StatusOK {
		// Replicate the bundle to the remaining candidates before answering:
		// failover only works if the replica already holds the keys. Errors
		// are counted but not fatal — the context works on its owner.
		c.replicateContext(req.ContextID, req.ProgramID, primary, candidates)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

func (c *Cluster) replicateContext(contextID, programID, primary string, candidates []string) {
	var bundle *serve.ContextBundle
	for _, node := range candidates {
		if node == primary || !c.healthy(node) {
			continue
		}
		if bundle == nil {
			if bundle = c.fetchBundle(contextID, []string{primary}); bundle == nil {
				c.countReplErr()
				return
			}
		}
		if err := c.installContextOn(node, contextID, programID, bundle); err != nil {
			c.countReplErr()
		}
	}
}

func (c *Cluster) installContextOn(node, contextID, programID string, bundle *serve.ContextBundle) error {
	if err := c.ensureProgram(node, programID); err != nil {
		return err
	}
	body, err := json.Marshal(serve.ContextRequest{
		ProgramID: programID,
		ContextID: contextID,
		Bundle:    bundle,
	})
	if err != nil {
		return err
	}
	status, data, err := c.roundTrip(nodeCtx(), node, http.MethodPost, "/contexts", body)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("cluster: replicating context %s to %s: HTTP %d: %s", contextID, node, status, truncate(data))
	}
	return nil
}

// --- scatter-gather ---

// handleProgramsScatter merges GET /programs across every healthy node, so
// an operator sees the whole cluster's registry regardless of which node
// they asked.
func (c *Cluster) handleProgramsScatter(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(headerForwarded) != "" {
		c.local.Handler().ServeHTTP(w, r)
		return
	}
	type nodePrograms struct {
		Node     string              `json:"node"`
		Error    string              `json:"error,omitempty"`
		Programs []serve.ProgramInfo `json:"programs"`
	}
	out := make([]nodePrograms, 0, len(c.ring.nodes))
	for _, node := range c.ring.nodes {
		np := nodePrograms{Node: node}
		if !c.healthy(node) {
			np.Error = "node is down"
			out = append(out, np)
			continue
		}
		status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/programs", nil)
		switch {
		case err != nil:
			np.Error = err.Error()
		case status != http.StatusOK:
			np.Error = fmt.Sprintf("HTTP %d", status)
		default:
			if err := json.Unmarshal(data, &np.Programs); err != nil {
				np.Error = err.Error()
			}
		}
		out = append(out, np)
	}
	writeJSON(w, http.StatusOK, out)
}

// handleMetrics serves the local metrics report with the cluster section
// grafted on; ?scope=cluster scatter-gathers every node's full report.
// ?format=prometheus renders the local exposition with the eva_cluster_*
// families appended (Prometheus scrapes each node; it does not scatter).
func (c *Cluster) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := c.local.WritePrometheus(w); err != nil {
			return
		}
		c.writePrometheus(w)
		return
	}
	type clusterReport struct {
		serve.MetricsReport
		Cluster Stats `json:"cluster"`
	}
	local := clusterReport{MetricsReport: c.local.MetricsReport(), Cluster: c.Stats()}
	if r.Header.Get(headerForwarded) != "" || r.URL.Query().Get("scope") != "cluster" {
		writeJSON(w, http.StatusOK, local)
		return
	}
	nodes := map[string]json.RawMessage{}
	for _, node := range c.ring.nodes {
		if c.isSelf(node) {
			data, _ := json.Marshal(local)
			nodes[node] = data
			continue
		}
		if !c.healthy(node) {
			nodes[node] = json.RawMessage(`{"error":"node is down"}`)
			continue
		}
		status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/metrics", nil)
		if err != nil || status != http.StatusOK {
			msg, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("unreachable: %v (HTTP %d)", err, status)})
			nodes[node] = msg
			continue
		}
		nodes[node] = data
	}
	writeJSON(w, http.StatusOK, map[string]any{"scope": "cluster", "nodes": nodes})
}

// handleProfile serves the local instruction-profiler report; ?scope=cluster
// scatter-gathers every node's report and folds them into one cluster-wide
// view ("merged") alongside the raw per-node reports. Each instruction is
// sampled by exactly one node, so summing bucket counters across nodes never
// double-counts.
func (c *Cluster) handleProfile(w http.ResponseWriter, r *http.Request) {
	if r.Header.Get(headerForwarded) != "" || r.URL.Query().Get("scope") != "cluster" {
		c.local.Handler().ServeHTTP(w, r)
		return
	}
	nodes := map[string]json.RawMessage{}
	reports := make([]profile.Report, 0, len(c.ring.nodes))
	for _, node := range c.ring.nodes {
		if c.isSelf(node) {
			rep := c.local.Profiles().Report()
			reports = append(reports, rep)
			data, _ := json.Marshal(rep)
			nodes[node] = data
			continue
		}
		if !c.healthy(node) {
			nodes[node] = json.RawMessage(`{"error":"node is down"}`)
			continue
		}
		status, data, err := c.roundTrip(r.Context(), node, http.MethodGet, "/profile", nil)
		if err != nil || status != http.StatusOK {
			msg, _ := json.Marshal(map[string]string{"error": fmt.Sprintf("unreachable: %v (HTTP %d)", err, status)})
			nodes[node] = msg
			continue
		}
		var rep profile.Report
		if err := json.Unmarshal(data, &rep); err != nil {
			msg, _ := json.Marshal(map[string]string{"error": err.Error()})
			nodes[node] = msg
			continue
		}
		reports = append(reports, rep)
		nodes[node] = data
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"scope":  "cluster",
		"nodes":  nodes,
		"merged": profile.MergeReports(c.cfg.Self, reports),
	})
}

// writePrometheus appends the cluster tier's families to an exposition the
// serve layer already wrote.
func (c *Cluster) writePrometheus(w io.Writer) error {
	st := c.Stats()
	p := obs.NewPromWriter(w)
	p.Meta("eva_cluster_nodes", "Cluster members (including this node).", "gauge")
	p.Sample("eva_cluster_nodes", nil, float64(st.Nodes))
	healthy := 0
	for _, peer := range st.Peers {
		if peer.Healthy {
			healthy++
		}
	}
	p.Meta("eva_cluster_peers_healthy", "Peers currently believed alive.", "gauge")
	p.Sample("eva_cluster_peers_healthy", nil, float64(healthy))
	p.Meta("eva_cluster_routed_jobs", "Live routed-job records homed on this node.", "gauge")
	p.Sample("eva_cluster_routed_jobs", nil, float64(st.RoutedJobs))
	p.Meta("eva_cluster_requeues_total", "Routed jobs moved off a failed node.", "counter")
	p.Sample("eva_cluster_requeues_total", nil, float64(st.Requeues))
	p.Meta("eva_cluster_replication_errors_total", "Best-effort replications that failed.", "counter")
	p.Sample("eva_cluster_replication_errors_total", nil, float64(st.ReplicationErrors))
	if len(st.Forwarded) > 0 {
		routes := make([]string, 0, len(st.Forwarded))
		for route := range st.Forwarded {
			routes = append(routes, route)
		}
		sort.Strings(routes)
		p.Meta("eva_cluster_forwarded_total", "Requests proxied to a peer, by route.", "counter")
		for _, route := range routes {
			p.Sample("eva_cluster_forwarded_total", map[string]string{"route": route}, float64(st.Forwarded[route]))
		}
	}
	if len(st.Served) > 0 {
		routes := make([]string, 0, len(st.Served))
		for route := range st.Served {
			routes = append(routes, route)
		}
		sort.Strings(routes)
		p.Meta("eva_cluster_served_total", "Requests handled locally, by route.", "counter")
		for _, route := range routes {
			p.Sample("eva_cluster_served_total", map[string]string{"route": route}, float64(st.Served[route]))
		}
	}
	return p.Err()
}

func truncate(data []byte) string {
	const n = 200
	if len(data) > n {
		return string(data[:n]) + "..."
	}
	return string(data)
}
