package cluster

import (
	"bytes"
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"eva/eva"
	"eva/internal/obs"
	"eva/internal/serve"
	"eva/internal/store"
)

// Forwarding headers. X-Eva-Forwarded carries the sender's node id and
// tells the receiving handler to serve locally instead of routing again;
// X-Eva-Hops bounds pathological forwarding chains if two nodes ever
// disagree about the membership.
const (
	headerForwarded = "X-Eva-Forwarded"
	headerHops      = "X-Eva-Hops"
	maxHops         = 3
)

// The tier's fixed bounds. The package's tests shrink some of them through
// Config's unexported fields.
const (
	// replicas is how many distinct nodes hold each context — the owner plus
	// replicas-1 successors, clamped to the cluster size.
	replicas = 2
	// vnodes is the virtual-node count per member on the hash ring.
	vnodes = 64
	// probeInterval is the background health-probe period.
	probeInterval = 2 * time.Second
	// probeTimeout bounds one health probe.
	probeTimeout = time.Second
	// routedJobRetention bounds how long a routed-job record outlives its
	// admission: the worker-side result is itself swept after the serve
	// layer's retention window, so a record this old can never deliver
	// again.
	routedJobRetention = 24 * time.Hour
	// retiredJobRetention bounds how long a delivered or cancelled record
	// lingers — it exists only so GET /jobs/{id}/trace can still find the
	// worker after the result is gone.
	retiredJobRetention = 10 * time.Minute
	// sweepInterval throttles the routed-job sweep piggybacked on the health
	// prober.
	sweepInterval = time.Minute
)

// Config configures a node's cluster tier.
type Config struct {
	// Self is this node's id. Ids are path-safe tokens without "~" (which
	// separates the home node from the suffix in routed job ids).
	Self string
	// Peers maps every *other* member's id to its base URL
	// (e.g. "http://node2:8080").
	Peers map[string]string
	// Store durably homes this node's routed-job records so requeue
	// decisions survive a router restart. Usually the same store the serve
	// layer uses; may be nil.
	Store store.Store
	// Logger receives structured cluster events (peer health transitions,
	// routed-job requeues). Nil discards them.
	Logger *slog.Logger

	// Zero means the constant of the same name. A negative probeInterval
	// turns the prober off, so health is driven only by forward failures
	// and explicit Probe calls.
	probeInterval                                          time.Duration
	routedJobRetention, retiredJobRetention, sweepInterval time.Duration
}

// Cluster is one node's view of the sharded tier: the ring, per-peer
// clients and health, and the routed-job table for jobs this node admitted
// as a router.
type Cluster struct {
	cfg      Config
	replicas int // replicas clamped to the cluster size
	local    *serve.Server
	ring     *ring
	clients  map[string]*eva.Client
	log      *slog.Logger

	mu    sync.Mutex
	peers map[string]*peerState
	cjobs map[string]*routedJob // key: id suffix (the part after "~")

	forwarded map[string]uint64 // route → forwards to a peer
	served    map[string]uint64 // route → handled locally
	requeues  uint64
	replErrs  uint64
	lastSweep time.Time

	stopProbe chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

type peerState struct {
	url       string
	healthy   bool
	lastProbe time.Time
	lastErr   string
}

// validNodeID rejects ids that would break routing syntax or store paths.
func validNodeID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '-' || c == '_' || c == '.':
		default:
			return false
		}
	}
	return true
}

// New builds the cluster tier for a local server. The membership is static:
// Self plus every peer in cfg.Peers. Routed-job records found in the store
// (a router restart) are reloaded so their jobs remain reachable and
// requeueable.
func New(local *serve.Server, cfg Config) (*Cluster, error) {
	if local == nil {
		return nil, fmt.Errorf("cluster: nil local server")
	}
	if !validNodeID(cfg.Self) {
		return nil, fmt.Errorf("cluster: invalid node id %q", cfg.Self)
	}
	members := []string{cfg.Self}
	clients := map[string]*eva.Client{}
	peers := map[string]*peerState{}
	for id, url := range cfg.Peers {
		if !validNodeID(id) {
			return nil, fmt.Errorf("cluster: invalid peer id %q", id)
		}
		if id == cfg.Self {
			continue // tolerate a peer list that includes ourselves
		}
		if url == "" {
			return nil, fmt.Errorf("cluster: peer %q has no URL", id)
		}
		members = append(members, id)
		clients[id] = eva.NewClient(url)
		// Optimistically healthy: the first request finds out, and marking
		// down on a forward failure is immediate.
		peers[id] = &peerState{url: url, healthy: true}
	}
	r, err := newRing(members, vnodes)
	if err != nil {
		return nil, err
	}
	cfg.probeInterval = cmp.Or(cfg.probeInterval, probeInterval)
	cfg.routedJobRetention = cmp.Or(cfg.routedJobRetention, routedJobRetention)
	cfg.retiredJobRetention = cmp.Or(cfg.retiredJobRetention, retiredJobRetention)
	cfg.sweepInterval = cmp.Or(cfg.sweepInterval, sweepInterval)
	logger := cfg.Logger
	if logger == nil {
		logger = obs.NopLogger()
	}
	c := &Cluster{
		cfg:       cfg,
		replicas:  min(replicas, len(members)),
		local:     local,
		ring:      r,
		clients:   clients,
		log:       logger.With(slog.String(obs.LogNodeID, cfg.Self)),
		peers:     peers,
		cjobs:     map[string]*routedJob{},
		forwarded: map[string]uint64{},
		served:    map[string]uint64{},
		stopProbe: make(chan struct{}),
	}
	c.loadRoutedJobs()
	// Execution-time handle resolution: a job routed here may reference a
	// handle stored on the node its uploader talked to. The serve layer
	// calls this when its local registry misses.
	local.SetHandleFetcher(c.fetchHandleFromPeers)
	if cfg.probeInterval > 0 && len(peers) > 0 {
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Close stops the background prober. It does not touch the local server.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() { close(c.stopProbe) })
	c.probeWG.Wait()
}

// Nodes returns the sorted member ids.
func (c *Cluster) Nodes() []string { return append([]string(nil), c.ring.nodes...) }

// ContextCandidates returns the nodes that should hold a context, owner
// first. Exported for tooling (evaload's kill-the-owner smoke targets it).
func (c *Cluster) ContextCandidates(contextID string) []string {
	return c.ring.successors("ctx/"+contextID, c.replicas)
}

func (c *Cluster) programCandidates(programID string) []string {
	return c.ring.successors("prog/"+programID, c.replicas)
}

func (c *Cluster) isSelf(node string) bool { return node == c.cfg.Self }

// healthy reports whether a node is believed alive. Self is always healthy.
func (c *Cluster) healthy(node string) bool {
	if c.isSelf(node) {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.peers[node]
	return ok && p.healthy
}

// firstHealthy picks the first healthy node from candidates, excluding any
// in skip. ok is false when every candidate is down.
func (c *Cluster) firstHealthy(candidates []string, skip ...string) (string, bool) {
next:
	for _, n := range candidates {
		for _, s := range skip {
			if n == s {
				continue next
			}
		}
		if c.healthy(n) {
			return n, true
		}
	}
	return "", false
}

func (c *Cluster) markDown(node string, err error) {
	if c.isSelf(node) {
		return
	}
	wentDown := false
	c.mu.Lock()
	if p, ok := c.peers[node]; ok {
		wentDown = p.healthy
		p.healthy = false
		p.lastProbe = time.Now()
		if err != nil {
			p.lastErr = err.Error()
		}
	}
	c.mu.Unlock()
	if wentDown {
		attrs := []any{slog.String("peer", node)}
		if err != nil {
			attrs = append(attrs, slog.String("error", err.Error()))
		}
		c.log.Warn("peer marked down", attrs...)
	}
}

func (c *Cluster) markUp(node string) {
	if c.isSelf(node) {
		return
	}
	recovered := false
	c.mu.Lock()
	if p, ok := c.peers[node]; ok {
		recovered = !p.healthy
		p.healthy = true
		p.lastProbe = time.Now()
		p.lastErr = ""
	}
	c.mu.Unlock()
	if recovered {
		c.log.Info("peer recovered", slog.String("peer", node))
	}
}

// probeLoop drives periodic health probes until Close.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	ticker := time.NewTicker(c.cfg.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopProbe:
			return
		case <-ticker.C:
			c.Probe(context.Background())
		}
	}
}

// Probe health-checks every peer once and requeues routed jobs assigned to
// peers that turned out dead. Exported so tests (and a deliberate operator
// action) can force a probe cycle instead of waiting for the ticker.
func (c *Cluster) Probe(ctx context.Context) {
	c.mu.Lock()
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	c.mu.Unlock()
	var wentDown []string
	for _, id := range ids {
		pctx, cancel := context.WithTimeout(ctx, probeTimeout)
		_, err := c.clients[id].Health(pctx)
		cancel()
		if err != nil {
			wasHealthy := c.healthy(id)
			c.markDown(id, err)
			if wasHealthy {
				wentDown = append(wentDown, id)
			}
		} else {
			c.markUp(id)
		}
	}
	// Owner-down failover: move this router's jobs off freshly dead nodes
	// without waiting for a client poll to notice.
	for _, id := range wentDown {
		c.requeueJobsOn(id)
	}
	c.sweepRoutedJobs()
}

// sweepRoutedJobs drops records for jobs abandoned past the configured
// retention windows, bounding the router table and its store kind. Runs at
// most once per sweepInterval (piggybacked on the health prober).
func (c *Cluster) sweepRoutedJobs() {
	c.mu.Lock()
	if time.Since(c.lastSweep) < c.cfg.sweepInterval {
		c.mu.Unlock()
		return
	}
	c.lastSweep = time.Now()
	cutoff := time.Now().Add(-c.cfg.routedJobRetention)
	retiredCutoff := time.Now().Add(-c.cfg.retiredJobRetention)
	var expired []*routedJob
	for _, rec := range c.cjobs {
		switch {
		case rec.Delivered || rec.Cancelled:
			at := rec.RetiredAt
			if at.IsZero() {
				at = rec.CreatedAt
			}
			if at.Before(retiredCutoff) {
				expired = append(expired, rec)
			}
		case rec.CreatedAt.Before(cutoff):
			expired = append(expired, rec)
		}
	}
	c.mu.Unlock()
	for _, rec := range expired {
		c.dropRoutedJob(rec)
	}
}

// roundTrip performs one node-to-node (or node-to-self) API call and
// captures the full response. Self-calls short-circuit through the local
// handler; peer calls go through the peer's eva.Client and mark the peer
// down on transport failure.
func (c *Cluster) roundTrip(ctx context.Context, node, method, path string, body []byte) (int, []byte, error) {
	// Node-to-node calls carry the originating trace id (when the caller's
	// context has one) so the receiving serve layer adopts it instead of
	// minting a fresh trace.
	traceID := ""
	if t := obs.TraceFromContext(ctx); t != nil {
		traceID = t.ID()
	}
	if c.isSelf(node) {
		rec := httptest.NewRecorder()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, path, rd)
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(headerForwarded, c.cfg.Self)
		if traceID != "" {
			req.Header.Set(obs.TraceHeader, traceID)
		}
		c.local.Handler().ServeHTTP(rec, req)
		return rec.Code, rec.Body.Bytes(), nil
	}
	client, ok := c.clients[node]
	if !ok {
		return 0, nil, fmt.Errorf("cluster: unknown node %q", node)
	}
	header := http.Header{}
	header.Set("Content-Type", "application/json")
	header.Set(headerForwarded, c.cfg.Self)
	if traceID != "" {
		header.Set(obs.TraceHeader, traceID)
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	resp, err := client.DoRaw(ctx, method, path, header, rd)
	if err != nil {
		c.markDown(node, err)
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.markDown(node, err)
		return 0, nil, err
	}
	return resp.StatusCode, data, nil
}

// newSuffix mints the random half of a routed-job or context id.
func newSuffix() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("cluster: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// splitJobID splits a routed job id "<home>~<suffix>"; ok is false for
// plain single-node job ids.
func splitJobID(id string) (home, suffix string, ok bool) {
	home, suffix, ok = strings.Cut(id, "~")
	return home, suffix, ok && home != "" && suffix != ""
}

// PeerStatus is one row of the cluster metrics section.
type PeerStatus struct {
	ID        string `json:"id"`
	URL       string `json:"url,omitempty"`
	Healthy   bool   `json:"healthy"`
	LastProbe string `json:"last_probe,omitempty"`
	LastError string `json:"last_error,omitempty"`
}

// Stats is the "cluster" section of GET /metrics.
type Stats struct {
	Self     string       `json:"self"`
	Nodes    int          `json:"nodes"`
	Replicas int          `json:"replicas"`
	Peers    []PeerStatus `json:"peers"`
	// Forwarded and Served count requests per route that this node proxied
	// to a peer versus handled locally.
	Forwarded map[string]uint64 `json:"forwarded"`
	Served    map[string]uint64 `json:"served_locally"`
	// RoutedJobs is the number of live routed-job records this node homes;
	// Requeues counts owner-down failovers; ReplicationErrors counts
	// best-effort context/program replications that failed.
	RoutedJobs        int    `json:"routed_jobs"`
	Requeues          uint64 `json:"requeues"`
	ReplicationErrors uint64 `json:"replication_errors"`
}

// Stats snapshots the cluster counters.
func (c *Cluster) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{
		Self:      c.cfg.Self,
		Nodes:     len(c.ring.nodes),
		Replicas:  c.replicas,
		Forwarded: map[string]uint64{},
		Served:    map[string]uint64{},
		RoutedJobs: func() int {
			n := 0
			for _, rec := range c.cjobs {
				if !rec.Delivered && !rec.Cancelled {
					n++
				}
			}
			return n
		}(),
		Requeues:          c.requeues,
		ReplicationErrors: c.replErrs,
	}
	for k, v := range c.forwarded {
		st.Forwarded[k] = v
	}
	for k, v := range c.served {
		st.Served[k] = v
	}
	ids := make([]string, 0, len(c.peers))
	for id := range c.peers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		p := c.peers[id]
		ps := PeerStatus{ID: id, URL: p.url, Healthy: p.healthy, LastError: p.lastErr}
		if !p.lastProbe.IsZero() {
			ps.LastProbe = p.lastProbe.UTC().Format(time.RFC3339)
		}
		st.Peers = append(st.Peers, ps)
	}
	return st
}

func (c *Cluster) countForwarded(route string) {
	c.mu.Lock()
	c.forwarded[route]++
	c.mu.Unlock()
}

func (c *Cluster) countServed(route string) {
	c.mu.Lock()
	c.served[route]++
	c.mu.Unlock()
}

func (c *Cluster) countReplErr() {
	c.mu.Lock()
	c.replErrs++
	c.mu.Unlock()
}

// writeJSON mirrors the serve layer's error body shape so clients see one
// uniform API regardless of which layer answered.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}
