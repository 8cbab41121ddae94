package serve

import (
	"sync"
	"time"

	"eva/internal/coalesce"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/handle"
	"eva/internal/jobs"
	"eva/internal/obs"
	"eva/internal/store"
)

// Metrics aggregates service-level counters: per-route request counts, cache
// statistics (taken from the registry at report time), and execution counts.
// Per-opcode latency and cost-model units are the instruction profiler's
// (GET /profile, eva_profile_* families).
type Metrics struct {
	mu         sync.Mutex
	start      time.Time
	requests   map[string]*routeStats
	executions uint64
	execFailed uint64
	execTotal  time.Duration
	// plans sums what the plan mechanisms saved the executions (see
	// PlanMetrics for the fields).
	plans struct {
		hits, misses, fusedChains, fusedTerms, recycled uint64
	}
}

// routeStats is one route's request accounting: total count, counts per
// status class ("2xx".."5xx"), and a latency histogram.
type routeStats struct {
	count   uint64
	byClass map[string]uint64
	latency *obs.Histogram
}

// NewMetrics returns an empty metrics collector.
func NewMetrics() *Metrics {
	return &Metrics{
		start:    time.Now(),
		requests: map[string]*routeStats{},
	}
}

// statusClass buckets an HTTP status code ("2xx", "4xx", ...).
func statusClass(status int) string {
	if status < 100 || status > 599 {
		return "other"
	}
	return string([]byte{byte('0' + status/100), 'x', 'x'})
}

// RecordRequest counts one request against a route label with its response
// status code and handling latency, so shed 4xx traffic is distinguishable
// from served 2xx traffic.
func (m *Metrics) RecordRequest(route string, status int, d time.Duration) {
	m.mu.Lock()
	rs := m.requests[route]
	if rs == nil {
		rs = &routeStats{byClass: map[string]uint64{}, latency: obs.NewHistogram(obs.DurationBounds)}
		m.requests[route] = rs
	}
	rs.count++
	rs.byClass[statusClass(status)]++
	rs.latency.Observe(d.Seconds())
	m.mu.Unlock()
}

// RecordExecution folds one batch execution's statistics into the aggregate.
func (m *Metrics) RecordExecution(stats execute.RunStats) {
	m.mu.Lock()
	m.executions++
	m.execTotal += stats.WallTime
	m.plans.hits += uint64(stats.PlainCacheHits)
	m.plans.misses += uint64(stats.PlainCacheMisses)
	m.plans.fusedChains += uint64(stats.FusedChains)
	m.plans.fusedTerms += uint64(stats.FusedTerms)
	m.plans.recycled += uint64(stats.RecycledBuffers)
	m.mu.Unlock()
}

// RecordExecutionError counts one failed batch execution.
func (m *Metrics) RecordExecutionError() {
	m.mu.Lock()
	m.execFailed++
	m.mu.Unlock()
}

// MetricsReport is the JSON document served by GET /metrics.
type MetricsReport struct {
	Node          string            `json:"node,omitempty"`
	UptimeSeconds float64           `json:"uptime_seconds"`
	Requests      map[string]uint64 `json:"requests"`
	// RequestsByClass splits each route's count by status class, so 4xx
	// shed traffic is distinguishable from 2xx served traffic.
	RequestsByClass  map[string]map[string]uint64 `json:"requests_by_class"`
	Cache            CacheStats                   `json:"cache"`
	CacheHitRate     float64                      `json:"cache_hit_rate"`
	Executions       uint64                       `json:"executions"`
	ExecutionsFailed uint64                       `json:"executions_failed"`
	ExecTotalMS      float64                      `json:"execution_total_ms"`
	// Jobs reports the async execution subsystem: queue depth, running
	// jobs, admitted-versus-budget bytes, shed/rejected submissions, outcome
	// counters, and the summed queue wait.
	Jobs jobs.Stats `json:"jobs"`
	// Store reports the durable artifact store (entries and bytes per
	// artifact kind, hit/miss traffic); the registry's hit/miss of the
	// cache in front of it is in Cache.StoreLoads / Cache.StoreMisses.
	// Omitted when the server runs without durability.
	Store *store.Stats `json:"store,omitempty"`
	// Coalesce reports cross-request batching: batches dispatched, requests
	// coalesced, per-batch slot occupancy, and the amortized per-request
	// execution cost of the shared runs.
	Coalesce *coalesce.Stats `json:"coalesce,omitempty"`
	// Handles reports the content-addressed ciphertext handle registry:
	// resident entries and bytes against the quota, put/dedup/resolve
	// traffic, and sweep/quota rejections.
	Handles *handle.Stats `json:"handles,omitempty"`
	// Plans reports the compiled programs' plaintext caches: how many
	// registry programs have run, what their caches hold against the
	// process-wide budget, and what the executions so far got out of them.
	Plans PlanMetrics `json:"plans"`
}

// PlanMetrics is the "plans" section of the metrics report. The gauges
// describe the programs currently in the registry; the counters sum over
// every execution this server has run.
type PlanMetrics struct {
	// Plans is the number of registry programs that have run.
	Plans int `json:"plans"`
	// CachedPlaintexts and CachedBytes are what those plans' constant caches
	// hold; ProcessBytes is the whole process's cached bytes (it can exceed
	// CachedBytes: evicted programs still pinned by contexts hold none, but
	// other servers in the process may) against BudgetBytes.
	CachedPlaintexts int   `json:"cached_plaintexts"`
	CachedBytes      int64 `json:"cached_bytes"`
	ProcessBytes     int64 `json:"process_bytes"`
	BudgetBytes      int64 `json:"budget_bytes"`
	// Hits and Misses count constant operands served from a cache versus
	// encoded by the execution itself; HitRatio is hits/(hits+misses).
	Hits     uint64  `json:"hits"`
	Misses   uint64  `json:"misses"`
	HitRatio float64 `json:"hit_ratio"`
	// FusedChains and FusedTerms count the add chains evaluated as one
	// multiply-accumulate and the instructions they covered;
	// RecycledBuffers the ciphertext polynomials reused at last use.
	FusedChains     uint64 `json:"fused_chains"`
	FusedTerms      uint64 `json:"fused_terms"`
	RecycledBuffers uint64 `json:"recycled_buffers"`
}

// planMetrics assembles the plans section from the metrics' counters and a
// scan of the registry's programs.
func (s *Server) planMetrics() PlanMetrics {
	var pm PlanMetrics
	for _, e := range s.registry.List() {
		if ps, ok := compile.PlanStatsOf(e.Result); ok {
			pm.Plans++
			pm.CachedPlaintexts += ps.CachedPlaintexts
			pm.CachedBytes += ps.CachedBytes
		}
	}
	pm.ProcessBytes, pm.BudgetBytes = compile.PlanCacheBudget()
	m := s.metrics
	m.mu.Lock()
	pm.Hits, pm.Misses = m.plans.hits, m.plans.misses
	pm.FusedChains, pm.FusedTerms, pm.RecycledBuffers = m.plans.fusedChains, m.plans.fusedTerms, m.plans.recycled
	m.mu.Unlock()
	if total := pm.Hits + pm.Misses; total > 0 {
		pm.HitRatio = float64(pm.Hits) / float64(total)
	}
	return pm
}

// Report snapshots the metrics against the registry's cache counters, the
// job manager's queue counters, and the artifact store's contents.
func (m *Metrics) Report(cache CacheStats, jobStats jobs.Stats, storeStats *store.Stats) MetricsReport {
	m.mu.Lock()
	defer m.mu.Unlock()

	requests := make(map[string]uint64, len(m.requests))
	byClass := make(map[string]map[string]uint64, len(m.requests))
	for k, rs := range m.requests {
		requests[k] = rs.count
		classes := make(map[string]uint64, len(rs.byClass))
		for c, n := range rs.byClass {
			classes[c] = n
		}
		byClass[k] = classes
	}
	return MetricsReport{
		UptimeSeconds:    time.Since(m.start).Seconds(),
		Requests:         requests,
		RequestsByClass:  byClass,
		Cache:            cache,
		CacheHitRate:     cache.HitRate(),
		Executions:       m.executions,
		ExecutionsFailed: m.execFailed,
		ExecTotalMS:      float64(m.execTotal) / float64(time.Millisecond),
		Jobs:             jobStats,
		Store:            storeStats,
	}
}
