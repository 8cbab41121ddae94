package serve

import (
	"io"
	"sort"
	"time"

	"eva/internal/obs"
)

// WritePrometheus renders the full metrics surface in the Prometheus text
// exposition format: per-route request counters split by status class with
// latency histograms, cache/execution counters, jobs/store/coalesce gauges,
// the tracer's per-phase duration histograms, and the instruction profiler's
// eva_profile_* families (per-opcode latency among them). The JSON report
// (GET /metrics) is unchanged; this is GET /metrics?format=prometheus.
func (s *Server) WritePrometheus(w io.Writer) error {
	p := obs.NewPromWriter(w)

	m := s.metrics
	m.mu.Lock()
	uptime := time.Since(m.start).Seconds()
	routes := make([]string, 0, len(m.requests))
	for r := range m.requests {
		routes = append(routes, r)
	}
	sort.Strings(routes)

	p.Meta("eva_uptime_seconds", "Seconds since the server started.", "gauge")
	p.Sample("eva_uptime_seconds", nil, uptime)

	if len(routes) > 0 {
		p.Meta("eva_requests_total", "HTTP requests by route and status class.", "counter")
		for _, route := range routes {
			rs := m.requests[route]
			classes := make([]string, 0, len(rs.byClass))
			for c := range rs.byClass {
				classes = append(classes, c)
			}
			sort.Strings(classes)
			for _, c := range classes {
				p.Sample("eva_requests_total", map[string]string{"route": route, "code": c}, float64(rs.byClass[c]))
			}
		}
		p.Meta("eva_request_duration_seconds", "HTTP request handling latency by route.", "histogram")
		for _, route := range routes {
			p.Histogram("eva_request_duration_seconds", map[string]string{"route": route}, m.requests[route].latency.Snapshot())
		}
	}

	p.Meta("eva_executions_total", "Batch executions completed.", "counter")
	p.Sample("eva_executions_total", nil, float64(m.executions))
	p.Meta("eva_execution_errors_total", "Batch executions failed (cancellations excluded).", "counter")
	p.Sample("eva_execution_errors_total", nil, float64(m.execFailed))
	p.Meta("eva_execution_seconds_total", "Summed wall time of batch executions.", "counter")
	p.Sample("eva_execution_seconds_total", nil, m.execTotal.Seconds())

	m.mu.Unlock()

	cache := s.registry.Stats()
	p.Meta("eva_cache_entries", "Compiled programs resident in the registry cache.", "gauge")
	p.Sample("eva_cache_entries", nil, float64(cache.Size))
	p.Meta("eva_cache_hits_total", "Registry cache hits.", "counter")
	p.Sample("eva_cache_hits_total", nil, float64(cache.Hits))
	p.Meta("eva_cache_misses_total", "Registry cache misses.", "counter")
	p.Sample("eva_cache_misses_total", nil, float64(cache.Misses))
	p.Meta("eva_cache_evictions_total", "Registry cache evictions.", "counter")
	p.Sample("eva_cache_evictions_total", nil, float64(cache.Evictions))

	pm := s.planMetrics()
	p.Meta("eva_plan_plans", "Registry programs that have run.", "gauge")
	p.Sample("eva_plan_plans", nil, float64(pm.Plans))
	p.Meta("eva_plan_cached_plaintexts", "Program constants held encoded in the plans' caches.", "gauge")
	p.Sample("eva_plan_cached_plaintexts", nil, float64(pm.CachedPlaintexts))
	p.Meta("eva_plan_cached_bytes", "Bytes held by the registry programs' plan caches.", "gauge")
	p.Sample("eva_plan_cached_bytes", nil, float64(pm.CachedBytes))
	p.Meta("eva_plan_process_bytes", "Bytes held by every plan cache of the process.", "gauge")
	p.Sample("eva_plan_process_bytes", nil, float64(pm.ProcessBytes))
	p.Meta("eva_plan_budget_bytes", "Process-wide byte budget of the plan caches.", "gauge")
	p.Sample("eva_plan_budget_bytes", nil, float64(pm.BudgetBytes))
	p.Meta("eva_plan_cache_hits_total", "Constant operands served ready-encoded from a plan cache.", "counter")
	p.Sample("eva_plan_cache_hits_total", nil, float64(pm.Hits))
	p.Meta("eva_plan_cache_misses_total", "Constant operands an execution had to encode itself.", "counter")
	p.Sample("eva_plan_cache_misses_total", nil, float64(pm.Misses))
	p.Meta("eva_plan_fused_chains_total", "Add chains evaluated as one fused multiply-accumulate.", "counter")
	p.Sample("eva_plan_fused_chains_total", nil, float64(pm.FusedChains))
	p.Meta("eva_plan_fused_terms_total", "Instructions covered by fused chains.", "counter")
	p.Sample("eva_plan_fused_terms_total", nil, float64(pm.FusedTerms))
	p.Meta("eva_plan_recycled_buffers_total", "Ciphertext polynomials returned to an evaluator pool at last use.", "counter")
	p.Sample("eva_plan_recycled_buffers_total", nil, float64(pm.RecycledBuffers))

	js := s.jobs.Stats()
	p.Meta("eva_jobs_queue_depth", "Jobs waiting for a worker.", "gauge")
	p.Sample("eva_jobs_queue_depth", nil, float64(js.QueueDepth))
	p.Meta("eva_jobs_running", "Jobs currently executing.", "gauge")
	p.Sample("eva_jobs_running", nil, float64(js.Running))
	p.Meta("eva_jobs_admitted_bytes", "Estimated resident bytes of admitted jobs.", "gauge")
	p.Sample("eva_jobs_admitted_bytes", nil, float64(js.AdmittedBytes))
	p.Meta("eva_jobs_budget_bytes", "Admission-control memory budget.", "gauge")
	p.Sample("eva_jobs_budget_bytes", nil, float64(js.BudgetBytes))
	p.Meta("eva_jobs_submitted_total", "Jobs admitted.", "counter")
	p.Sample("eva_jobs_submitted_total", nil, float64(js.Submitted))
	p.Meta("eva_jobs_completed_total", "Jobs finished successfully.", "counter")
	p.Sample("eva_jobs_completed_total", nil, float64(js.Completed))
	p.Meta("eva_jobs_failed_total", "Jobs that failed.", "counter")
	p.Sample("eva_jobs_failed_total", nil, float64(js.Failed))
	p.Meta("eva_jobs_cancelled_total", "Jobs cancelled.", "counter")
	p.Sample("eva_jobs_cancelled_total", nil, float64(js.Cancelled))
	p.Meta("eva_jobs_shed_total", "Submissions shed by queue or budget pressure.", "counter")
	p.Sample("eva_jobs_shed_total", nil, float64(js.Shed))
	p.Meta("eva_jobs_rejected_total", "Submissions rejected as too large for the budget.", "counter")
	p.Sample("eva_jobs_rejected_total", nil, float64(js.Rejected))
	p.Meta("eva_jobs_wait_seconds_total", "Summed queue wait of started jobs.", "counter")
	p.Sample("eva_jobs_wait_seconds_total", nil, js.TotalWaitMillis/1000)

	cs := s.coalescer.Stats()
	p.Meta("eva_coalesce_open_waiters", "Callers waiting in unsealed batches.", "gauge")
	p.Sample("eva_coalesce_open_waiters", nil, float64(cs.OpenWaiters))
	p.Meta("eva_coalesce_batches_total", "Coalesced batches dispatched.", "counter")
	p.Sample("eva_coalesce_batches_total", nil, float64(cs.Batches))
	p.Meta("eva_coalesce_requests_total", "Callers sealed into dispatched batches.", "counter")
	p.Sample("eva_coalesce_requests_total", nil, float64(cs.Requests))
	p.Meta("eva_coalesce_evicted_total", "Callers cancelled before their batch sealed.", "counter")
	p.Sample("eva_coalesce_evicted_total", nil, float64(cs.Evicted))
	p.Meta("eva_coalesce_abandoned_total", "Callers cancelled after their batch sealed.", "counter")
	p.Sample("eva_coalesce_abandoned_total", nil, float64(cs.Abandoned))
	p.Meta("eva_coalesce_occupancy", "Cumulative slot occupancy of dispatched batches.", "gauge")
	p.Sample("eva_coalesce_occupancy", nil, cs.Occupancy)

	if s.cfg.Store != nil {
		ss := s.cfg.Store.Stats()
		p.Meta("eva_store_entries", "Artifacts resident in the durable store.", "gauge")
		p.Sample("eva_store_entries", nil, float64(ss.Entries))
		p.Meta("eva_store_bytes", "Bytes resident in the durable store.", "gauge")
		p.Sample("eva_store_bytes", nil, float64(ss.Bytes))
		p.Meta("eva_store_gets_total", "Store read operations.", "counter")
		p.Sample("eva_store_gets_total", nil, float64(ss.Gets))
		p.Meta("eva_store_puts_total", "Store write operations.", "counter")
		p.Sample("eva_store_puts_total", nil, float64(ss.Puts))
		p.Meta("eva_store_misses_total", "Store reads that found nothing.", "counter")
		p.Sample("eva_store_misses_total", nil, float64(ss.Misses))
	}

	hs := s.handles.Stats()
	p.Meta("eva_handles_entries", "Ciphertext handles resident in the registry.", "gauge")
	p.Sample("eva_handles_entries", nil, float64(hs.Entries))
	p.Meta("eva_handles_bytes", "Bytes resident in the handle registry.", "gauge")
	p.Sample("eva_handles_bytes", nil, float64(hs.Bytes))
	p.Meta("eva_handles_quota_bytes", "Configured handle byte quota.", "gauge")
	p.Sample("eva_handles_quota_bytes", nil, float64(hs.QuotaBytes))
	p.Meta("eva_handles_puts_total", "Handles stored.", "counter")
	p.Sample("eva_handles_puts_total", nil, float64(hs.Puts))
	p.Meta("eva_handles_dedups_total", "Handle puts that hit an existing content address.", "counter")
	p.Sample("eva_handles_dedups_total", nil, float64(hs.Dedups))
	p.Meta("eva_handles_resolves_total", "Handle reads (input resolution and fetches).", "counter")
	p.Sample("eva_handles_resolves_total", nil, float64(hs.Resolves))
	p.Meta("eva_handles_misses_total", "Handle reads of unknown ids.", "counter")
	p.Sample("eva_handles_misses_total", nil, float64(hs.Misses))
	p.Meta("eva_handles_deletes_total", "Handles deleted.", "counter")
	p.Sample("eva_handles_deletes_total", nil, float64(hs.Deletes))
	p.Meta("eva_handles_swept_total", "Handles reclaimed by retention sweeps.", "counter")
	p.Sample("eva_handles_swept_total", nil, float64(hs.Swept))
	p.Meta("eva_handles_quota_rejected_total", "Handle puts refused by the byte quota.", "counter")
	p.Sample("eva_handles_quota_rejected_total", nil, float64(hs.QuotaRejected))

	phases := s.tracer.PhaseHistograms()
	if len(phases) > 0 {
		names := make([]string, 0, len(phases))
		for name := range phases {
			names = append(names, name)
		}
		sort.Strings(names)
		p.Meta("eva_trace_phase_duration_seconds", "Span durations of finished traces by phase.", "histogram")
		for _, name := range names {
			p.Histogram("eva_trace_phase_duration_seconds", map[string]string{"phase": name}, phases[name])
		}
	}

	s.profiles.WriteProm(p)
	return p.Err()
}
