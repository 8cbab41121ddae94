package serve

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"eva/internal/execute"
	"eva/internal/obs"
	"eva/internal/store"
)

// TestJobTraceEndToEnd: a submitted job answers with a trace id (header and
// body), and GET /jobs/{id}/trace yields a span tree whose execute spans
// carry per-opcode totals matching the opcodes the program runs.
func TestJobTraceEndToEnd(t *testing.T) {
	f := newJobsFixture(t, Config{Store: store.NewMemory()})
	status, resp := f.submit(t, 2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	if resp.Header.Get(obs.TraceHeader) == "" {
		t.Error("submit response carries no X-Eva-Trace header")
	}
	if status.TraceID == "" {
		t.Fatalf("submit response carries no trace_id: %+v", status)
	}
	if got := resp.Header.Get(obs.TraceHeader); got != status.TraceID {
		t.Errorf("header trace id %q != body trace id %q", got, status.TraceID)
	}
	waitJobDone(t, f.client, f.url, status.JobID)

	tr := getJSON[obs.TraceJSON](t, f.client, f.url+"/jobs/"+status.JobID+"/trace")
	if tr.TraceID != status.TraceID {
		t.Errorf("trace id %q; want %q", tr.TraceID, status.TraceID)
	}
	if tr.JobID != status.JobID {
		t.Errorf("trace job id %q; want %q", tr.JobID, status.JobID)
	}
	if !tr.Finished {
		t.Error("trace not finished after the job completed")
	}

	// Collect span names and execute-span attrs from the tree.
	names := map[string]int{}
	var execAttrs []map[string]string
	var walk func(spans []obs.SpanJSON)
	walk = func(spans []obs.SpanJSON) {
		for _, sp := range spans {
			names[sp.Name]++
			if sp.Name == "execute" {
				execAttrs = append(execAttrs, sp.Attrs)
			}
			walk(sp.Children)
		}
	}
	walk(tr.Spans)
	for _, want := range []string{"route:jobs_submit", "admission", "queue_wait", "store_write"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from trace (have %v)", want, names)
		}
	}
	if names["execute"] != 2 {
		t.Errorf("%d execute spans; want 2 (one per batch)", names["execute"])
	}
	// The e2e program squares (RELINEARIZE+RESCALE), rotates, multiplies:
	// each execute span's per-op attrs must name those opcodes.
	for i, attrs := range execAttrs {
		for _, op := range []string{"MULTIPLY", "RELINEARIZE", "RESCALE", "ROTATE_LEFT"} {
			if _, ok := attrs["op."+op+"_ms"]; !ok {
				t.Errorf("execute span %d: missing op.%s_ms attr (have %v)", i, op, attrs)
			}
		}
		if attrs["instructions_done"] == "" || attrs["instructions_done"] != attrs["instructions_total"] {
			t.Errorf("execute span %d: instruction progress %q/%q not complete",
				i, attrs["instructions_done"], attrs["instructions_total"])
		}
	}

	// The finished trace is also visible in the ring.
	traces := getJSON[TracesResponse](t, f.client, f.url+"/traces?limit=10")
	found := false
	for _, rt := range traces.Traces {
		if rt.TraceID == status.TraceID {
			found = true
		}
	}
	if !found {
		t.Errorf("trace %s not in GET /traces (got %d traces)", status.TraceID, traces.Count)
	}
}

// TestPrometheusConformance scrapes GET /metrics?format=prometheus after
// exercising the request, jobs, and store paths, and validates the output
// with the strict exposition parser: well-formed families, consistent
// histograms, and the families an operator's dashboards depend on.
func TestPrometheusConformance(t *testing.T) {
	f := newJobsFixture(t, Config{Store: store.NewMemory()})
	status, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	waitJobDone(t, f.client, f.url, status.JobID)
	// A 404 so the per-route counters carry a non-2xx class.
	if r, err := f.client.Get(f.url + "/jobs/nope"); err == nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	r, err := f.client.Get(f.url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q; want the 0.0.4 text exposition", ct)
	}
	data, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	families, err := obs.ParseExposition(data)
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, data)
	}
	for _, name := range []string{
		"eva_uptime_seconds",
		"eva_requests_total",
		"eva_request_duration_seconds",
		"eva_executions_total",
		"eva_profile_op_duration_seconds",
		"eva_cache_entries",
		"eva_jobs_submitted_total",
		"eva_jobs_queue_depth",
		"eva_coalesce_batches_total",
		"eva_store_entries",
		"eva_trace_phase_duration_seconds",
		"eva_plan_plans",
		"eva_plan_cached_plaintexts",
		"eva_plan_cached_bytes",
		"eva_plan_process_bytes",
		"eva_plan_budget_bytes",
		"eva_plan_cache_hits_total",
		"eva_plan_cache_misses_total",
		"eva_plan_fused_chains_total",
		"eva_plan_fused_terms_total",
		"eva_plan_recycled_buffers_total",
	} {
		if _, ok := families[name]; !ok {
			t.Errorf("family %q missing from exposition", name)
		}
	}
	// Status classes must be distinguishable per route.
	req := families["eva_requests_total"]
	if req != nil {
		have2xx, have4xx := false, false
		for _, s := range req.Samples {
			switch s.Labels["code"] {
			case "2xx":
				have2xx = true
			case "4xx":
				have4xx = true
			}
		}
		if !have2xx || !have4xx {
			t.Errorf("eva_requests_total lacks status classes (2xx=%v 4xx=%v)", have2xx, have4xx)
		}
	}
	// The JSON report is unchanged by the Prometheus surface and still
	// carries the node id in single-node mode.
	report := getJSON[MetricsReport](t, f.client, f.url+"/metrics")
	if report.Node == "" {
		t.Error("MetricsReport.Node empty in single-node mode")
	}
	if len(report.Requests) == 0 || len(report.RequestsByClass) == 0 {
		t.Errorf("JSON report lost its request counters: %+v", report.Requests)
	}
	// The job ran the program once: one plan, its constant encoded and kept.
	if p := report.Plans; p.Plans != 1 || p.Misses == 0 || p.CachedPlaintexts == 0 || p.CachedBytes == 0 ||
		p.CachedBytes > p.ProcessBytes || p.BudgetBytes == 0 || p.RecycledBuffers == 0 {
		t.Errorf("JSON report's plans section: %+v", p)
	}
}

// TestMetricsTraceConcurrency hammers the metrics aggregation (Report,
// RecordExecution, RecordRequest, the Prometheus renderer) while traces
// start, span, and finish concurrently. Run under -race this is the
// data-race canary for the whole observability surface.
func TestMetricsTraceConcurrency(t *testing.T) {
	s := NewServer(Config{AllowServerKeygen: true})
	defer s.Close()

	const goroutines = 8
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0:
					s.metrics.RecordRequest("jobs_submit", 200+i%300, time.Duration(i)*time.Microsecond)
					s.metrics.RecordExecution(execute.RunStats{WallTime: time.Duration(i) * time.Microsecond})
				case 1:
					s.MetricsReport()
				case 2:
					tr := s.tracer.Start("")
					sp := tr.StartSpan("execute", nil)
					sp.SetAttr("i", "x")
					sp.Progress(i, iters)
					sp.End()
					tr.Release()
				case 3:
					if err := s.WritePrometheus(io.Discard); err != nil {
						t.Errorf("WritePrometheus: %v", err)
					}
					s.tracer.Recent(0, 16)
				}
			}
		}(g)
	}
	wg.Wait()

	if err := s.WritePrometheus(io.Discard); err != nil {
		t.Fatalf("final WritePrometheus: %v", err)
	}
}
