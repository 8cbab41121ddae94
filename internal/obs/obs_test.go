package obs

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceLifecycle(t *testing.T) {
	tr := NewTracer(TracerConfig{Node: "n1", capacity: 8})
	trace := tr.Start("")
	if trace.ID() == "" {
		t.Fatal("expected minted trace id")
	}
	root := trace.StartSpan("route:jobs_submit", nil)
	root.SetAttr("route", "jobs_submit")
	child := trace.StartSpan("queue_wait", root)
	child.Progress(3, 7)
	child.End()
	root.End()

	if _, ok := tr.Get(trace.ID()); !ok {
		t.Fatal("active trace should be queryable by id")
	}
	trace.BindJob("job-1")
	trace.Release()

	js, ok := tr.ByJob("job-1")
	if !ok {
		t.Fatal("finished trace should be queryable by job id")
	}
	if !js.Finished {
		t.Fatal("trace should be marked finished")
	}
	if len(js.Spans) != 1 || js.Spans[0].Name != "route:jobs_submit" {
		t.Fatalf("unexpected span tree: %+v", js.Spans)
	}
	if len(js.Spans[0].Children) != 1 || js.Spans[0].Children[0].Name != "queue_wait" {
		t.Fatalf("child span missing: %+v", js.Spans[0])
	}
	if got := js.Spans[0].Children[0].Attrs["instructions_done"]; got != "3" {
		t.Fatalf("progress not folded into attrs: %+v", js.Spans[0].Children[0].Attrs)
	}
	if got := js.Spans[0].Attrs["route"]; got != "jobs_submit" {
		t.Fatalf("attr missing: %+v", js.Spans[0].Attrs)
	}

	phases := tr.PhaseHistograms()
	if phases["queue_wait"].Count != 1 || phases["route:jobs_submit"].Count != 1 {
		t.Fatalf("phase histograms not fed: %+v", phases)
	}
}

func TestTraceRefcountMerge(t *testing.T) {
	tr := NewTracer(TracerConfig{capacity: 4})
	a := tr.Start("deadbeefdeadbeef")
	b := tr.Start("deadbeefdeadbeef") // a cluster self-call re-entering the node
	if a != b {
		t.Fatal("same active id should return the same trace")
	}
	a.StartSpan("outer", nil).End()
	b.Release()
	if _, ok := tr.Get("deadbeefdeadbeef"); !ok {
		t.Fatal("trace must stay active while references remain")
	}
	js, _ := tr.Get("deadbeefdeadbeef")
	if js.Finished {
		t.Fatal("trace must not be finished with a live reference")
	}
	a.Release()
	js, ok := tr.Get("deadbeefdeadbeef")
	if !ok || !js.Finished {
		t.Fatalf("trace should be finished and in the ring: ok=%v finished=%v", ok, js.Finished)
	}
}

func TestTraceHoldOutlivesRequest(t *testing.T) {
	tr := NewTracer(TracerConfig{capacity: 4})
	trace := tr.Start("")
	trace.Hold()    // async job takes a reference
	trace.Release() // HTTP exchange ends
	id := trace.ID()
	if js, _ := tr.Get(id); js.Finished {
		t.Fatal("held trace finished early")
	}
	trace.StartSpan("execute", nil).End()
	trace.Release() // job turns terminal
	js, ok := tr.Get(id)
	if !ok || !js.Finished || len(js.Spans) != 1 {
		t.Fatalf("unexpected final trace: ok=%v %+v", ok, js)
	}
}

func TestRecentFilters(t *testing.T) {
	tr := NewTracer(TracerConfig{capacity: 4})
	for i := 0; i < 6; i++ {
		trace := tr.Start("")
		trace.StartSpan(fmt.Sprintf("s%d", i), nil).End()
		trace.Release()
	}
	recent := tr.Recent(0, 0)
	if len(recent) != 4 {
		t.Fatalf("ring should cap at 4, got %d", len(recent))
	}
	// Newest first: the last-finished trace holds span s5.
	if recent[0].Spans[0].Name != "s5" {
		t.Fatalf("expected newest first, got %q", recent[0].Spans[0].Name)
	}
	if got := tr.Recent(0, 2); len(got) != 2 {
		t.Fatalf("limit not applied: %d", len(got))
	}
	if got := tr.Recent(time.Hour, 0); len(got) != 0 {
		t.Fatalf("min-duration filter not applied: %d", len(got))
	}
}

func TestSlowTraceLogged(t *testing.T) {
	var buf bytes.Buffer
	log := slog.New(slog.NewTextHandler(&buf, nil))
	tr := NewTracer(TracerConfig{capacity: 4, SlowThreshold: time.Nanosecond, Logger: log})
	trace := tr.Start("")
	sp := trace.StartSpan("execute", nil)
	time.Sleep(2 * time.Millisecond)
	sp.End()
	trace.BindJob("job-slow")
	trace.Release()
	out := buf.String()
	if !strings.Contains(out, "slow trace") || !strings.Contains(out, "phase.execute") {
		t.Fatalf("slow-trace breakdown missing: %q", out)
	}
	if !strings.Contains(out, "job_id=job-slow") {
		t.Fatalf("job id attr missing: %q", out)
	}
}

// TestMaxActiveBound: past the configured cap, Start still hands out a
// usable trace but stops tracking it, so a flood of concurrent requests
// cannot grow the active map without bound.
func TestMaxActiveBound(t *testing.T) {
	tr := NewTracer(TracerConfig{capacity: 4, maxActive: 2})
	t1 := tr.Start("trace-1")
	t2 := tr.Start("trace-2")
	t3 := tr.Start("trace-3")
	if _, ok := tr.Get("trace-1"); !ok {
		t.Fatal("first trace should be tracked")
	}
	if _, ok := tr.Get("trace-2"); !ok {
		t.Fatal("second trace should be tracked")
	}
	if _, ok := tr.Get("trace-3"); ok {
		t.Fatal("third trace should be shed by the maxActive bound")
	}
	// The shed trace still works as a recorder.
	sp := t3.StartSpan("execute", nil)
	sp.End()
	t3.Release()
	t1.Release()
	t2.Release()
	if _, ok := tr.Get("trace-1"); !ok {
		t.Fatal("released trace should land in the finished ring")
	}
}

func TestNilSafety(t *testing.T) {
	var tr *Tracer
	trace := tr.Start("x")
	trace.Hold()
	trace.Release()
	trace.BindJob("j")
	sp := trace.StartSpan("s", nil)
	sp.SetAttr("k", "v")
	sp.Progress(1, 2)
	sp.End()
	if trace.ID() != "" || trace.JobID() != "" {
		t.Fatal("nil trace must behave as empty")
	}
	if TraceFromContext(ContextWithTrace(context.Background(), nil)) != nil {
		t.Fatal("nil trace must not be stored in context")
	}
}

func TestContextRoundTrip(t *testing.T) {
	tr := NewTracer(TracerConfig{})
	trace := tr.Start("")
	defer trace.Release()
	ctx := ContextWithTrace(context.Background(), trace)
	if TraceFromContext(ctx) != trace {
		t.Fatal("trace lost in context")
	}
}

func TestTracerConcurrency(t *testing.T) {
	tr := NewTracer(TracerConfig{capacity: 16})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				trace := tr.Start("")
				trace.BindJob(fmt.Sprintf("job-%d-%d", g, i))
				sp := trace.StartSpan("work", nil)
				sp.Progress(i, 50)
				trace.StartSpan("inner", sp).End()
				sp.End()
				trace.Release()
				tr.Recent(0, 4)
				tr.PhaseHistograms()
			}
		}(g)
	}
	wg.Wait()
	if got := tr.PhaseHistograms()["work"].Count; got != 400 {
		t.Fatalf("expected 400 work spans, got %d", got)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 4 || s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 1 || s.Counts[3] != 1 {
		t.Fatalf("unexpected snapshot: %+v", s)
	}
	if s.Sum != 5.555 {
		t.Fatalf("unexpected sum: %v", s.Sum)
	}
}

func TestPromWriterRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Meta("eva_requests_total", "Requests by route and status class.", "counter")
	p.Sample("eva_requests_total", map[string]string{"route": "execute", "code": "2xx"}, 41)
	p.Sample("eva_requests_total", map[string]string{"route": "execute", "code": "4xx"}, 1)
	p.Meta("eva_queue_depth", "Queued jobs.", "gauge")
	p.Sample("eva_queue_depth", nil, 3)
	h := NewHistogram([]float64{0.001, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(7)
	p.Meta("eva_request_duration_seconds", "Request latency.", "histogram")
	p.Histogram("eva_request_duration_seconds", map[string]string{"route": "execute"}, h.Snapshot())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}

	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("own output must parse strictly: %v\n%s", err, buf.String())
	}
	if len(fams) != 3 {
		t.Fatalf("expected 3 families, got %d", len(fams))
	}
	reqs := fams["eva_requests_total"]
	if reqs.Type != "counter" || len(reqs.Samples) != 2 {
		t.Fatalf("unexpected counter family: %+v", reqs)
	}
	hist := fams["eva_request_duration_seconds"]
	if hist.Type != "histogram" || len(hist.Samples) != 5 { // 3 buckets (incl +Inf) + sum + count
		t.Fatalf("unexpected histogram family: %+v", hist)
	}
}

func TestPromWriterEscaping(t *testing.T) {
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Meta("eva_thing", `help with \ backslash`, "gauge")
	p.Sample("eva_thing", map[string]string{"path": `a"b\c` + "\n"}, 1)
	fams, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("escaped output must parse: %v\n%s", err, buf.String())
	}
	got := fams["eva_thing"].Samples[0].Labels["path"]
	if got != `a"b\c`+"\n" {
		t.Fatalf("label round-trip mangled: %q", got)
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"no type":            "eva_x 1\n",
		"bad name":           "# TYPE 9bad counter\n9bad 1\n",
		"bad type":           "# TYPE eva_x countr\neva_x 1\n",
		"duplicate series":   "# TYPE eva_x counter\neva_x 1\neva_x 2\n",
		"bad value":          "# TYPE eva_x counter\neva_x one\n",
		"unterminated label": "# TYPE eva_x counter\neva_x{a=\"b 1\n",
		"non-cumulative": "# TYPE eva_h histogram\n" +
			"eva_h_bucket{le=\"0.1\"} 5\neva_h_bucket{le=\"+Inf\"} 3\neva_h_sum 1\neva_h_count 3\n",
		"missing +Inf": "# TYPE eva_h histogram\n" +
			"eva_h_bucket{le=\"0.1\"} 5\neva_h_sum 1\neva_h_count 5\n",
		"inf != count": "# TYPE eva_h histogram\n" +
			"eva_h_bucket{le=\"+Inf\"} 4\neva_h_sum 1\neva_h_count 5\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition([]byte(in)); err == nil {
			t.Errorf("%s: expected parse error for %q", name, in)
		}
	}
}

func TestParseLevelAndNewLogger(t *testing.T) {
	if lvl, err := ParseLevel("warn"); err != nil || lvl != slog.LevelWarn {
		t.Fatalf("ParseLevel(warn) = %v, %v", lvl, err)
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("expected error for unknown level")
	}
	var buf bytes.Buffer
	log, err := NewLogger(&buf, slog.LevelInfo, "json")
	if err != nil {
		t.Fatal(err)
	}
	log.Info("hello", slog.String(LogTraceID, "abc"))
	if !strings.Contains(buf.String(), `"trace_id":"abc"`) {
		t.Fatalf("json log missing attr: %q", buf.String())
	}
	if _, err := NewLogger(&buf, slog.LevelInfo, "yaml"); err == nil {
		t.Fatal("expected error for unknown format")
	}
	NopLogger().Info("dropped")
}
