// Package obs is the serving stack's observability layer: request tracing
// with cross-node propagation, latency histograms, a Prometheus text
// exposition writer, and log/slog construction helpers — all with zero
// external dependencies.
//
// A trace is minted at ingress (or adopted from the X-Eva-Trace header when
// a cluster peer forwarded the request) and accumulates spans for every
// phase the request crosses: route handling, compilation, admission, queue
// wait, coalesce wait, execution, store writes, and cluster proxying.
// Traces are reference counted so a trace can outlive the HTTP exchange
// that started it — an async job holds a reference until it turns terminal
// — and finished traces land in a bounded ring buffer served by
// GET /traces and GET /jobs/{id}/trace. Span durations are folded into
// per-phase histograms for the Prometheus exposition, and traces slower
// than a configurable threshold are logged with a structured breakdown.
package obs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader carries a request's trace id. evaserve returns it on every
// response and adopts it from incoming requests, and the cluster tier
// propagates it alongside X-Eva-Forwarded on every hop, so one id follows a
// request across the whole cluster.
const TraceHeader = "X-Eva-Trace"

// Log attribute keys shared by every package that logs through obs, so one
// grep (or one structured query) follows an id across layers.
const (
	LogTraceID = "trace_id"
	LogNodeID  = "node"
	LogJobID   = "job_id"
)

// NewTraceID mints a 16-hex-digit trace id.
func NewTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing means the process is in serious trouble; a
		// constant id keeps tracing degraded-but-harmless instead of fatal.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// Span is one timed phase of a trace. All methods are nil-receiver safe, so
// instrumented code paths need no "is tracing on" guards.
type Span struct {
	t      *Trace
	id     int
	parent int // 0 = no parent (span ids start at 1)
	name   string
	start  time.Time
	end    time.Time
	attrs  map[string]string

	// progress is updated lock-free from the executor's per-instruction
	// callback and folded into the attrs when the span ends.
	progDone  atomic.Int64
	progTotal atomic.Int64
}

// SetAttr attaches a key/value to the span.
func (sp *Span) SetAttr(key, value string) {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	if sp.attrs == nil {
		sp.attrs = map[string]string{}
	}
	sp.attrs[key] = value
	sp.t.mu.Unlock()
}

// Progress records instruction progress (done of total instructions). It is
// cheap enough to call from the executor's per-instruction callback.
func (sp *Span) Progress(done, total int) {
	if sp == nil {
		return
	}
	sp.progDone.Store(int64(done))
	sp.progTotal.Store(int64(total))
}

// End closes the span. Ending an already-ended span is a no-op.
func (sp *Span) End() {
	if sp == nil {
		return
	}
	sp.t.mu.Lock()
	if sp.end.IsZero() {
		sp.end = time.Now()
		sp.foldProgressLocked()
	}
	sp.t.mu.Unlock()
}

func (sp *Span) foldProgressLocked() {
	if total := sp.progTotal.Load(); total > 0 {
		if sp.attrs == nil {
			sp.attrs = map[string]string{}
		}
		sp.attrs["instructions_done"] = itoa64(sp.progDone.Load())
		sp.attrs["instructions_total"] = itoa64(total)
	}
}

// Trace is one request's (or job's) span collection. A trace stays active —
// queryable by id or job id, accepting new spans — until its reference
// count drops to zero; Start and Hold take references, Release drops one.
type Trace struct {
	tr    *Tracer
	id    string
	node  string
	start time.Time

	mu     sync.Mutex
	spans  []*Span
	nextID int
	jobID  string
	refs   int
	end    time.Time
	done   bool
}

// ID returns the trace id ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// JobID returns the bound job id, if any.
func (t *Trace) JobID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobID
}

// BindJob associates the trace with a job id so GET /jobs/{id}/trace can
// find it. Bind before the job becomes runnable to avoid racing its finish.
func (t *Trace) BindJob(jobID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.jobID = jobID
	t.mu.Unlock()
}

// StartSpan opens a span under parent (nil = root). Spans may be started
// from any goroutine holding the trace.
func (t *Trace) StartSpan(name string, parent *Span) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.done {
		return nil // the trace already finished; drop the span
	}
	t.nextID++
	sp := &Span{t: t, id: t.nextID, name: name, start: time.Now()}
	if parent != nil {
		sp.parent = parent.id
	}
	t.spans = append(t.spans, sp)
	return sp
}

// Hold takes an extra reference: the trace will not finish until a matching
// Release. An async job holds its trace from admission to terminal status.
func (t *Trace) Hold() {
	if t == nil {
		return
	}
	t.tr.mu.Lock()
	t.refs++
	t.tr.mu.Unlock()
}

// Release drops one reference; the last release finishes the trace: open
// spans are closed, per-phase durations feed the tracer's histograms, the
// trace moves from the active table to the finished ring, and a slow trace
// is logged with its phase breakdown.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	t.tr.mu.Lock()
	t.refs--
	if t.refs > 0 {
		t.tr.mu.Unlock()
		return
	}
	delete(t.tr.active, t.id)
	t.tr.mu.Unlock()
	t.finish()
}

func (t *Trace) finish() {
	now := time.Now()
	t.mu.Lock()
	t.done = true
	t.end = now
	for _, sp := range t.spans {
		if sp.end.IsZero() {
			sp.end = now
			sp.foldProgressLocked()
		}
	}
	t.mu.Unlock()

	tr := t.tr
	dur := now.Sub(t.start)
	tr.mu.Lock()
	for _, sp := range t.spans {
		h := tr.phases[sp.name]
		if h == nil {
			h = NewHistogram(DurationBounds)
			tr.phases[sp.name] = h
		}
		h.Observe(sp.end.Sub(sp.start).Seconds())
	}
	tr.ring[tr.ringPos%len(tr.ring)] = t
	tr.ringPos++
	tr.mu.Unlock()

	if tr.cfg.SlowThreshold > 0 && dur >= tr.cfg.SlowThreshold && tr.log != nil {
		// The tracer's logger already carries the node attr (the server
		// constructs it with .With), so only the per-trace attrs go here.
		attrs := []any{
			slog.String(LogTraceID, t.id),
			slog.Duration("duration", dur),
		}
		if job := t.JobID(); job != "" {
			attrs = append(attrs, slog.String(LogJobID, job))
		}
		// The breakdown: one attr per span, longest first, so the slow phase
		// is readable straight off the log line.
		t.mu.Lock()
		spans := append([]*Span(nil), t.spans...)
		t.mu.Unlock()
		sort.Slice(spans, func(i, j int) bool {
			return spans[i].end.Sub(spans[i].start) > spans[j].end.Sub(spans[j].start)
		})
		for i, sp := range spans {
			if i == 8 {
				break // a screenful is enough; the full tree is in /traces
			}
			attrs = append(attrs, slog.Duration("phase."+sp.name, sp.end.Sub(sp.start)))
		}
		tr.log.Warn("slow trace", attrs...)
	}
}

// The tracer's fixed bounds.
const (
	// traceRing is how many finished traces the ring behind GET /traces keeps.
	traceRing = 256
	// maxActiveTraces bounds the active-trace table: beyond it, new traces
	// are still functional (spans record, ids propagate) but not registered
	// for lookup, so a reference leak cannot grow the table without bound.
	maxActiveTraces = 4096
)

// TracerConfig configures a Tracer. Zero values select the defaults.
type TracerConfig struct {
	// Node labels every trace with the owning node id.
	Node string
	// SlowThreshold is the duration at or above which a finished trace is
	// logged with its phase breakdown (default 0 = disabled).
	SlowThreshold time.Duration
	// Logger receives slow-trace records; nil disables them.
	Logger *slog.Logger

	// capacity and maxActive shrink traceRing and maxActiveTraces for the
	// package's tests (0 = the constant).
	capacity, maxActive int
}

// Tracer owns a node's traces: the active table (reference-counted,
// in-flight) and the bounded ring of finished traces.
type Tracer struct {
	cfg TracerConfig
	log *slog.Logger

	mu      sync.Mutex
	active  map[string]*Trace
	ring    []*Trace
	ringPos int
	phases  map[string]*Histogram
}

// NewTracer builds a tracer.
func NewTracer(cfg TracerConfig) *Tracer {
	cfg.capacity = cmp.Or(cfg.capacity, traceRing)
	cfg.maxActive = cmp.Or(cfg.maxActive, maxActiveTraces)
	return &Tracer{
		cfg:    cfg,
		log:    cfg.Logger,
		active: map[string]*Trace{},
		ring:   make([]*Trace, cfg.capacity),
		phases: map[string]*Histogram{},
	}
}

// Start returns the trace for id, taking a reference: the active trace with
// that id if one exists (a cluster self-call re-entering the same node), or
// a fresh trace adopting id (a forwarded hop), or — when id is empty — a
// fresh trace with a newly minted id (ingress). Pair every Start with a
// Release.
func (tr *Tracer) Start(id string) *Trace {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if id != "" {
		if t, ok := tr.active[id]; ok {
			t.refs++
			return t
		}
	} else {
		id = NewTraceID()
	}
	t := &Trace{tr: tr, id: id, node: tr.cfg.Node, start: time.Now(), refs: 1}
	if len(tr.active) < tr.cfg.maxActive {
		tr.active[id] = t
	}
	return t
}

// ByJob returns the JSON form of the trace bound to a job id.
func (tr *Tracer) ByJob(jobID string) (TraceJSON, bool) {
	if tr == nil || jobID == "" {
		return TraceJSON{}, false
	}
	tr.mu.Lock()
	var t *Trace
	for _, a := range tr.active {
		if a.JobID() == jobID {
			t = a
			break
		}
	}
	if t == nil {
		for _, fin := range tr.ring {
			if fin != nil && fin.JobID() == jobID {
				t = fin
				break
			}
		}
	}
	tr.mu.Unlock()
	if t == nil {
		return TraceJSON{}, false
	}
	return t.JSON(), true
}

// TraceIDForJob returns the trace id bound to a job id, if any.
func (tr *Tracer) TraceIDForJob(jobID string) string {
	if t, ok := tr.ByJob(jobID); ok {
		return t.TraceID
	}
	return ""
}

// Recent returns finished traces, newest first, filtered to those at least
// minDur long and capped at limit (0 = the whole ring).
func (tr *Tracer) Recent(minDur time.Duration, limit int) []TraceJSON {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	n := len(tr.ring)
	traces := make([]*Trace, 0, n)
	for i := 1; i <= n; i++ {
		t := tr.ring[(tr.ringPos-i%n+n)%n]
		if t == nil {
			continue
		}
		traces = append(traces, t)
	}
	tr.mu.Unlock()
	if limit <= 0 {
		limit = n
	}
	out := make([]TraceJSON, 0, limit)
	for _, t := range traces {
		t.mu.Lock()
		dur := t.end.Sub(t.start)
		t.mu.Unlock()
		if dur < minDur {
			continue
		}
		out = append(out, t.JSON())
		if len(out) == limit {
			break
		}
	}
	return out
}

// PhaseHistograms snapshots the per-phase (span name) duration histograms.
func (tr *Tracer) PhaseHistograms() map[string]HistogramSnapshot {
	if tr == nil {
		return nil
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make(map[string]HistogramSnapshot, len(tr.phases))
	for name, h := range tr.phases {
		out[name] = h.Snapshot()
	}
	return out
}

// SpanJSON is the wire form of one span, with children nested.
type SpanJSON struct {
	Name       string            `json:"name"`
	StartMS    float64           `json:"start_ms"` // offset from the trace start
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Children   []SpanJSON        `json:"children,omitempty"`
}

// TraceJSON is the wire form of a trace: the span tree served by
// GET /traces and GET /jobs/{id}/trace.
type TraceJSON struct {
	TraceID    string     `json:"trace_id"`
	Node       string     `json:"node,omitempty"`
	JobID      string     `json:"job_id,omitempty"`
	StartedAt  string     `json:"started_at"`
	DurationMS float64    `json:"duration_ms"`
	Finished   bool       `json:"finished"`
	Spans      []SpanJSON `json:"spans"`
}

// JSON snapshots the trace into its wire form. Safe on live traces.
func (t *Trace) JSON() TraceJSON {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := t.end
	if end.IsZero() {
		end = time.Now()
	}
	out := TraceJSON{
		TraceID:    t.id,
		Node:       t.node,
		JobID:      t.jobID,
		StartedAt:  t.start.UTC().Format(time.RFC3339Nano),
		DurationMS: float64(end.Sub(t.start)) / float64(time.Millisecond),
		Finished:   t.done,
		Spans:      []SpanJSON{},
	}
	// Spans are stored in start order with children strictly after their
	// parents, so a recursive build preserves sibling order.
	byID := make(map[int]*Span, len(t.spans))
	children := make(map[int][]int, len(t.spans))
	var roots []int
	for _, sp := range t.spans {
		byID[sp.id] = sp
		if sp.parent == 0 {
			roots = append(roots, sp.id)
		} else {
			children[sp.parent] = append(children[sp.parent], sp.id)
		}
	}
	var build func(id int) SpanJSON
	build = func(id int) SpanJSON {
		sp := byID[id]
		spEnd := sp.end
		if spEnd.IsZero() {
			spEnd = end
		}
		js := SpanJSON{
			Name:       sp.name,
			StartMS:    float64(sp.start.Sub(t.start)) / float64(time.Millisecond),
			DurationMS: float64(spEnd.Sub(sp.start)) / float64(time.Millisecond),
		}
		if len(sp.attrs) > 0 {
			js.Attrs = make(map[string]string, len(sp.attrs))
			for k, v := range sp.attrs {
				js.Attrs[k] = v
			}
		}
		for _, cid := range children[id] {
			js.Children = append(js.Children, build(cid))
		}
		return js
	}
	for _, id := range roots {
		out.Spans = append(out.Spans, build(id))
	}
	return out
}

// --- context propagation ---

type traceCtxKey struct{}

// ContextWithTrace attaches a trace to a context.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// TraceFromContext returns the context's trace, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

type spanCtxKey struct{}

// ContextWithSpan attaches the current span so downstream phases can parent
// their spans under it.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the context's current span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

func itoa64(v int64) string { return strconv.FormatInt(v, 10) }
