// Package serve implements evaserve, an HTTP JSON service exposing the full
// EVA pipeline: POST /compile turns an EVA program — either the serialized
// JSON program format or .eva source text — into a compiled program plus
// encryption parameters (cached in a concurrent LRU registry keyed by
// content hash, with singleflight deduplication so a distinct program
// compiles exactly once under concurrent load; both submission formats of
// the same program share one cache entry), POST /contexts
// installs evaluation keys — either client-generated, the paper's deployment
// model, or server-generated for the trusted demo mode — and the jobs API
// (jobs.go) runs programs: POST /jobs enqueues batches of encrypted input
// sets behind a bounded worker pool with memory-budget admission control,
// GET /jobs/{id} polls, GET /jobs/{id}/events streams progress over SSE,
// GET /jobs/{id}/result delivers results exactly once with TTL eviction,
// and DELETE /jobs/{id} cancels. POST /pipelines and POST /jobs?coalesce=1
// run through the same admission. GET /programs, GET /healthz, GET /metrics
// and GET /profile expose the registry contents, liveness, request/cache
// metrics and the per-opcode profile.
package serve

import (
	"cmp"
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"eva/internal/ckks"
	"eva/internal/coalesce"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
	"eva/internal/jobs"
	"eva/internal/lang"
	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/store"
)

// The serving tier's fixed bounds. The package's tests shrink some of them
// through Config's unexported fields.
const (
	// registryCapacity bounds the compiled-program registry.
	registryCapacity = 128
	// maxBodyBytes caps the size of any request body; key material for large
	// rings runs to tens of megabytes, so it is generous. Oversized requests
	// are rejected mid-read.
	maxBodyBytes = 256 << 20
	// maxContexts bounds how many execution contexts (evaluation-key sets)
	// the server retains; the least recently used one is dropped beyond it.
	// Contexts hold key material, which is far heavier than compiled programs.
	maxContexts = 256
	// resultRetention is how long a persisted, unfetched job result stays in
	// the store before the background sweep reclaims it: much longer than the
	// jobs manager's 2-minute result TTL (which bounds the job table; this
	// bounds the disk) but finite, so abandoned results cannot grow the store
	// without bound.
	resultRetention = 24 * time.Hour
)

// Config configures a Server.
type Config struct {
	// AllowServerKeygen enables the trusted demo mode: POST /contexts with a
	// "keygen" clause makes the server generate and hold all key material,
	// including the secret key, so clients can submit plaintext values and
	// read back decrypted results. This breaks the paper's threat model (the
	// server can decrypt) and exists for demos and load tests only.
	AllowServerKeygen bool

	// JobWorkers is how many async jobs run concurrently (0 = 2); each job
	// additionally parallelizes internally across the executor's workers.
	JobWorkers int
	// JobQueueDepth bounds the async job queue (0 = 64); submissions beyond
	// it are shed with 429.
	JobQueueDepth int
	// JobMemoryBudgetBytes bounds the estimated resident ciphertext
	// footprint of all queued and running jobs (0 = 8 GiB); submissions that
	// would exceed it are shed with 429.
	JobMemoryBudgetBytes int64

	// Store is the durable artifact store. When set, compiled programs,
	// installed contexts (their evaluation-key bundles in the ckks wire
	// format), finished job results, and ciphertext handles are persisted
	// through it, the LRU registry and context table become caches in front
	// of it, and a server restarted onto the same store serves every
	// previously issued program, context, unfetched result id, and handle.
	// Nil disables durability (the pre-store, in-memory-only behavior);
	// ciphertext handles then live in a process-local memory store.
	Store store.Store
	// NodeID labels this server in /healthz, /programs, and /metrics so
	// responses are attributable in a cluster. Empty outside clusters.
	NodeID string
	// AllowContextTransfer enables the context replication surface used by
	// the cluster tier: GET /contexts/{id}/bundle exports an installed
	// context's key bundle and POST /contexts accepts a "bundle" clause
	// that installs one verbatim. Bundles of demo-mode contexts include the
	// secret key, so this must stay off unless every client of this server
	// is a trusted peer node.
	AllowContextTransfer bool

	// Logger receives structured records (job lifecycle, slow traces) with
	// trace-id/node/job-id attributes. Nil discards.
	Logger *slog.Logger
	// SlowTraceThreshold is the end-to-end duration at or above which a
	// finished trace is logged with its per-phase breakdown (0 = disabled).
	SlowTraceThreshold time.Duration

	// ProfileSampleRate is the instruction profiler's sampling stride: every
	// execution records one in ProfileSampleRate instructions into the
	// flight recorder behind GET /profile and the eva_profile_* families
	// (0 = every 16th, 1 = every instruction, < 0 = profiling off, which also
	// drops the execute span's per-opcode op.*_ms attrs). Sampled records
	// are compared against the cost model and the compiler's
	// scale/level expectations; divergence surfaces as drift events. With a
	// Store, per-program profiles persist under kind "profile" and a fitted
	// calibration (kind "calibration") is loaded at startup.
	ProfileSampleRate int

	// The package's tests shrink these bounds to reach eviction and expiry
	// quickly; zero means the constant of the same name.
	registryCapacity, maxContexts int
	resultRetention               time.Duration
}

// Server is the evaserve HTTP service. Create one with NewServer and mount
// Handler on an http.Server.
type Server struct {
	cfg       Config
	registry  *Registry
	metrics   *Metrics
	jobs      *jobs.Manager
	coalescer *coalesce.Coalescer
	mux       *http.ServeMux
	start     time.Time
	tracer    *obs.Tracer
	profiles  *profile.Collector
	log       *slog.Logger

	// traceMu guards jobTraces, the job-id → held trace binding that lets
	// the finish hook close a job's trace on whichever goroutine ends it.
	traceMu   sync.Mutex
	jobTraces map[string]*obs.Trace

	ctxMu    sync.Mutex
	contexts map[string]*list.Element // values are *contextEntry
	ctxLRU   *list.List               // front = most recently used

	// resultMu serializes the store-fallback result fetch (get+delete must
	// be atomic to honor fetch-once); the in-memory path is atomic inside
	// the jobs manager.
	resultMu sync.Mutex

	// handles is the content-addressed ciphertext handle registry (backed
	// by cfg.Store, or a process-local memory store without durability).
	// handleFetch, when set (by the cluster tier), resolves handle ids that
	// are not stored locally from peer nodes.
	handles     *handle.Registry
	handleFetch func(ctx context.Context, id string) (*handle.Record, error)

	janitorStop chan struct{}
	janitorWG   sync.WaitGroup
	closeOnce   sync.Once
}

// contextEntry is one installed execution context: the CKKS runtime objects
// for a compiled program plus, in demo mode only, the full key material. It
// pins the registry entry it was created against, so a context keeps working
// even after the compiled program is evicted from the LRU cache.
type contextEntry struct {
	ID        string
	Entry     *Entry
	Ctx       *execute.Context
	Keys      *execute.KeyMaterial // nil unless created by server-side keygen
	CreatedAt time.Time
	// Bundle is the portable key bundle, retained only when the server
	// allows context transfer (the cluster replication surface).
	Bundle *ContextBundle
}

// NewServer builds an evaserve service.
func NewServer(cfg Config) *Server {
	if cfg.NodeID == "" {
		// Populate the node label even outside clusters, so /healthz,
		// /metrics, and traces are attributable in single-node mode too.
		if host, err := os.Hostname(); err == nil && host != "" {
			cfg.NodeID = host
		} else {
			cfg.NodeID = "standalone"
		}
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.NopLogger()
	}
	cfg.maxContexts = cmp.Or(cfg.maxContexts, maxContexts)
	cfg.resultRetention = cmp.Or(cfg.resultRetention, resultRetention)
	s := &Server{
		cfg:       cfg,
		metrics:   NewMetrics(),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		contexts:  map[string]*list.Element{},
		ctxLRU:    list.New(),
		log:       cfg.Logger.With(slog.String(obs.LogNodeID, cfg.NodeID)),
		jobTraces: map[string]*obs.Trace{},
	}
	s.registry = NewRegistryWithStore(cfg.registryCapacity, cfg.Store, s.log)
	s.tracer = obs.NewTracer(obs.TracerConfig{
		Node:          cfg.NodeID,
		SlowThreshold: cfg.SlowTraceThreshold,
		Logger:        s.log,
	})
	s.profiles = profile.NewCollector(profile.Config{
		SampleRate: cfg.ProfileSampleRate,
		Store:      cfg.Store,
		Node:       cfg.NodeID,
		Logger:     s.log,
	})
	if cfg.Store != nil {
		// A previously fitted calibration makes drift checks and /compile
		// predictions run on measured numbers from the first request.
		if cal, err := profile.LoadCalibration(cfg.Store); err != nil {
			s.log.Warn("loading calibration", slog.String("error", err.Error()))
		} else if cal != nil {
			s.profiles.SetCalibration(cal)
		}
	}
	s.jobs = jobs.NewManager(jobs.Config{
		Workers:           cfg.JobWorkers,
		QueueDepth:        cfg.JobQueueDepth,
		MemoryBudgetBytes: cfg.JobMemoryBudgetBytes,
		// Persist finished results before they become visible (a client that
		// observes "done" can rely on the result surviving a restart, and
		// the fetch-once contract is served from the store after the TTL
		// evicts the in-memory copy), then close the job's trace.
		OnFinish: s.onJobFinish,
		Logger:   s.log,
	})
	s.coalescer = coalesce.New(coalesce.Config{
		Run:    s.runCoalescedBatch,
		Logger: s.log,
	})
	handleStore := cfg.Store
	if handleStore == nil {
		// Handles still work without durability; they just die with the
		// process, like everything else on a store-less server.
		handleStore = store.NewMemory()
	}
	s.handles = handle.NewRegistry(handle.Config{Store: handleStore})
	s.mux.HandleFunc("POST /compile", s.route("compile", s.handleCompile))
	s.mux.HandleFunc("GET /programs", s.route("programs", s.handlePrograms))
	s.mux.HandleFunc("GET /programs/{id}", s.route("program", s.handleProgram))
	s.mux.HandleFunc("GET /programs/{id}/source", s.route("program_source", s.handleProgramSource))
	s.mux.HandleFunc("POST /contexts", s.route("contexts", s.handleContexts))
	s.mux.HandleFunc("GET /contexts/{id}/bundle", s.route("context_bundle", s.handleContextBundle))
	s.mux.HandleFunc("POST /jobs", s.route("jobs_submit", s.handleJobSubmit))
	s.mux.HandleFunc("GET /jobs/{id}", s.route("jobs_status", s.handleJobStatus))
	s.mux.HandleFunc("GET /jobs/{id}/events", s.route("jobs_events", s.handleJobEvents))
	s.mux.HandleFunc("GET /jobs/{id}/result", s.route("jobs_result", s.handleJobResult))
	s.mux.HandleFunc("DELETE /jobs/{id}", s.route("jobs_cancel", s.handleJobCancel))
	s.mux.HandleFunc("GET /jobs/{id}/trace", s.route("jobs_trace", s.handleJobTrace))
	s.mux.HandleFunc("GET /traces", s.route("traces", s.handleTraces))
	s.mux.HandleFunc("PUT /handles", s.route("handles_put", s.handleHandlePut))
	s.mux.HandleFunc("GET /handles", s.route("handles_list", s.handleHandleList))
	s.mux.HandleFunc("GET /handles/{id}", s.route("handles_get", s.handleHandleGet))
	s.mux.HandleFunc("DELETE /handles/{id}", s.route("handles_delete", s.handleHandleDelete))
	s.mux.HandleFunc("POST /pipelines", s.route("pipelines", s.handlePipelineSubmit))
	s.mux.HandleFunc("GET /healthz", s.route("healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.route("metrics", s.handleMetrics))
	s.mux.HandleFunc("GET /profile", s.route("profile", s.handleProfile))
	s.janitorStop = make(chan struct{})
	s.janitorWG.Add(1)
	go s.resultJanitor()
	return s
}

// Handles exposes the ciphertext handle registry (for tests and tooling).
func (s *Server) Handles() *handle.Registry { return s.handles }

// SetHandleFetcher installs the remote-resolution hook the cluster tier uses:
// when a handle id is not stored locally, the fetcher retrieves its record
// from a peer node and the server caches it locally. Must be set before the
// server starts taking traffic.
func (s *Server) SetHandleFetcher(f func(ctx context.Context, id string) (*handle.Record, error)) {
	s.handleFetch = f
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Jobs exposes the async job manager (for tests and tooling).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Close stops the async job subsystem: running jobs are cancelled and the
// worker pool drains. The compile, context and handle endpoints remain
// usable, but further job submissions fail.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.janitorStop) })
	s.coalescer.Close()
	s.jobs.Close()
	s.janitorWG.Wait()
	// Flush after the job subsystem stops so every finished run's samples
	// are in the persisted profiles.
	s.profiles.Flush()
}

// Drain gracefully stops the async job subsystem: new submissions are
// rejected immediately while queued and running jobs get until ctx expires
// to finish (their results are persisted on the way out when a store is
// configured); the remainder is then cancelled. The compile, context and
// handle endpoints remain usable.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.Drain(ctx) }

// Tracer exposes the request tracer (the cluster tier records its routing
// spans through it; tests inspect finished traces).
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// ProgramSource returns the canonical serialized source and exact compile
// options for a program id, from the cache or the durable store. The
// cluster tier uses it to ship programs to peer nodes.
func (s *Server) ProgramSource(id string) (json.RawMessage, compile.Options, bool) {
	return s.registry.Source(id)
}

// InstallProgram compiles (or looks up) a program from its canonical
// serialized source and exact options, returning the program id. It is the
// programmatic twin of POST /compile for node-to-node transfer.
func (s *Server) InstallProgram(source json.RawMessage, opts compile.Options) (string, error) {
	prog, err := core.DeserializeBytes(source)
	if err != nil {
		return "", fmt.Errorf("serve: installing program: %w", err)
	}
	entry, _, err := s.registry.GetOrCompile(prog, opts)
	if err != nil {
		return "", err
	}
	return entry.ID, nil
}

// route wraps every handler: it adopts the request's trace (or mints one at
// ingress), echoes the id on the response, records a root span for the
// route, and folds the response's status class and latency into the
// per-route metrics.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		t := s.tracer.Start(r.Header.Get(obs.TraceHeader))
		defer t.Release()
		w.Header().Set(obs.TraceHeader, t.ID())
		sp := t.StartSpan("route:"+name, nil)
		if from := r.Header.Get("X-Eva-Forwarded"); from != "" {
			sp.SetAttr("forwarded_from", from)
		}
		defer sp.End()
		r = r.WithContext(obs.ContextWithSpan(obs.ContextWithTrace(r.Context(), t), sp))
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		s.metrics.RecordRequest(name, sw.status, time.Since(start))
	}
}

// statusWriter captures the response status for per-route metrics. It
// forwards Flush so SSE streaming (GET /jobs/{id}/events) keeps working
// through the wrapper.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.status = status
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	sw.wrote = true
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// maxBatchesPerRequest caps how many input sets one /jobs request may carry;
// every batch is resolved at submit and pins its inputs until the job runs,
// so the count must be bounded.
const maxBatchesPerRequest = 4096

// SourceError is one positioned diagnostic from compiling the "source" form
// of a program: where in the source text the problem is, what went wrong,
// and the offending line.
type SourceError struct {
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	Snippet string `json:"snippet,omitempty"`
}

// apiError is the uniform error body. SourceErrors is populated only when a
// "source" program fails to parse or check; Incompatibilities only when a
// pipeline or handle-input submission fails the level/scale/width checker.
type apiError struct {
	Error             string        `json:"error"`
	SourceErrors      []SourceError `json:"source_errors,omitempty"`
	Incompatibilities []Incompat    `json:"incompatibilities,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// writeSourceError renders a lang diagnostic list as a structured error so
// clients can point at the offending line and column.
func writeSourceError(w http.ResponseWriter, err error) {
	body := apiError{Error: fmt.Sprintf("invalid source: %v", err)}
	if list, ok := lang.AsErrorList(err); ok {
		body.Error = fmt.Sprintf("invalid source: %d error(s)", len(list))
		for _, e := range list {
			body.SourceErrors = append(body.SourceErrors, SourceError{
				Line: e.Pos.Line, Col: e.Pos.Col, Message: e.Msg, Snippet: e.Snippet,
			})
		}
	}
	writeJSON(w, http.StatusBadRequest, body)
}

// --- /compile ---

// CompileOptionsJSON is the wire form of compile.Options. Zero values mean
// the paper's defaults. A program is always compiled the EVA way
// (waterline rescaling, eager modulus switching); the CHET baseline's
// pipeline is reachable only in-process.
type CompileOptionsJSON struct {
	MaxRescaleLog float64 `json:"max_rescale_log,omitempty"`
	MinLogN       int     `json:"min_log_n,omitempty"`
	AllowInsecure bool    `json:"allow_insecure,omitempty"`
	// ExtraLevels adds level headroom for pipeline chaining; see
	// compile.Options.ExtraLevels.
	ExtraLevels int `json:"extra_levels,omitempty"`
}

func (o *CompileOptionsJSON) toOptions() compile.Options {
	opts := compile.DefaultOptions()
	if o == nil {
		return opts
	}
	if o.MaxRescaleLog > 0 {
		opts.MaxRescaleLog = o.MaxRescaleLog
	}
	opts.MinLogN = o.MinLogN
	opts.AllowInsecure = o.AllowInsecure
	opts.ExtraLevels = o.ExtraLevels
	return opts
}

// OptionsJSON converts resolved compile options back to their wire form,
// such that round-tripping through CompileOptionsJSON.toOptions yields the
// identical options struct (and therefore the identical program id). The
// cluster tier relies on this to re-submit a program to a peer node through
// the ordinary /compile endpoint; the registry refuses stored options the
// wire cannot express (see checkWireOptions).
func OptionsJSON(opts compile.Options) CompileOptionsJSON {
	return CompileOptionsJSON{
		MaxRescaleLog: opts.MaxRescaleLog,
		MinLogN:       opts.MinLogN,
		AllowInsecure: opts.AllowInsecure,
		ExtraLevels:   opts.ExtraLevels,
	}
}

// CompileRequest is the body of POST /compile: a program in exactly one of
// two forms — Program, the JSON program format (the paper's Figure 1
// schema), or Source, textual .eva source — plus optional compile options.
// Both forms lower to the same IR and are cached under the same content
// hash, so submitting a program as source and then as JSON (or vice versa)
// compiles it once.
type CompileRequest struct {
	Program json.RawMessage     `json:"program,omitempty"`
	Source  string              `json:"source,omitempty"`
	Options *CompileOptionsJSON `json:"options,omitempty"`
}

// ParamsJSON is the wire form of the selected encryption parameters — enough
// for a client to reconstruct ckks.ParametersLiteral and generate matching
// keys locally. LogPi lists the special primes; their number is the
// key-switch digit size the server's evaluator expects of uploaded keys.
type ParamsJSON struct {
	LogN          int     `json:"log_n"`
	LogQi         []int   `json:"log_qi"`
	LogPi         []int   `json:"log_pi"`
	Scale         float64 `json:"scale"`
	AllowInsecure bool    `json:"allow_insecure,omitempty"`
}

// CompileResponse is the body returned by POST /compile.
type CompileResponse struct {
	ID            string             `json:"id"`
	Cached        bool               `json:"cached"`
	CompileMillis float64            `json:"compile_ms"`
	Summary       string             `json:"summary"`
	Params        ParamsJSON         `json:"params"`
	InputScales   map[string]float64 `json:"input_scales"`
	RotationSteps []int              `json:"rotation_steps"`
	Instructions  int                `json:"instructions"`
	// PredictedMillis is the calibrated sequential-execution estimate for one
	// batch (cost-model units priced by the fitted per-opcode coefficients).
	// Present only when the server has a calibration installed.
	PredictedMillis float64 `json:"predicted_ms,omitempty"`
}

// CanonicalCompile resolves a compile request — either submission form — to
// the registry id it would compile under, without compiling: the program is
// parsed, canonically serialized, and hashed together with the resolved
// options. The cluster router uses it to place a program on the hash ring
// before deciding which node should compile it.
func CanonicalCompile(req CompileRequest) (string, error) {
	if (len(req.Program) == 0) == (req.Source == "") {
		return "", fmt.Errorf("exactly one of \"program\" or \"source\" is required")
	}
	var prog *core.Program
	var err error
	if req.Source != "" {
		if prog, err = lang.ParseProgram(req.Source); err != nil {
			return "", err
		}
	} else if prog, err = core.DeserializeBytes(req.Program); err != nil {
		return "", fmt.Errorf("invalid program: %w", err)
	}
	source, err := prog.SerializeBytes()
	if err != nil {
		return "", err
	}
	return ProgramID(source, req.Options.toOptions())
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	var req CompileRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if (len(req.Program) == 0) == (req.Source == "") {
		writeError(w, http.StatusBadRequest, "exactly one of \"program\" or \"source\" is required")
		return
	}
	var prog *core.Program
	var err error
	if req.Source != "" {
		if prog, err = lang.ParseProgram(req.Source); err != nil {
			writeSourceError(w, err)
			return
		}
	} else if prog, err = core.DeserializeBytes(req.Program); err != nil {
		writeError(w, http.StatusBadRequest, "invalid program: %v", err)
		return
	}
	entry, cached, err := s.registry.GetOrCompile(prog, req.Options.toOptions())
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, s.compileResponse(entry, cached))
}

func (s *Server) compileResponse(entry *Entry, cached bool) CompileResponse {
	res := entry.Result
	lit := res.ParametersLiteral()
	var predictedMs float64
	if cal := s.profiles.Calibration(); cal != nil {
		var ns float64
		for op, units := range res.Cost().ByOp {
			ns += cal.PredictNs(op, units)
		}
		predictedMs = ns / 1e6
	}
	return CompileResponse{
		PredictedMillis: predictedMs,
		ID:              entry.ID,
		Cached:          cached,
		CompileMillis:   float64(entry.CompileTime) / float64(time.Millisecond),
		Summary:         res.Summary(),
		Params: ParamsJSON{
			LogN:          lit.LogN,
			LogQi:         lit.LogQi,
			LogPi:         lit.LogPi,
			Scale:         lit.Scale,
			AllowInsecure: lit.AllowInsecure,
		},
		InputScales:   res.InputScales(),
		RotationSteps: res.RotationSteps,
		Instructions:  res.CompiledStats.Terms,
	}
}

// --- /programs ---

// ProgramInfo is one row of GET /programs.
type ProgramInfo struct {
	ID           string  `json:"id"`
	Name         string  `json:"name"`
	VecSize      int     `json:"vec_size"`
	Instructions int     `json:"instructions"`
	Hits         uint64  `json:"hits"`
	CompiledAt   string  `json:"compiled_at"`
	CompileMS    float64 `json:"compile_ms"`
}

func (s *Server) handlePrograms(w http.ResponseWriter, r *http.Request) {
	entries := s.registry.List()
	out := make([]ProgramInfo, 0, len(entries))
	for _, e := range entries {
		out = append(out, programInfo(e))
	}
	writeJSON(w, http.StatusOK, out)
}

func programInfo(e *Entry) ProgramInfo {
	return ProgramInfo{
		ID:           e.ID,
		Name:         e.Result.Program.Name,
		VecSize:      e.Result.VecSize,
		Instructions: e.Result.CompiledStats.Terms,
		Hits:         e.Hits(),
		CompiledAt:   e.CreatedAt.UTC().Format(time.RFC3339),
		CompileMS:    float64(e.CompileTime) / float64(time.Millisecond),
	}
}

func (s *Server) handleProgram(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.registry.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown program %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, struct {
		ProgramInfo
		Compile CompileResponse `json:"compile"`
	}{programInfo(entry), s.compileResponse(entry, true)})
}

// --- /contexts ---

// EvalKeysJSON carries public evaluation keys: the relinearization key and
// the whole RotationKeySet, each in the ckks binary wire format (base64 in
// JSON).
type EvalKeysJSON struct {
	Relin       []byte `json:"relin,omitempty"`
	RotationSet []byte `json:"rotation_set,omitempty"`
}

// KeygenJSON asks the server to generate key material itself (demo mode).
type KeygenJSON struct {
	// Seed makes key generation deterministic when nonzero (tests only).
	Seed uint64 `json:"seed,omitempty"`
}

// ContextRequest is the body of POST /contexts. Exactly one of Keys (the
// paper's client-keygen model), Keygen (trusted demo mode), or Bundle (a
// portable bundle exported by a peer node; requires AllowContextTransfer)
// must be set. ContextID optionally pins the new context's id — the cluster
// router assigns ids up front so a context's placement on the hash ring is
// known before it exists; when the id is already installed for the same
// program, the request is idempotent and returns the existing context.
type ContextRequest struct {
	ProgramID string         `json:"program_id"`
	ContextID string         `json:"context_id,omitempty"`
	Keys      *EvalKeysJSON  `json:"keys,omitempty"`
	Keygen    *KeygenJSON    `json:"keygen,omitempty"`
	Bundle    *ContextBundle `json:"bundle,omitempty"`
}

// ContextResponse is the body returned by POST /contexts.
type ContextResponse struct {
	ContextID    string  `json:"context_id"`
	ProgramID    string  `json:"program_id"`
	KeygenMillis float64 `json:"keygen_ms,omitempty"`
}

// validContextID restricts caller-assigned context ids to path-safe tokens
// that cannot collide with store internals (a ".tmp" suffix would be swept
// as crash residue at the next reopen) or cluster id syntax.
func validContextID(id string) bool {
	if id == "" || len(id) > 64 || id[0] == '.' || strings.HasSuffix(id, ".tmp") {
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

func (s *Server) handleContexts(w http.ResponseWriter, r *http.Request) {
	var req ContextRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	modes := 0
	for _, set := range []bool{req.Keys != nil, req.Keygen != nil, req.Bundle != nil} {
		if set {
			modes++
		}
	}
	if modes != 1 {
		writeError(w, http.StatusBadRequest, "exactly one of \"keys\", \"keygen\", or \"bundle\" is required")
		return
	}
	if req.ProgramID == "" && req.Bundle != nil {
		req.ProgramID = req.Bundle.ProgramID
	}
	if req.ContextID != "" {
		if !validContextID(req.ContextID) {
			writeError(w, http.StatusBadRequest, "invalid context id %q", req.ContextID)
			return
		}
		// Idempotent replay: an id already installed for the same program
		// is returned as-is, so cluster replication and retries are safe.
		if existing, ok := s.lookupContext(req.ContextID); ok {
			if existing.Entry.ID != req.ProgramID {
				writeError(w, http.StatusConflict, "context %q already belongs to program %q", req.ContextID, existing.Entry.ID)
				return
			}
			writeJSON(w, http.StatusOK, ContextResponse{ContextID: existing.ID, ProgramID: existing.Entry.ID})
			return
		}
	}
	entry, ok := s.registry.Get(req.ProgramID)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown program %q; POST /compile first", req.ProgramID)
		return
	}
	id := req.ContextID
	if id == "" {
		var err error
		if id, err = randomID(); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
	}

	// bundle is the context's portable form: the store record and the
	// cluster transfer body are the same document. Uploaded keys are kept
	// as they arrived; keygen contexts build theirs below when needed.
	var ce *contextEntry
	var bundle *ContextBundle
	switch {
	case req.Keygen != nil:
		if !s.cfg.AllowServerKeygen {
			writeError(w, http.StatusForbidden, "server-side keygen is disabled; supply client-generated evaluation keys")
			return
		}
		var prng *ckks.PRNG
		if req.Keygen.Seed != 0 {
			prng = ckks.NewTestPRNG(req.Keygen.Seed)
		}
		ctx, keys, err := execute.NewContext(entry.Result, prng)
		if err != nil {
			writeError(w, http.StatusUnprocessableEntity, "key generation: %v", err)
			return
		}
		ce = &contextEntry{ID: id, Entry: entry, Ctx: ctx, Keys: keys, CreatedAt: time.Now()}
	case req.Bundle != nil:
		if !s.cfg.AllowContextTransfer {
			writeError(w, http.StatusForbidden, "context transfer is disabled on this server")
			return
		}
		if req.ContextID == "" {
			writeError(w, http.StatusBadRequest, "a bundle install requires \"context_id\"")
			return
		}
		if req.Bundle.ProgramID != "" && req.Bundle.ProgramID != req.ProgramID {
			writeError(w, http.StatusBadRequest, "bundle belongs to program %q, not %q", req.Bundle.ProgramID, req.ProgramID)
			return
		}
		bundle = req.Bundle
		bundle.ProgramID = req.ProgramID
	default:
		bundle = &ContextBundle{ProgramID: entry.ID, CreatedAt: time.Now(), EvalKeysJSON: *req.Keys}
	}
	if bundle != nil {
		var err error
		if ce, err = s.restoreContext(id, entry, bundle); err != nil {
			status := http.StatusUnprocessableEntity
			if req.Keys != nil && errors.Is(err, errMalformedKey) {
				status = http.StatusBadRequest
			}
			writeError(w, status, "%v", err)
			return
		}
	}

	if s.cfg.Store != nil || s.cfg.AllowContextTransfer {
		if bundle == nil {
			var err error
			if bundle, err = buildBundle(entry.ID, ce.Keys, ce.CreatedAt); err != nil {
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
		}
		if err := s.persistContext(id, bundle); err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if s.cfg.AllowContextTransfer {
			ce.Bundle = bundle
		}
	}

	installed := s.installContext(ce)
	writeJSON(w, http.StatusOK, ContextResponse{
		ContextID:    id,
		ProgramID:    entry.ID,
		KeygenMillis: float64(installed.Ctx.KeyGenTime) / float64(time.Millisecond),
	})
}

// ProgramSourceResponse is the body of GET /programs/{id}/source: the
// canonical serialized program and the exact compile options its id was
// derived from, so a peer node can rebuild an identical registry entry.
type ProgramSourceResponse struct {
	ID      string          `json:"id"`
	Program json.RawMessage `json:"program"`
	Options compile.Options `json:"options"`
}

func (s *Server) handleProgramSource(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	source, opts, ok := s.registry.Source(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown program %q", id)
		return
	}
	writeJSON(w, http.StatusOK, ProgramSourceResponse{ID: id, Program: source, Options: opts})
}

func randomID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// --- /healthz and /metrics ---

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Node          string  `json:"node,omitempty"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Programs      int     `json:"programs"`
	Contexts      int     `json:"contexts"`
	Goroutines    int     `json:"goroutines"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.ctxMu.Lock()
	contexts := len(s.contexts)
	s.ctxMu.Unlock()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Node:          s.cfg.NodeID,
		UptimeSeconds: time.Since(s.start).Seconds(),
		Programs:      s.registry.Stats().Size,
		Contexts:      contexts,
		Goroutines:    runtime.NumGoroutine(),
	})
}

// MetricsReport assembles the document served by GET /metrics. The cluster
// tier calls it directly so it can graft its own section onto the report.
func (s *Server) MetricsReport() MetricsReport {
	var storeStats *store.Stats
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		storeStats = &st
	}
	rep := s.metrics.Report(s.registry.Stats(), s.jobs.Stats(), storeStats)
	rep.Node = s.cfg.NodeID
	cs := s.coalescer.Stats()
	rep.Coalesce = &cs
	hs := s.handles.Stats()
	rep.Handles = &hs
	rep.Plans = s.planMetrics()
	return rep
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "prometheus" {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.WritePrometheus(w); err != nil {
			s.log.Warn("writing prometheus exposition", slog.String("error", err.Error()))
		}
		return
	}
	writeJSON(w, http.StatusOK, s.MetricsReport())
}
