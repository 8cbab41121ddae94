package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"

	"eva/internal/ckks"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
	"eva/internal/jobs"
	"eva/internal/obs"
)

// POST /pipelines executes a validated DAG of compiled program stages
// server-side: each stage runs against its own program and context, its
// encrypted outputs chain straight into later stages' inputs in memory (and
// are persisted as content-addressed handles), so a multi-stage encrypted
// workload never round-trips ciphertext through the client. The checker
// verifies every stage edge — level budget, scale, slot width, parameter
// fingerprint — at submit time and rejects incompatible chaining with a
// structured 422 before anything runs. The whole pipeline is one job through
// internal/jobs (admission control, SSE progress per stage, cancel, result
// fetch-once), with a per-stage span recorded in the request trace.

// PipelineInput is one input binding of a pipeline stage — the shared
// InputBinding shape used by every execution entry point; see InputBinding
// for the exactly-one-source rules.
type PipelineInput = InputBinding

// PipelineStage is one stage of a pipeline: a compiled program, the context
// to execute it under, its input bindings, and the output form — "handle"
// (the default: encrypted outputs are persisted and their ids returned) or,
// on the final stage of a demo-context pipeline only, "values" (decrypted).
type PipelineStage struct {
	ProgramID string                   `json:"program_id"`
	ContextID string                   `json:"context_id"`
	Inputs    map[string]PipelineInput `json:"inputs"`
	Output    string                   `json:"output,omitempty"`
}

// PipelineRequest is the body of POST /pipelines.
type PipelineRequest struct {
	Stages    []PipelineStage `json:"stages"`
	Workers   int             `json:"workers,omitempty"`
	Scheduler string          `json:"scheduler,omitempty"`
}

// maxPipelineStages bounds a pipeline's length; each stage is a full
// program execution, so the cap mirrors maxBatchesPerRequest in spirit.
const maxPipelineStages = 64

// stageRef is a resolved stage-to-stage edge: which earlier stage's output
// feeds which input.
type stageRef struct {
	stage  int
	output string
}

// pipelineStagePlan is one stage after validation: everything the runner
// needs, with all submit-time-resolvable inputs already resolved.
type pipelineStagePlan struct {
	entry   *Entry
	ce      *contextEntry
	pre     *execute.EncryptedInputs // decoded ciphers + plain inputs
	refs    map[string]stageRef      // input name -> upstream stage output
	values  map[string][]float64     // demo values, encrypted at run time
	outMode string
	// entryLevel is the level the stage's cipher inputs enter at: fresh
	// encryptions start at MaxLevel, chained/handle inputs lower it. The
	// stage's own outputs sit len(chain) rescales below it.
	entryLevel int
}

// producerMeta is the statically known metadata of a stage's encrypted
// output, playing the role of a handle's Meta for edges that exist only
// inside the pipeline: the stage's entry level minus the compiled chain
// length fixes the output level, the compiled scale its log2 scale.
func producerMeta(plan *pipelineStagePlan, outName string) (handle.Meta, error) {
	res := plan.entry.Result
	for _, out := range res.Program.Outputs() {
		if out.Name != outName {
			continue
		}
		if res.Types[out.Term] != core.TypeCipher {
			return handle.Meta{}, fmt.Errorf("output %q of program %s is not encrypted", outName, plan.entry.ID)
		}
		return handle.Meta{
			ContextID: plan.ce.ID,
			ParamsID:  paramsFingerprint(plan.ce.Ctx.Params),
			Level:     plan.entryLevel - len(res.Chains[out.Term]),
			LogScale:  res.Scales[out.Term],
			Width:     res.Program.VecSize,
		}, nil
	}
	return handle.Meta{}, fmt.Errorf("program %s has no output %q", plan.entry.ID, outName)
}

// defaultCipherOutput returns the producer's single encrypted output name,
// erroring when the choice is ambiguous.
func defaultCipherOutput(entry *Entry) (string, error) {
	res := entry.Result
	var name string
	for _, out := range res.Program.Outputs() {
		if res.Types[out.Term] != core.TypeCipher {
			continue
		}
		if name != "" {
			return "", fmt.Errorf("program %s has several encrypted outputs; name one with \"output\"", entry.ID)
		}
		name = out.Name
	}
	if name == "" {
		return "", fmt.Errorf("program %s has no encrypted output to chain", entry.ID)
	}
	return name, nil
}

func (s *Server) handlePipelineSubmit(w http.ResponseWriter, r *http.Request) {
	var req PipelineRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	if len(req.Stages) == 0 {
		writeError(w, http.StatusBadRequest, "no stages")
		return
	}
	if len(req.Stages) > maxPipelineStages {
		writeError(w, http.StatusRequestEntityTooLarge, "%d stages exceeds the pipeline limit of %d", len(req.Stages), maxPipelineStages)
		return
	}
	ropts, err := s.runOptions(req.Workers, req.Scheduler)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	// Validate the whole DAG before anything runs. Chaining incompatibilities
	// are collected across every edge (not first-failure), so the 422 body
	// names every bad edge at once; structural errors fail immediately.
	cache := newHandleCache()
	plans := make([]*pipelineStagePlan, len(req.Stages))
	var incompats []Incompat
	pendingValues := 0
	handleBytes := map[string]int64{}
	for i := range req.Stages {
		st := &req.Stages[i]
		ce, entry, status, err := s.resolveExecution(st.ProgramID, st.ContextID)
		if err != nil {
			writeError(w, status, "stage %d: %v", i, err)
			return
		}
		plan := &pipelineStagePlan{
			entry: entry,
			ce:    ce,
			pre: &execute.EncryptedInputs{
				Cipher: map[string]*ckks.Ciphertext{},
				Plain:  map[string][]float64{},
			},
			refs:       map[string]stageRef{},
			values:     map[string][]float64{},
			outMode:    st.Output,
			entryLevel: ce.Ctx.Params.MaxLevel(),
		}
		switch plan.outMode {
		case "":
			plan.outMode = outputHandle
		case outputHandle:
		case outputValues:
			if i != len(req.Stages)-1 {
				writeError(w, http.StatusBadRequest, "stage %d: only the final stage may decrypt with \"output\": \"values\"", i)
				return
			}
			if ce.Keys == nil {
				writeError(w, http.StatusBadRequest, "stage %d: \"output\": \"values\" needs a server-keygen (demo) context", i)
				return
			}
		default:
			writeError(w, http.StatusBadRequest, "stage %d: unknown output mode %q", i, st.Output)
			return
		}

		res := entry.Result
		br := s.newBindingResolver(ce, res, cache)
		for _, in := range res.Program.Inputs() {
			binding, ok := st.Inputs[in.Name]
			if !ok {
				writeError(w, http.StatusBadRequest, "stage %d: missing binding for input %q", i, in.Name)
				return
			}
			if in.InType != core.TypeCipher {
				full, ok, err := br.plain(in.Name, binding)
				if !ok {
					writeError(w, http.StatusBadRequest, "stage %d: plain input %q needs \"plain\" values", i, in.Name)
					return
				}
				if err != nil {
					writeError(w, http.StatusBadRequest, "stage %d: %v", i, err)
					return
				}
				plan.pre.Plain[in.Name] = full
				continue
			}
			sources := 0
			for _, set := range []bool{binding.Handle != "", binding.Stage != nil, binding.Cipher != "", binding.Values != nil} {
				if set {
					sources++
				}
			}
			if sources != 1 {
				writeError(w, http.StatusBadRequest, "stage %d: input %q needs exactly one of \"handle\", \"stage\", \"cipher\", or \"values\"", i, in.Name)
				return
			}
			switch {
			case binding.Stage != nil:
				j := *binding.Stage
				if j < 0 || j >= i {
					writeError(w, http.StatusBadRequest, "stage %d: input %q references stage %d; stages may only consume earlier stages", i, in.Name, j)
					return
				}
				outName := binding.Output
				if outName == "" {
					if outName, err = defaultCipherOutput(plans[j].entry); err != nil {
						writeError(w, http.StatusBadRequest, "stage %d: input %q: %v", i, in.Name, err)
						return
					}
				}
				meta, err := producerMeta(plans[j], outName)
				if err != nil {
					writeError(w, http.StatusBadRequest, "stage %d: input %q: %v", i, in.Name, err)
					return
				}
				if err := meta.Check(br.want(in.Name, in.LogScale)); err != nil {
					var m *handle.Mismatch
					if errors.As(err, &m) {
						incompats = append(incompats, Incompat{
							Stage: i, Input: in.Name,
							HandleID: fmt.Sprintf("stage[%d].%s", j, outName),
							Field:    m.Field, Want: m.Want, Got: m.Got,
						})
						continue
					}
					writeError(w, http.StatusBadRequest, "stage %d: input %q: %v", i, in.Name, err)
					return
				}
				if meta.Level < plan.entryLevel {
					plan.entryLevel = meta.Level
				}
				plan.refs[in.Name] = stageRef{stage: j, output: outName}
			case binding.Handle != "":
				rh, err := br.cipherFromHandle(r.Context(), in.Name, binding.Handle, in.LogScale)
				if err != nil {
					var cerr *compatError
					if errors.As(err, &cerr) {
						inc := cerr.incompat()
						inc.Stage = i
						incompats = append(incompats, inc)
						continue
					}
					if errors.Is(err, handle.ErrNotFound) {
						writeError(w, http.StatusNotFound, "stage %d: input %q: %v", i, in.Name, err)
						return
					}
					writeError(w, http.StatusBadRequest, "stage %d: input %q: %v", i, in.Name, err)
					return
				}
				if rh.meta.Level < plan.entryLevel {
					plan.entryLevel = rh.meta.Level
				}
				plan.pre.Cipher[in.Name] = rh.ct
				handleBytes[rh.meta.ID] = int64(rh.ct.MemoryBytes())
			case binding.Cipher != "":
				ct, err := br.cipherFromWire(binding.Cipher)
				if err != nil {
					writeError(w, http.StatusBadRequest, "stage %d: input %q: %v", i, in.Name, err)
					return
				}
				if ct.Level < plan.entryLevel {
					plan.entryLevel = ct.Level
				}
				plan.pre.Cipher[in.Name] = ct
			default: // values
				if ce.Keys == nil {
					writeError(w, http.StatusBadRequest, "stage %d: input %q: plaintext \"values\" need a server-keygen (demo) context", i, in.Name)
					return
				}
				if len(binding.Values) == 0 || len(binding.Values) > res.Program.VecSize {
					writeError(w, http.StatusBadRequest, "stage %d: input %q has %d values; want 1..%d", i, in.Name, len(binding.Values), res.Program.VecSize)
					return
				}
				plan.values[in.Name] = binding.Values
				pendingValues++
			}
		}
		plans[i] = plan
	}
	if len(incompats) > 0 {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{
			Error:             fmt.Sprintf("incompatible pipeline chaining: %d edge(s) rejected", len(incompats)),
			Incompatibilities: incompats,
		})
		return
	}

	// One admission charge for the whole pipeline: every distinct resolved
	// handle once, fresh-ciphertext placeholders for demo values, decoded
	// uploads and plain vectors per stage, and the heaviest stage's modeled
	// peak (stages run sequentially, so their peaks never stack).
	est := s.estimatePipelineBytes(plans, handleBytes, pendingValues)

	id, err := jobs.NewID()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	t := obs.TraceFromContext(r.Context())
	routeSpan := obs.SpanFromContext(r.Context())
	s.bindJobTrace(id, t)
	admit := t.StartSpan("admission", routeSpan)
	queueSpan := t.StartSpan("queue_wait", routeSpan)
	snap, err := s.jobs.SubmitWithID(id, len(plans), est, func(jctx context.Context, batchDone func(int)) (any, error) {
		queueSpan.End()
		return s.runPipeline(obs.ContextWithTrace(jctx, t), t, routeSpan, plans, ropts, cache, batchDone)
	})
	admit.End()
	if err != nil {
		queueSpan.End()
		if bound := s.takeJobTrace(id); bound != nil {
			bound.Release()
		}
		s.writeAdmissionError(w, err)
		return
	}
	s.log.Debug("pipeline submitted",
		slog.String(obs.LogJobID, id),
		slog.String(obs.LogTraceID, t.ID()),
		slog.Int("stages", len(plans)),
		slog.Int64("est_bytes", est))
	w.Header().Set("Location", "/jobs/"+snap.ID)
	st := jobStatusJSON(snap)
	st.TraceID = t.ID()
	writeJSON(w, http.StatusAccepted, st)
}

// estimatePipelineBytes is the pipeline's admission estimate; see the call
// site for the accounting rules.
func (s *Server) estimatePipelineBytes(plans []*pipelineStagePlan, handleBytes map[string]int64, pendingValues int) int64 {
	var est int64
	for _, b := range handleBytes {
		est += b
	}
	var peak int64
	for _, plan := range plans {
		res := plan.entry.Result
		for name, ct := range plan.pre.Cipher {
			if _, viaHandle := plan.refs[name]; viaHandle {
				continue
			}
			est += int64(ct.MemoryBytes()) // uploads; handles counted above
		}
		for _, pv := range plan.pre.Plain {
			est += int64(8 * len(pv))
		}
		model := res.CostModel()
		if p := model.EstimatePeakMemoryBytes(res.Program); p > peak {
			peak = p
		}
	}
	if len(plans) > 0 {
		res := plans[0].entry.Result
		n := int64(1) << uint(res.LogN)
		est += int64(pendingValues) * 2 * int64(len(res.Plan.BitSizes)) * n * 8
	}
	return est + peak
}

// runPipeline executes the validated stages in order inside one job: each
// stage gets a pipeline_stage span, its upstream edges are wired from the
// raw in-memory outputs of earlier stages (no serialize/store round-trip),
// and its results — output handle ids, or decrypted values on the final demo
// stage — become the job's per-stage BatchResults. A failing stage fails the
// whole pipeline.
func (s *Server) runPipeline(jctx context.Context, t *obs.Trace, parent *obs.Span, plans []*pipelineStagePlan, ropts execute.RunOptions, cache *handleCache, batchDone func(int)) (any, error) {
	results := make([]BatchResult, len(plans))
	rawOuts := make([]*execute.Outputs, len(plans))
	for i, plan := range plans {
		if err := jctx.Err(); err != nil {
			return nil, err
		}
		sp := t.StartSpan("pipeline_stage", parent)
		sp.SetAttr("stage", strconv.Itoa(i))
		sp.SetAttr("program", plan.entry.ID)
		pre := &execute.EncryptedInputs{
			Cipher: map[string]*ckks.Ciphertext{},
			Plain:  plan.pre.Plain,
		}
		for name, ct := range plan.pre.Cipher {
			pre.Cipher[name] = ct
		}
		missing := ""
		for name, ref := range plan.refs {
			ct := rawOuts[ref.stage].Cipher[ref.output]
			if ct == nil {
				missing = fmt.Sprintf("stage %d produced no output %q for input %q", ref.stage, ref.output, name)
				break
			}
			pre.Cipher[name] = ct
		}
		if missing != "" {
			sp.SetAttr("error", missing)
			sp.End()
			return nil, fmt.Errorf("stage %d: %s", i, missing)
		}
		batch := &ExecuteBatch{Values: plan.values}
		stageCtx := obs.ContextWithSpan(jctx, sp)
		result, out := s.runBatchOutputs(stageCtx, plan.entry, plan.ce, batch, pre, ropts, plan.outMode, cache)
		sp.End()
		results[i] = result
		if result.Error != "" {
			return nil, fmt.Errorf("stage %d: %s", i, result.Error)
		}
		rawOuts[i] = out
		batchDone(i)
	}
	return results, nil
}
