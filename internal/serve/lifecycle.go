package serve

import (
	"context"
	"encoding/base64"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"strconv"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
	"eva/internal/jobs"
	"eva/internal/obs"
)

// Every execution entry point follows one request lifecycle:
//
//	request → []*stagePlan (lowerStage) → admit → runStages → runStage → persist → deliver
//
// A /jobs batch lowers to a stage with no upstream edges, a pipeline stage
// to a stage whose inputs may name earlier stages' outputs, and a sealed
// coalesced batch to one packed stage. admit is the one path into the job
// manager and the only way a stage reaches runStage, so every execution is
// estimated, queued, traced, persisted and cancellable alike; persistence is
// its finish hook (onJobFinish) and delivery the job result endpoints.

// InputBinding is one wire-level input binding, shared by every execution
// entry point: /jobs batches (via ExecuteBatch.binding) and
// pipeline stages (where PipelineInput is an alias of this type). Exactly one
// source must be set for a Cipher program input: Handle (a stored handle id),
// Stage (pipelines only: a 0-based index of an earlier stage, whose output
// named Output — defaulting to the producer's single encrypted output — feeds
// this input), Cipher (an inline base64 ciphertext), or Values (demo-mode
// plaintext, encrypted server-side). Plain program inputs take Plain (or
// Values).
type InputBinding struct {
	Handle string    `json:"handle,omitempty"`
	Stage  *int      `json:"stage,omitempty"`
	Output string    `json:"output,omitempty"`
	Cipher string    `json:"cipher,omitempty"`
	Values []float64 `json:"values,omitempty"`
	Plain  []float64 `json:"plain,omitempty"`
}

// binding folds one input's wire fields into the shared InputBinding view.
func (b *ExecuteBatch) binding(name string) InputBinding {
	return InputBinding{
		Cipher: b.Cipher[name],
		Handle: b.Handles[name],
		Plain:  b.Plain[name],
		Values: b.Values[name],
	}
}

// stageRef is a resolved stage-to-stage edge: which earlier stage's output
// feeds which input.
type stageRef struct {
	stage  int
	output string
}

// stagePlan is one stage after input resolution: everything runStage needs.
type stagePlan struct {
	entry *Entry
	ce    *contextEntry
	// in holds what resolution produced: decoded uploads, stored handles and
	// replicated plain vectors. runStage adds the upstream and demo inputs.
	in      *execute.EncryptedInputs
	refs    map[string]stageRef // input name -> upstream stage output
	values  execute.Inputs      // demo values, encrypted when the stage runs
	outMode string
	// levels is each level group's entry level (compile.Result.Bind): demo
	// values are encrypted at it, and outputs sit their Level below it.
	levels []int
}

func newStagePlan(ce *contextEntry, outMode string) *stagePlan {
	return &stagePlan{
		entry: ce.Entry,
		ce:    ce,
		in: &execute.EncryptedInputs{
			Cipher: map[string]*ckks.Ciphertext{},
			Plain:  map[string][]float64{},
		},
		refs:    map[string]stageRef{},
		values:  execute.Inputs{},
		outMode: outMode,
	}
}

// lowerStage is the one resolver of InputBindings: it fills plan from the
// binding of each of its program's inputs. A Cipher input takes exactly one
// source — a stored handle, an earlier stage's output (earlier lists the
// stages it may reference), an inline ciphertext, or demo values, which stay
// pending until the stage runs — and a plain input takes "plain" (or
// "values") vectors. Every supplied ciphertext is then bound to the program
// once (compile.Result.Bind), and every violation of its input contract is
// returned as an Incompat, not only the first. Any other problem ends
// resolution with an error that inputStatus maps to an HTTP status.
//
// A batch that carries demo values and asks for no output mode gets its
// outputs decrypted, the demo-mode default.
func (s *Server) lowerStage(stdctx context.Context, plan *stagePlan, binding func(name string) InputBinding, earlier []*stagePlan, cache *handleCache) ([]Incompat, error) {
	res, ce := plan.entry.Result, plan.ce
	args := map[string]compile.CipherArg{}
	from := map[string]string{} // the handle or stage output behind an arg
	anyValues := false
	for _, input := range res.Inputs {
		in := input.Term
		b := binding(in.Name)
		anyValues = anyValues || b.Values != nil
		if in.InType != core.TypeCipher {
			v := b.Plain
			if v == nil {
				v = b.Values
			}
			if v == nil {
				return nil, fmt.Errorf("missing \"plain\" values for plain input %q", in.Name)
			}
			full, err := execute.PreparePlain(res, in.Name, v)
			if err != nil {
				return nil, err
			}
			plan.in.Plain[in.Name] = full
			continue
		}
		sources := 0
		for _, set := range []bool{b.Handle != "", b.Stage != nil, b.Cipher != "", b.Values != nil} {
			if set {
				sources++
			}
		}
		if sources != 1 {
			return nil, fmt.Errorf("input %q needs exactly one of \"handle\", \"stage\", \"cipher\", or \"values\" (got %d)", in.Name, sources)
		}
		switch {
		case b.Values != nil:
			if ce.Keys == nil {
				return nil, fmt.Errorf("input %q: plaintext \"values\" need a server-keygen (demo) context; this context has no keys", in.Name)
			}
			if err := execute.CheckWidth(res, in.Name, b.Values); err != nil {
				return nil, err
			}
			plan.values[in.Name] = b.Values
		case b.Cipher != "":
			upload, _, err := decodeCiphertext(b.Cipher)
			if err == nil {
				err = upload.Validate(ce.Ctx.Params)
			}
			if err != nil {
				return nil, fmt.Errorf("input %q: %w", in.Name, err)
			}
			plan.in.Cipher[in.Name] = upload
			args[in.Name] = compile.CipherArg{Level: upload.Level, LogScale: math.Log2(upload.Scale), Width: res.VecSize}
		case b.Handle != "":
			rh, err := s.resolveHandle(stdctx, b.Handle, cache)
			if err != nil {
				return nil, fmt.Errorf("input %q: %w", in.Name, err)
			}
			m := rh.meta
			plan.in.Cipher[in.Name] = rh.ct // validated once it binds
			args[in.Name] = compile.CipherArg{Level: m.Level, LogScale: m.LogScale, Width: m.Width, Params: m.ParamsID}
			from[in.Name] = m.ID
		default:
			j := *b.Stage
			if j < 0 || j >= len(earlier) {
				return nil, fmt.Errorf("input %q references stage %d; stages may only consume earlier stages", in.Name, j)
			}
			p := earlier[j]
			out, err := stageOutput(p.entry, b.Output)
			if err != nil {
				return nil, fmt.Errorf("input %q: %w", in.Name, err)
			}
			pin := &p.entry.Result.Instrs[out.ID]
			args[in.Name] = compile.CipherArg{Level: p.levels[out.Group] - pin.Level, LogScale: pin.LogScale,
				Width: p.entry.Result.VecSize, Params: p.ce.Ctx.Params.Fingerprint()}
			from[in.Name] = fmt.Sprintf("stage[%d].%s", j, out.Name)
			plan.refs[in.Name] = stageRef{stage: j, output: out.Name}
		}
	}
	levels, mismatches := res.Bind(ce.Ctx.Params, args)
	plan.levels = levels
	if len(mismatches) > 0 {
		incompats := make([]Incompat, len(mismatches))
		for i, m := range mismatches {
			incompats[i] = Incompat{HandleID: from[m.Input], Mismatch: m}
		}
		return incompats, nil
	}
	for _, input := range res.Inputs {
		name := input.Term.Name
		if ct, id := plan.in.Cipher[name], from[name]; ct != nil && id != "" {
			if err := ct.Validate(ce.Ctx.Params); err != nil {
				return nil, fmt.Errorf("input %q: handle %s: %w", name, id, err)
			}
		}
	}
	if plan.outMode == "" && anyValues && ce.Keys != nil {
		plan.outMode = outputValues
	}
	return nil, nil
}

// decodeCiphertext decodes a base64 ciphertext upload, returning it with its
// wire bytes. Callers validate it against their context's parameters before
// the executor touches it: the ring layer assumes well-shaped NTT operands.
func decodeCiphertext(b64 string) (*ckks.Ciphertext, []byte, error) {
	data, err := base64.StdEncoding.DecodeString(b64)
	if err != nil {
		return nil, nil, err
	}
	ct := &ckks.Ciphertext{}
	return ct, data, ct.UnmarshalBinary(data)
}

// stageOutput is the encrypted output of an earlier stage that feeds an
// input: the one named, or the producer's only encrypted output when name is
// empty.
func stageOutput(entry *Entry, name string) (compile.Output, error) {
	res := entry.Result
	var found []compile.Output
	for _, out := range res.Outputs {
		if res.Instrs[out.ID].Cipher && (name == "" || out.Name == name) {
			found = append(found, out)
		}
	}
	switch {
	case len(found) == 1:
		return found[0], nil
	case name != "":
		return compile.Output{}, fmt.Errorf("program %s has no encrypted output %q", entry.ID, name)
	case len(found) == 0:
		return compile.Output{}, fmt.Errorf("program %s has no encrypted output to chain", entry.ID)
	}
	return compile.Output{}, fmt.Errorf("program %s has several encrypted outputs; name one with \"output\"", entry.ID)
}

// inputStatus maps an input-resolution error to its HTTP status: an unknown
// handle is a 404, anything else a malformed request.
func inputStatus(err error) int {
	if errors.Is(err, handle.ErrNotFound) {
		return http.StatusNotFound
	}
	return http.StatusBadRequest
}

// lowerStages lowers every stage of one queued submission through
// lowerStage, sharing one handle cache so a handle referenced many times is
// resolved — and estimated — once. label names a stage in error messages
// ("batch" on /jobs, "stage" on /pipelines). On failure it answers the
// request itself and returns false: the first resolution error with its
// status, or one 422 listing every input contract violation of every stage.
func (s *Server) lowerStages(w http.ResponseWriter, r *http.Request, label string, plans []*stagePlan, bindings []func(string) InputBinding) bool {
	cache := newHandleCache()
	var incompats []Incompat
	for i, plan := range plans {
		incs, err := s.lowerStage(r.Context(), plan, bindings[i], plans[:i], cache)
		if err != nil {
			writeError(w, inputStatus(err), "%s %d: %v", label, i, err)
			return false
		}
		for _, inc := range incs {
			inc.Stage = i
			incompats = append(incompats, inc)
		}
	}
	if len(incompats) > 0 {
		writeJSON(w, http.StatusUnprocessableEntity, apiError{
			Error:             fmt.Sprintf("incompatible input chaining: %d input(s) rejected", len(incompats)),
			Incompatibilities: incompats,
		})
		return false
	}
	return true
}

// estimateBytes is the admission estimate of a job's stages: the resident
// bytes they pin while queued and running. Every distinct input ciphertext
// counts once (a handle shared by many inputs, batches or stages is one
// allocation), plain vectors count at their size, each pending demo value
// counts as a fresh ciphertext of its own stage's ring, and the largest
// modelled peak of the intermediates counts once, since stages run one after
// another.
func estimateBytes(plans []*stagePlan) int64 {
	var est, peak int64
	seen := map[*ckks.Ciphertext]bool{}
	modelled := map[*Entry]bool{}
	for _, p := range plans {
		res := p.entry.Result
		for _, ct := range p.in.Cipher {
			if !seen[ct] {
				seen[ct] = true
				est += int64(ct.MemoryBytes())
			}
		}
		for _, pv := range p.in.Plain {
			est += int64(8 * len(pv))
		}
		est += int64(len(p.values)) * res.CiphertextBytes(0, 2)
		if !modelled[p.entry] {
			modelled[p.entry] = true
			peak = max(peak, res.PeakMemoryBytes())
		}
	}
	return est + peak
}

// admit is the one path into the job manager: it estimates the stages'
// footprint, mints the job id, binds trace t to it, records the admission
// and queue_wait spans under parent, and submits run, which gets a context
// carrying t and parent. When the manager rejects the job, the trace binding
// is released and the error returned.
func (s *Server) admit(t *obs.Trace, parent *obs.Span, plans []*stagePlan, run jobs.RunFunc) (jobs.Snapshot, error) {
	est := estimateBytes(plans)
	id, err := jobs.NewID()
	if err != nil {
		return jobs.Snapshot{}, err
	}
	// Bind before submitting: the manager makes a job visible — and
	// finishable — before SubmitWithID returns, so binding afterwards would
	// race the finish hook.
	s.bindJobTrace(id, t)
	admitSpan := t.StartSpan("admission", parent)
	queueSpan := t.StartSpan("queue_wait", parent)
	snap, err := s.jobs.SubmitWithID(id, len(plans), est, func(jctx context.Context, batchDone func(int)) (any, error) {
		queueSpan.End()
		return run(obs.ContextWithSpan(obs.ContextWithTrace(jctx, t), parent), batchDone)
	})
	admitSpan.End()
	if err != nil {
		queueSpan.End()
		// The job never became visible; the finish hook will not fire, so
		// drop the binding and its reference here.
		if bound := s.takeJobTrace(id); bound != nil {
			bound.Release()
		}
		return snap, err
	}
	s.log.Debug("job submitted",
		slog.String(obs.LogJobID, id),
		slog.String(obs.LogTraceID, t.ID()),
		slog.Int("stages", len(plans)),
		slog.Int64("est_bytes", est))
	return snap, nil
}

// submitJob admits the lowered stages of a /jobs or /pipelines request as one
// job running runStages, and answers 202 with the job's status (or the
// admission error's status).
func (s *Server) submitJob(w http.ResponseWriter, r *http.Request, plans []*stagePlan, ropts execute.RunOptions, chained bool) {
	t := obs.TraceFromContext(r.Context())
	snap, err := s.admit(t, obs.SpanFromContext(r.Context()), plans, func(jctx context.Context, batchDone func(int)) (any, error) {
		return s.runStages(jctx, plans, ropts, chained, batchDone)
	})
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	w.Header().Set("Location", "/jobs/"+snap.ID)
	st := jobStatusJSON(snap)
	st.TraceID = t.ID()
	writeJSON(w, http.StatusAccepted, st)
}

// runStages is the job body of /jobs and /pipelines: it runs the stages in
// order and reports each as done. Chained stages (a pipeline) each get a
// pipeline_stage span, take their upstream inputs from earlier stages' raw
// outputs, and fail the whole job on the first stage error; unchained stages
// (a /jobs request's batches) keep their errors in their own results.
func (s *Server) runStages(ctx context.Context, plans []*stagePlan, ropts execute.RunOptions, chained bool, batchDone func(int)) (any, error) {
	results := make([]BatchResult, len(plans))
	outs := make([]*execute.Outputs, len(plans))
	for i, plan := range plans {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !chained {
			results[i], _ = s.runStage(ctx, plan, nil, ropts)
			plans[i] = nil // release the pinned inputs as batches complete
			batchDone(i)
			continue
		}
		sp := obs.TraceFromContext(ctx).StartSpan("pipeline_stage", obs.SpanFromContext(ctx))
		sp.SetAttr("stage", strconv.Itoa(i))
		sp.SetAttr("program", plan.entry.ID)
		results[i], outs[i] = s.runStage(obs.ContextWithSpan(ctx, sp), plan, outs, ropts)
		if results[i].Error != "" {
			sp.SetAttr("error", results[i].Error)
			sp.End()
			return nil, fmt.Errorf("stage %d: %s", i, results[i].Error)
		}
		sp.End()
		batchDone(i)
	}
	return results, nil
}

func batchError(format string, args ...any) BatchResult {
	return BatchResult{Error: fmt.Sprintf(format, args...)}
}

// runStage is the one stage runner: it wires the stage's upstream edges from
// earlier stages' outputs, encrypts its pending demo values, executes it
// under an execute span, and renders its output mode. Failures come back in
// the BatchResult; the raw outputs feed later pipeline stages.
func (s *Server) runStage(stdctx context.Context, plan *stagePlan, upstream []*execute.Outputs, ropts execute.RunOptions) (BatchResult, *execute.Outputs) {
	res, ce := plan.entry.Result, plan.ce
	fail := func(format string, args ...any) (BatchResult, *execute.Outputs) {
		s.metrics.RecordExecutionError()
		return batchError(format, args...), nil
	}
	enc := plan.in
	for name, ref := range plan.refs {
		ct := upstream[ref.stage].Cipher[ref.output]
		if ct == nil {
			return fail("stage %d produced no output %q for input %q", ref.stage, ref.output, name)
		}
		enc.Cipher[name] = ct
	}
	if len(plan.values) > 0 {
		cts, d, err := execute.EncryptSelected(ce.Ctx, res, ce.Keys, plan.values, plan.levels, nil)
		if err != nil {
			return fail("encrypting values: %v", err)
		}
		maps.Copy(enc.Cipher, cts)
		enc.EncryptTime += d
	}
	if plan.outMode == outputValues && ce.Keys == nil {
		return fail("\"output\": \"values\" needs a server-keygen (demo) context; this context has no keys")
	}

	// The execute span carries per-instruction progress (readable on live
	// traces) and, after the run, the per-opcode time the profiler summed and
	// the run's hoisted rotation batches.
	t := obs.TraceFromContext(stdctx)
	sp := t.StartSpan("execute", obs.SpanFromContext(stdctx))
	// The instruction profiler measures this run; the trace id rides along
	// so drift events in /profile link back to their /traces entry.
	rec := s.profiles.Recorder(plan.entry.ID, res, t.ID())
	if rec != nil {
		defer rec.Finish()
	}
	if sp != nil || rec != nil {
		// The executor calls OnInstruction once per instruction under its
		// run lock, so a plain counter is the run's progress.
		done, total := 0, len(res.Instrs)
		ropts.OnInstruction = func(term *core.Term, ir execute.InstrRecord) {
			rec.OnInstruction(term, ir)
			done++
			sp.Progress(done, total)
		}
	}
	out, err := execute.RunContext(stdctx, ce.Ctx, res, enc, ropts)
	if err != nil {
		sp.SetAttr("error", err.Error())
		sp.End()
		// A cancelled run (client disconnect, job cancel, shutdown) is not an
		// execution failure; keep the failure counter meaningful for alerts.
		if stdctx.Err() == nil {
			s.metrics.RecordExecutionError()
		}
		return batchError("executing: %v", err), nil
	}
	if sp != nil {
		sp.SetAttr("workers", strconv.Itoa(out.Stats.Workers))
		sp.SetAttr("hoisted_batches", strconv.Itoa(out.Stats.HoistedBatches))
		sp.SetAttr("hoisted_rotations", strconv.Itoa(out.Stats.HoistedRotations))
		for op, wall := range rec.OpWall() {
			sp.SetAttr("op."+op+"_ms", strconv.FormatFloat(float64(wall)/float64(time.Millisecond), 'f', 3, 64))
		}
		sp.End()
	}
	s.metrics.RecordExecution(out.Stats)

	result := BatchResult{
		Stats: BatchStats{
			Instructions: out.Stats.Instructions,
			Workers:      out.Stats.Workers,
			WallMillis:   float64(out.Stats.WallTime) / float64(time.Millisecond),
		},
	}
	switch plan.outMode {
	case outputValues:
		result.Values, _ = execute.DecryptOutputs(ce.Ctx, res, ce.Keys, out)
		return result, out
	case outputHandle:
		result.Handles = map[string]string{}
		for name, ct := range out.Cipher {
			meta, err := s.storeHandle(ce, ct, nil)
			if err != nil {
				return fail("storing output %q: %v", name, err)
			}
			result.Handles[name] = meta.ID
		}
	default:
		result.Cipher = map[string]string{}
		for name, ct := range out.Cipher {
			data, err := ct.MarshalBinary()
			if err != nil {
				return fail("serializing output %q: %v", name, err)
			}
			result.Cipher[name] = base64.StdEncoding.EncodeToString(data)
		}
	}
	for name, v := range out.Plain {
		if result.Values == nil {
			result.Values = map[string][]float64{}
		}
		result.Values[name] = v[:min(res.VecSize, len(v))]
	}
	return result, out
}
