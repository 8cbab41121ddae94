package serve

import (
	"encoding/json"
	"net/http"
)

// POST /pipelines executes a validated DAG of compiled program stages
// server-side: each stage runs against its own program and context, its
// encrypted outputs chain straight into later stages' inputs in memory (and
// are persisted as content-addressed handles), so a multi-stage encrypted
// workload never round-trips ciphertext through the client. Every stage is
// bound to its program's input contract (compile.Result.Bind) at submit
// time, so incompatible chaining gets a structured 422 before anything runs.
// The whole pipeline is one job through internal/jobs (admission control,
// SSE progress per stage, cancel, result fetch-once), with a per-stage span
// recorded in the request trace.

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
	Stages  []PipelineStage `json:"stages"`
	Workers int             `json:"workers,omitempty"`
}

// maxPipelineStages bounds a pipeline's length; each stage is a full
// program execution, so the cap mirrors maxBatchesPerRequest in spirit.
const maxPipelineStages = 64

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
	ropts := runOptions(req.Workers)

	// Validate the whole DAG before anything runs: every stage's context and
	// output mode, then every input edge (lowerStages collects chaining
	// incompatibilities across all edges into one 422).
	plans := make([]*stagePlan, len(req.Stages))
	bindings := make([]func(string) InputBinding, len(req.Stages))
	for i := range req.Stages {
		st := &req.Stages[i]
		ce, status, err := s.resolveExecution(st.ProgramID, st.ContextID)
		if err != nil {
			writeError(w, status, "stage %d: %v", i, err)
			return
		}
		switch st.Output {
		case "":
			st.Output = outputHandle
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
		plans[i] = newStagePlan(ce, st.Output)
		bindings[i] = func(name string) InputBinding { return st.Inputs[name] }
	}
	if !s.lowerStages(w, r, "stage", plans, bindings) {
		return
	}
	s.submitJob(w, r, plans, ropts, true)
}
