package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"eva/internal/coalesce"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/obs"
)

// Request coalescing (POST /jobs?coalesce=1) packs many compatible narrow
// requests into one shared homomorphic execution: same program, same
// context, width·k ≤ VecSize, no rotations. The handler validates each
// caller up front (a bad request is rejected with 400 and never joins a
// batch), blocks in the coalescer until its batch runs, and returns that
// caller's demuxed slice synchronously. The batch itself is one ordinary
// job through the manager — admission control charges the shared
// ciphertexts once, not once per caller, and GET /jobs/{batch_job_id}
// reports the batch (stats only; per-caller values are delivered to the
// callers and never retained).
//
// Trust model: co-batched callers share a ciphertext, so coalescing is
// limited to server-keygen (demo/shared-key) contexts — the server packs
// plaintext values and encrypts once. Client-encrypted ciphertexts cannot
// be packed without a masking multiply per caller. Programs whose inputs
// are all plain need no keys and coalesce on any context.

// CoalesceResponse is the body returned to one caller of a coalesced
// submission: its own demuxed result plus where it rode — the underlying
// batch job, how many callers shared it, the caller's slot range, and the
// slot occupancy of the packed ciphertext. Stats inside Result are the
// whole batch's (the amortized per-caller cost is WallMillis/BatchSize).
type CoalesceResponse struct {
	ProgramID  string         `json:"program_id"`
	ContextID  string         `json:"context_id"`
	BatchJobID string         `json:"batch_job_id"`
	BatchSize  int            `json:"batch_size"`
	Slot       coalesce.Range `json:"slot"`
	Occupancy  float64        `json:"occupancy"`
	WaitMillis float64        `json:"wait_ms"`
	Result     BatchResult    `json:"result"`
}

// coalesceRequested reports whether a /jobs submission opted into
// cross-request batching.
func coalesceRequested(r *http.Request) bool {
	switch r.URL.Query().Get("coalesce") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// handleCoalescedSubmit validates one caller's submission and parks it in
// the coalescer. Everything that can be wrong with a request is rejected
// here, before it joins a batch, so one malformed caller can never poison
// co-batched peers.
func (s *Server) handleCoalescedSubmit(w http.ResponseWriter, r *http.Request, req *JobRequest) {
	ce, status, err := s.resolveExecution(req.ProgramID, req.ContextID)
	if err != nil {
		writeError(w, status, "%v", err)
		return
	}
	entry := ce.Entry
	if len(req.Batches) != 1 {
		writeError(w, http.StatusBadRequest, "a coalesced submission carries exactly one batch, got %d", len(req.Batches))
		return
	}
	if err := validOutputMode(req.Output); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	batch := &req.Batches[0]
	if len(batch.Cipher) > 0 || len(batch.Handles) > 0 {
		// Ciphertext inputs (uploads or stored handles) fill the whole slot
		// vector, so they can never share a packed execution.
		writeError(w, http.StatusBadRequest, "coalesced callers supply plaintext \"values\" or \"plain\"; ciphertext inputs (\"cipher\", \"handles\") fill the whole slot vector — POST /jobs without coalesce=1 instead")
		return
	}
	if req.Output == outputHandle {
		writeError(w, http.StatusBadRequest, "coalesced callers receive their demuxed slices; \"output\": \"handle\" would store the shared ciphertext — POST /jobs without coalesce=1 instead")
		return
	}
	stride, err := coalesce.Compatible(entry.Result)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	res := entry.Result
	inputs := make(map[string][]float64, len(res.Inputs))
	for _, input := range res.Inputs {
		in := input.Term
		var v []float64
		var ok bool
		if in.InType == core.TypeCipher {
			if ce.Keys == nil {
				writeError(w, http.StatusBadRequest, "coalescing encrypted input %q needs a server-keygen (demo) context; this context has no keys", in.Name)
				return
			}
			v, ok = batch.Values[in.Name]
		} else {
			v, ok = batch.Plain[in.Name]
		}
		if !ok {
			writeError(w, http.StatusBadRequest, "missing value for input %q", in.Name)
			return
		}
		if len(v) == 0 || len(v) > stride {
			writeError(w, http.StatusBadRequest, "input %q has %d values; a coalesced caller supplies 1..%d (the program's slot stride)", in.Name, len(v), stride)
			return
		}
		inputs[in.Name] = v
	}

	// The caller blocks here for its whole coalesced ride: waiting for the
	// batch to fill, the shared execution, and the demux. The span's attrs
	// record where it rode once the delivery arrives.
	waitSpan := obs.TraceFromContext(r.Context()).StartSpan("coalesce_wait", obs.SpanFromContext(r.Context()))
	d, err := s.coalescer.Submit(r.Context(), &coalesce.Request{
		Key:     coalesce.Key{Program: entry.ID, Context: ce.ID},
		VecSize: res.VecSize,
		Stride:  stride,
		Inputs:  inputs,
	})
	if err == nil {
		waitSpan.SetAttr("batch_job_id", d.BatchID)
		waitSpan.SetAttr("batch_size", strconv.Itoa(d.BatchSize))
	}
	waitSpan.End()
	if err != nil {
		switch {
		case r.Context().Err() != nil:
			// The caller is gone; there is no one to answer.
		case errors.Is(err, coalesce.ErrClosed):
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		default:
			// Admission errors surface with their usual status codes
			// (429/413/503); anything else failed inside the shared run.
			s.writeAdmissionError(w, err)
		}
		return
	}
	result, ok := d.Payload.(BatchResult)
	if !ok {
		writeError(w, http.StatusInternalServerError, "coalesced batch carries an unexpected result type")
		return
	}
	writeJSON(w, http.StatusOK, CoalesceResponse{
		ProgramID:  entry.ID,
		ContextID:  ce.ID,
		BatchJobID: d.BatchID,
		BatchSize:  d.BatchSize,
		Slot:       d.Slot,
		Occupancy:  d.Occupancy,
		WaitMillis: d.WaitMS,
		Result:     result,
	})
}

// runCoalescedBatch executes one sealed batch: pack every caller's inputs
// into shared full-width vectors, run them as ONE job through the manager
// (admission control sees the batch once), demux each output back into
// per-caller slices, and deliver. It is the coalescer's Config.Run hook.
func (s *Server) runCoalescedBatch(b *coalesce.Batch) {
	// The shared execution gets its own trace (each caller's request trace
	// records only that caller's wait); the batch trace is bound to the
	// batch's job id, so GET /jobs/{batch_job_id}/trace shows the shared
	// pack → queue → execute → demux pipeline.
	bt := s.tracer.Start("")
	defer bt.Release()

	// Re-resolve: the context may have been LRU-evicted (and store-restored)
	// between submission and seal.
	ce, _, err := s.resolveExecution(b.Key.Program, b.Key.Context)
	if err != nil {
		b.FailAll(err)
		return
	}
	layout := b.Layout()
	reqs := b.Requests()

	packSpan := bt.StartSpan("coalesce_pack", nil)
	packSpan.SetAttr("callers", strconv.Itoa(len(reqs)))
	packed := &ExecuteBatch{Values: map[string][]float64{}, Plain: map[string][]float64{}}
	for _, input := range ce.Entry.Result.Inputs {
		in := input.Term
		per := make([][]float64, len(reqs))
		for j, req := range reqs {
			per[j] = req.Inputs[in.Name]
		}
		vec, err := coalesce.Pack(layout, per)
		if err != nil {
			b.FailAll(err)
			return
		}
		if in.InType == core.TypeCipher {
			packed.Values[in.Name] = vec
		} else {
			packed.Plain[in.Name] = vec
		}
	}
	// The packed batch is one stage: admission charges its shared vectors
	// once — one fresh ciphertext per encrypted input, not per caller.
	plan := newStagePlan(ce, "")
	if _, err := s.lowerStage(context.Background(), plan, packed.binding, nil, newHandleCache()); err != nil {
		b.FailAll(err)
		return
	}
	packSpan.End()

	var ropts execute.RunOptions // shared runs use the executor's defaults
	snap, err := s.admit(bt, nil, []*stagePlan{plan}, func(jctx context.Context, batchDone func(int)) (any, error) {
		start := time.Now()
		result, _ := s.runStage(jctx, plan, nil, ropts)
		b.Done(time.Since(start))
		batchDone(0)
		if result.Error != "" {
			err := fmt.Errorf("coalesced execution: %s", result.Error)
			b.FailAll(err)
			return nil, err
		}
		demuxSpan := bt.StartSpan("coalesce_demux", nil)
		defer demuxSpan.End()
		perCaller := make([]BatchResult, len(reqs))
		for j := range perCaller {
			perCaller[j] = BatchResult{Values: map[string][]float64{}, Stats: result.Stats}
		}
		for name, vec := range result.Values {
			parts, err := coalesce.Demux(layout, vec)
			if err != nil {
				err = fmt.Errorf("demultiplexing output %q: %w", name, err)
				b.FailAll(err)
				return nil, err
			}
			for j := range parts {
				perCaller[j].Values[name] = parts[j]
			}
		}
		for j := range perCaller {
			b.Deliver(j, perCaller[j], nil)
		}
		// The job's retained result is the batch's stats only: per-caller
		// values were just delivered and are never stored where another
		// tenant could fetch them.
		return []BatchResult{{Stats: result.Stats}}, nil
	})
	if err != nil {
		b.FailAll(err)
		return
	}
	b.SetID(snap.ID)
	// If every caller abandons the sealed batch, cancel the shared job too.
	b.SetCancel(func() { s.jobs.Cancel(snap.ID) })
}
