package eva

import (
	"context"
	"net/http"
)

// SubmitOptions consolidates every job-submission knob of the asynchronous
// jobs API into one struct: executor parallelism, the result form, request
// coalescing, and distributed-trace adoption. The zero value submits an
// ordinary asynchronous job with the server's defaults. Submit is the one
// way to submit a job.
type SubmitOptions struct {
	// Workers overrides the executor worker count for this job (0 = the
	// server's default, 1 = sequential; the server clamps excessive values).
	Workers int
	// Output selects the result form: "" returns ciphertext payloads
	// (decrypted values on demo contexts), "handle" persists every encrypted
	// output as a content-addressed handle and returns ids, "values" forces
	// decryption (final results on demo contexts only).
	Output string
	// Coalesce routes a single-batch submission through the server's request
	// coalescer (POST /jobs?coalesce=1): the server packs compatible
	// concurrent callers into disjoint slot ranges of one shared execution
	// and Submit blocks until that batch has run, returning this caller's
	// own slice of the results in SubmitResult.Coalesced. The program must
	// be rotation-free with a narrow input width, the context must be a
	// server-keygen (demo) context, and co-batched callers share a
	// ciphertext — see the README's "Request coalescing" section for the
	// compatibility rules and trust model. Cancelling ctx while waiting
	// evicts only this caller; co-batched requests proceed.
	Coalesce bool
	// TraceID, when set, is sent as the X-Eva-Trace request header so the
	// server adopts a caller-chosen distributed trace id instead of minting
	// one; the job's trace (GET /jobs/{id}/trace) is then findable under it.
	TraceID string
}

// SubmitResult is the outcome of Submit. For ordinary asynchronous
// submissions Job carries the accepted job's status snapshot (poll, stream,
// and fetch by Job.JobID). For coalesced submissions (SubmitOptions.Coalesce)
// Coalesced carries this caller's demultiplexed slice of the shared batch's
// results and Job is zero.
type SubmitResult struct {
	Job       JobStatusInfo
	Coalesced *CoalesceResponse
}

// Submit enqueues batches of encrypted (or demo plaintext) inputs for
// asynchronous execution of a compiled program under an installed context.
// opts selects everything else: worker count, result form,
// coalescing, and trace adoption. When the server sheds the submission the
// returned error is an *APIError with Overloaded() == true; retry after its
// RetryAfter hint (DoWithRetry does this).
func (c *Client) Submit(ctx context.Context, programID, contextID string, batches []ExecuteBatch, opts SubmitOptions) (SubmitResult, error) {
	req := JobRequest{
		ProgramID: programID,
		ContextID: contextID,
		Workers:   opts.Workers,
		Output:    opts.Output,
		Batches:   batches,
	}
	var header http.Header
	if opts.TraceID != "" {
		header = http.Header{TraceHeader: []string{opts.TraceID}}
	}
	if opts.Coalesce {
		var out CoalesceResponse
		if err := c.doWith(ctx, http.MethodPost, "/jobs?coalesce=1", header, req, &out); err != nil {
			return SubmitResult{}, err
		}
		return SubmitResult{Coalesced: &out}, nil
	}
	var out JobStatusInfo
	if err := c.doWith(ctx, http.MethodPost, "/jobs", header, req, &out); err != nil {
		return SubmitResult{}, err
	}
	return SubmitResult{Job: out}, nil
}
