package eva

import (
	"context"
	"net/http"

	"eva/internal/handle"
	"eva/internal/serve"
)

// Ciphertext handles and pipelines: the client side of the server's
// content-addressed ciphertext store. StoreCiphertext uploads an encrypted
// vector once; jobs then reference it by id ({"handles": {...}}), pipelines
// chain whole programs server-side, and FetchHandle pulls a persisted
// output back for local decryption.

type (
	// HandleMeta is a stored handle's metadata (content-address id, owning
	// context, parameter fingerprint, level, scale and width).
	HandleMeta = handle.Meta
	// HandleRecord is the body of GET /handles/{id}: metadata plus the
	// serialized ciphertext.
	HandleRecord = serve.HandleRecordJSON
	// HandleList is the body of GET /handles.
	HandleList = serve.HandleListResponse
	// PipelineRequest is the body of POST /pipelines.
	PipelineRequest = serve.PipelineRequest
	// PipelineStage is one compiled-program stage of a pipeline.
	PipelineStage = serve.PipelineStage
	// InputBinding is the shared wire form of one input binding, accepted by
	// every execution entry point (batches and pipeline stages alike).
	InputBinding = serve.InputBinding
	// PipelineInput binds one program input of a pipeline stage (an
	// InputBinding alias kept for readability at pipeline call sites).
	PipelineInput = serve.PipelineInput
)

// StoreCiphertext uploads a serialized ciphertext (ckks wire format) under
// a context and returns the stored handle's metadata. The operation is
// idempotent: re-storing identical bytes returns the same content address.
func (c *Client) StoreCiphertext(ctx context.Context, contextID string, cipher []byte) (HandleMeta, error) {
	var out HandleMeta
	err := c.do(ctx, http.MethodPut, "/handles", serve.HandlePutRequest{
		ContextID: contextID,
		Cipher:    cipher,
	}, &out)
	return out, err
}

// FetchHandle fetches a stored handle's metadata and ciphertext bytes
// (GET /handles/{id}).
func (c *Client) FetchHandle(ctx context.Context, id string) (HandleRecord, error) {
	var out HandleRecord
	err := c.do(ctx, http.MethodGet, "/handles/"+id, nil, &out)
	return out, err
}

// ListHandles lists the stored handles and the registry's counters.
func (c *Client) ListHandles(ctx context.Context) (HandleList, error) {
	var out HandleList
	err := c.do(ctx, http.MethodGet, "/handles", nil, &out)
	return out, err
}

// DeleteHandle removes a stored handle (DELETE /handles/{id}). The call is
// not safely retryable: a replay can race a concurrent re-store of the same
// content and delete the new copy — use RetryPolicy.Method/Path so
// DoWithRetry refuses to replay it.
func (c *Client) DeleteHandle(ctx context.Context, id string) error {
	return c.do(ctx, http.MethodDelete, "/handles/"+id, nil, nil)
}

// SubmitPipeline submits a multi-stage encrypted pipeline (POST /pipelines)
// and returns immediately with the pipeline job's id; poll or wait on it
// like any async job. Incompatible stage chaining fails the submit with a
// structured 422 (APIError).
func (c *Client) SubmitPipeline(ctx context.Context, req PipelineRequest) (JobStatusInfo, error) {
	var out JobStatusInfo
	err := c.do(ctx, http.MethodPost, "/pipelines", req, &out)
	return out, err
}
