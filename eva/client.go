package eva

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"eva/internal/jobs"
	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/serve"
)

// TraceHeader is the header evaserve uses to propagate (and answer with) a
// request's trace id. Every response carries it; clients may also set it on
// a request to adopt a caller-chosen id.
const TraceHeader = obs.TraceHeader

// Wire types of the evaserve HTTP API, re-exported so client code does not
// reach into internal packages.
type (
	// CompileRequest is the body of POST /compile.
	CompileRequest = serve.CompileRequest
	// CompileResponse is the body returned by POST /compile.
	CompileResponse = serve.CompileResponse
	// ContextRequest is the body of POST /contexts.
	ContextRequest = serve.ContextRequest
	// ContextResponse is the body returned by POST /contexts.
	ContextResponse = serve.ContextResponse
	// ExecuteBatch is one input set of a job request.
	ExecuteBatch = serve.ExecuteBatch
	// BatchResult is one batch's execution result.
	BatchResult = serve.BatchResult
	// JobRequest is the body of POST /jobs.
	JobRequest = serve.JobRequest
	// JobStatusInfo is the wire form of an async job's state.
	JobStatusInfo = serve.JobStatus
	// JobResult is the body of GET /jobs/{id}/result.
	JobResult = serve.JobResult
	// CoalesceResponse is the body returned by POST /jobs?coalesce=1.
	CoalesceResponse = serve.CoalesceResponse
	// JobEvent is one entry of a job's progress stream (SSE payload).
	JobEvent = jobs.Event
	// JobTrace is the span tree of one job's trace
	// (GET /jobs/{id}/trace).
	JobTrace = obs.TraceJSON
	// JobTraceSpan is one span of a JobTrace.
	JobTraceSpan = obs.SpanJSON
	// ProfileReport is the instruction profiler's aggregate (GET /profile).
	ProfileReport = profile.Report
	// ProfileCalibration is a fitted set of per-opcode cost-model
	// coefficients (evaserve -calibrate).
	ProfileCalibration = profile.Calibration
)

// ClusterProfile is the body of GET /profile?scope=cluster on a cluster
// node: each member's raw report (or an error placeholder for unreachable
// nodes) plus the merged cluster-wide view.
type ClusterProfile struct {
	Scope  string                     `json:"scope"`
	Nodes  map[string]json.RawMessage `json:"nodes"`
	Merged ProfileReport              `json:"merged"`
}

// APIError is a non-2xx response from evaserve, carrying the decoded error
// body and, for 429 responses, the server's Retry-After hint.
type APIError struct {
	Status     int
	Message    string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("evaserve: HTTP %d: %s", e.Status, e.Message)
}

// Overloaded reports whether the request was shed by admission control and
// is worth retrying after a backoff.
func (e *APIError) Overloaded() bool { return e.Status == http.StatusTooManyRequests }

// Unavailable reports whether the server (or, in a cluster, the node a
// router tried to reach on the caller's behalf) was temporarily unable to
// serve the request: 502 from a routing hop whose target is down, or 503
// from a draining or requeueing node. Like Overloaded, the condition is
// transient and worth retrying after a backoff.
func (e *APIError) Unavailable() bool {
	return e.Status == http.StatusServiceUnavailable || e.Status == http.StatusBadGateway
}

// Transient reports whether the error is worth retrying at all: a shed
// (429) or an unavailable hop (502/503).
func (e *APIError) Transient() bool { return e.Overloaded() || e.Unavailable() }

// Client is a client for an evaserve instance: the compile and contexts
// endpoints plus the jobs API, the one way to run a program (submit, poll,
// stream progress over SSE, fetch the result once, cancel).
type Client struct {
	// BaseURL is the server root, e.g. "http://localhost:8080".
	BaseURL string
	// HTTP is the underlying client (http.DefaultClient when nil).
	HTTP *http.Client
}

// NewClient returns a Client for the server at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do round-trips a JSON request and decodes a JSON response into out,
// converting non-2xx statuses into *APIError.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	return c.doWith(ctx, method, path, nil, body, out)
}

// doWith is do with extra request headers (e.g. a caller-chosen trace id).
func (c *Client) doWith(ctx context.Context, method, path string, header http.Header, body, out any) error {
	var rd io.Reader
	if body != nil {
		payload, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		return decodeAPIError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeAPIError(resp *http.Response) error {
	apiErr := &APIError{Status: resp.StatusCode}
	var body struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err == nil && body.Error != "" {
		apiErr.Message = body.Error
	} else {
		apiErr.Message = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			apiErr.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return apiErr
}

// DoRaw performs one round-trip without interpreting the response: the
// caller owns the returned body and must close it. The cluster tier uses it
// to proxy whole requests — including SSE event streams — between nodes
// while reusing the client's base-URL handling and transport.
func (c *Client) DoRaw(ctx context.Context, method, path string, header http.Header, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		req.Header[k] = vs
	}
	return c.httpClient().Do(req)
}

// Health fetches GET /healthz — the probe the cluster tier uses to track
// peer liveness.
func (c *Client) Health(ctx context.Context) (serve.HealthResponse, error) {
	var out serve.HealthResponse
	err := c.do(ctx, http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// RetryPolicy bounds DoWithRetry's exponential backoff.
type RetryPolicy struct {
	// MaxAttempts caps the total tries. 0 means the default of 5; a
	// negative value retries until ctx expires.
	MaxAttempts int
	// BaseDelay is the first backoff (default 100ms); each subsequent
	// backoff doubles, capped at MaxDelay (default 5s). A Retry-After hint
	// from the server overrides the computed delay for that attempt.
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// Method and Path, when set, name the route op performs so the retry
	// loop can refuse to replay operations that are not idempotent: a 502
	// from a routing hop is ambiguous — the request may have reached the
	// worker and only the response was lost — and replaying a DELETE or a
	// job submit then duplicates the side effect. Left empty, every
	// transient error is retried (the caller asserts idempotency).
	Method string
	Path   string
}

// IdempotentRoute reports whether replaying a request against the evaserve
// API cannot duplicate a side effect: reads are safe except the fetch-once
// job result (a replay after a lost response answers 410), PUT /handles is
// content-addressed (re-storing identical bytes is a dedup hit), and POST
// submits and DELETEs are not safe — a replayed DELETE can race a
// concurrent re-store of the same content address.
func IdempotentRoute(method, path string) bool {
	switch method {
	case http.MethodGet, http.MethodHead:
		return !strings.HasSuffix(path, "/result")
	case http.MethodPut:
		return true
	default:
		return false
	}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// DoWithRetry runs op, retrying transient failures — requests the server
// shed with 429 or answered 502/503 — under bounded exponential backoff,
// honoring the server's Retry-After hint when one is present. Any other
// error (including context cancellation) returns immediately; exhausting
// the attempts returns the last transient error. onRetry, when non-nil, is
// called before each backoff sleep with the attempt number (1-based) and
// the error being retried — load generators use it to count sheds.
//
// When policy names a non-idempotent route (Method/Path), ambiguous
// failures (502/503, where the request may have executed) are returned
// without retry; admission sheds (429) are always retried — a shed request
// never ran.
func (c *Client) DoWithRetry(ctx context.Context, policy RetryPolicy, op func(context.Context) error, onRetry func(attempt int, err error)) error {
	policy = policy.withDefaults()
	delay := policy.BaseDelay
	for attempt := 1; ; attempt++ {
		err := op(ctx)
		if err == nil {
			return nil
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || !apiErr.Transient() {
			return err
		}
		if apiErr.Unavailable() && policy.Method != "" && !IdempotentRoute(policy.Method, policy.Path) {
			return err
		}
		if policy.MaxAttempts > 0 && attempt >= policy.MaxAttempts {
			return err
		}
		wait := delay
		if apiErr.RetryAfter > 0 {
			wait = apiErr.RetryAfter
		}
		if wait > policy.MaxDelay {
			wait = policy.MaxDelay
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(wait):
		}
		if delay *= 2; delay > policy.MaxDelay {
			delay = policy.MaxDelay
		}
	}
}

// Compile submits a program for compilation.
func (c *Client) Compile(ctx context.Context, req CompileRequest) (CompileResponse, error) {
	var out CompileResponse
	err := c.do(ctx, http.MethodPost, "/compile", req, &out)
	return out, err
}

// NewKeygenContext installs a server-keygen (demo mode) execution context
// for a compiled program. The server must run with -demo.
func (c *Client) NewKeygenContext(ctx context.Context, programID string, seed uint64) (ContextResponse, error) {
	var out ContextResponse
	err := c.do(ctx, http.MethodPost, "/contexts", ContextRequest{
		ProgramID: programID,
		Keygen:    &serve.KeygenJSON{Seed: seed},
	}, &out)
	return out, err
}

// JobStatus polls a job (GET /jobs/{id}).
func (c *Client) JobStatus(ctx context.Context, jobID string) (JobStatusInfo, error) {
	var out JobStatusInfo
	err := c.do(ctx, http.MethodGet, "/jobs/"+jobID, nil, &out)
	return out, err
}

// CancelJob cancels a queued or running job (DELETE /jobs/{id}).
func (c *Client) CancelJob(ctx context.Context, jobID string) (JobStatusInfo, error) {
	var out JobStatusInfo
	err := c.do(ctx, http.MethodDelete, "/jobs/"+jobID, nil, &out)
	return out, err
}

// FetchJobResult fetches a finished job's result (GET /jobs/{id}/result).
// Results are delivered exactly once; a second fetch fails with HTTP 410.
func (c *Client) FetchJobResult(ctx context.Context, jobID string) (JobResult, error) {
	var out JobResult
	err := c.do(ctx, http.MethodGet, "/jobs/"+jobID+"/result", nil, &out)
	return out, err
}

// FetchJobTrace fetches a job's span tree (GET /jobs/{id}/trace): the
// end-to-end breakdown of where the job spent its time (queue wait, per-op
// execution, store write; on a cluster, the routing hops too). Traces live
// in a bounded ring on the worker node, so an old job's trace may be gone
// (HTTP 404).
func (c *Client) FetchJobTrace(ctx context.Context, jobID string) (JobTrace, error) {
	var out JobTrace
	err := c.do(ctx, http.MethodGet, "/jobs/"+jobID+"/trace", nil, &out)
	return out, err
}

// FetchProfile fetches the node's instruction-profiler report
// (GET /profile): per-(opcode, level) latency/alloc histograms, drift events
// against the compiler's expectations, per-program sample counts, and the
// installed calibration.
func (c *Client) FetchProfile(ctx context.Context) (ProfileReport, error) {
	var out ProfileReport
	err := c.do(ctx, http.MethodGet, "/profile", nil, &out)
	return out, err
}

// FetchClusterProfile fetches GET /profile?scope=cluster: every cluster
// member's report plus the merged cluster-wide aggregate. Against a
// standalone server the scope parameter is ignored and the merged field is
// empty — use FetchProfile there.
func (c *Client) FetchClusterProfile(ctx context.Context) (ClusterProfile, error) {
	var out ClusterProfile
	err := c.do(ctx, http.MethodGet, "/profile?scope=cluster", nil, &out)
	return out, err
}

// StreamJobEvents subscribes to GET /jobs/{id}/events and calls fn for every
// event, starting with the job's full history. It returns nil when the
// stream ends with the job's terminal event, ctx.Err() on cancellation, or
// fn's error if fn aborts the stream.
func (c *Client) StreamJobEvents(ctx context.Context, jobID string, fn func(JobEvent) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/jobs/"+jobID+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeAPIError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		var ev JobEvent
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return fmt.Errorf("eva: decoding job event: %w", err)
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return err
	}
	return nil
}

// WaitJob blocks until the job reaches a terminal status, preferring the
// event stream and falling back to polling if streaming fails. The returned
// status is the terminal event's own snapshot, not a second read: on a
// cluster, a job whose node died after finishing may already be requeued,
// and a fresh status read would answer "queued" for a job the stream just
// reported done. WaitMillis and RunMillis come from the stream's running and
// terminal events.
func (c *Client) WaitJob(ctx context.Context, jobID string) (JobStatusInfo, error) {
	var final, running *JobEvent
	err := c.StreamJobEvents(ctx, jobID, func(ev JobEvent) error {
		switch ev.Type {
		case string(jobs.StatusRunning):
			running = &ev
		case string(jobs.StatusDone), string(jobs.StatusFailed), string(jobs.StatusCancelled):
			final = &ev
		}
		return nil
	})
	if err == nil && final == nil {
		err = errors.New("eva: event stream ended before the job finished")
	}
	if err == nil {
		st := JobStatusInfo{
			JobID:       jobID,
			Status:      final.Type,
			Batches:     final.Batches,
			BatchesDone: final.BatchesDone,
			Error:       final.Error,
		}
		if running != nil {
			st.WaitMillis = running.ElapsedMillis
			st.RunMillis = final.ElapsedMillis - running.ElapsedMillis
		}
		return st, nil
	}
	if ctx.Err() != nil {
		return JobStatusInfo{}, ctx.Err()
	}
	// Fall back to polling: the stream may have been cut by a proxy.
	for {
		st, perr := c.JobStatus(ctx, jobID)
		if perr != nil {
			return st, perr
		}
		switch st.Status {
		case string(jobs.StatusDone), string(jobs.StatusFailed), string(jobs.StatusCancelled):
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// WaitResult blocks until a submitted job or pipeline reaches a terminal
// status and fetches its results (delivered exactly once): Submit then
// WaitResult is the one-call way to run a program and read its outputs.
func (c *Client) WaitResult(ctx context.Context, jobID string) (JobResult, error) {
	st, err := c.WaitJob(ctx, jobID)
	if err != nil {
		return JobResult{}, err
	}
	if st.Status != string(jobs.StatusDone) {
		return JobResult{}, &APIError{Status: http.StatusConflict,
			Message: "job " + jobID + " finished " + st.Status + ": " + st.Error}
	}
	return c.FetchJobResult(ctx, jobID)
}
