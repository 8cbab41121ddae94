package serve

import (
	"bufio"
	"context"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"eva/internal/execute"
	"eva/internal/jobs"
)

// jobsFixture compiles the e2e program and installs a demo (server-keygen)
// context, returning everything a jobs test needs.
type jobsFixture struct {
	url       string
	client    *http.Client
	srv       *Server
	programID string
	contextID string
	inputs    execute.Inputs
}

func newJobsFixture(t *testing.T, cfg Config) *jobsFixture {
	t.Helper()
	cfg.AllowServerKeygen = true
	ts, srv := newTestServer(t, cfg)
	client := ts.Client()
	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 5},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	return &jobsFixture{
		url:       ts.URL,
		client:    client,
		srv:       srv,
		programID: comp.ID,
		contextID: ctxResp.ContextID,
		inputs:    execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}},
	}
}

func (f *jobsFixture) submit(t *testing.T, batches int) (JobStatus, *http.Response) {
	t.Helper()
	sets := make([]ExecuteBatch, batches)
	for i := range sets {
		sets[i] = ExecuteBatch{Values: f.inputs}
	}
	return postJSON[JobStatus](t, f.client, f.url+"/jobs", JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   sets,
	})
}

// readSSE consumes a /jobs/{id}/events stream until it ends, returning the
// event type sequence.
func readSSE(t *testing.T, client *http.Client, url string) []string {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q; want text/event-stream", ct)
	}
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if ev, ok := strings.CutPrefix(sc.Text(), "event: "); ok {
			types = append(types, ev)
		}
	}
	return types
}

// TestJobsEnqueueStreamFetch is the happy path: enqueue, watch the SSE
// stream run queued → running → batch… → done, fetch the result once, and
// check it matches the unencrypted reference execution.
func TestJobsEnqueueStreamFetch(t *testing.T) {
	f := newJobsFixture(t, Config{})
	status, resp := f.submit(t, 2)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	if status.Status == "" || status.JobID == "" {
		t.Fatalf("bad submit response: %+v", status)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+status.JobID {
		t.Errorf("Location = %q", loc)
	}

	types := readSSE(t, f.client, f.url+"/jobs/"+status.JobID+"/events")
	want := []string{"queued", "running", "batch", "batch", "done"}
	if strings.Join(types, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence %v; want %v", types, want)
	}

	final := getJSON[JobStatus](t, f.client, f.url+"/jobs/"+status.JobID)
	if final.Status != "done" || final.BatchesDone != 2 {
		t.Fatalf("final status %+v", final)
	}

	result := getJSON[JobResult](t, f.client, f.url+"/jobs/"+status.JobID+"/result")
	if len(result.Results) != 2 {
		t.Fatalf("%d results; want 2", len(result.Results))
	}
	ref, err := execute.RunReference(e2eProgram(t), f.inputs)
	if err != nil {
		t.Fatal(err)
	}
	for b, br := range result.Results {
		if br.Error != "" {
			t.Fatalf("batch %d error: %s", b, br.Error)
		}
		for j, wantV := range ref["out"] {
			if math.Abs(br.Values["out"][j]-wantV) > 1e-2 {
				t.Errorf("batch %d slot %d: got %v, want %v", b, j, br.Values["out"][j], wantV)
			}
		}
	}

	// Fetch-once: the second fetch is 410 Gone.
	resp2, err := f.client.Get(f.url + "/jobs/" + status.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusGone {
		t.Errorf("second result fetch: status %d; want 410", resp2.StatusCode)
	}
}

// TestJobsQueueFull fills the single worker and the depth-1 queue with
// blocked jobs, then checks a submission over HTTP is shed with 429 and a
// Retry-After hint.
func TestJobsQueueFull(t *testing.T) {
	f := newJobsFixture(t, Config{JobWorkers: 1, JobQueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blocked := func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	first, err := f.srv.Jobs().Submit(1, 0, blocked)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick the first job up so the queue slot frees.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if s, ok := f.srv.Jobs().Get(first.ID); ok && s.Status == jobs.StatusRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := f.srv.Jobs().Submit(1, 0, blocked); err != nil {
		t.Fatal(err)
	}

	errBody, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit with full queue: status %d (%+v); want 429", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if shed := f.srv.Jobs().Stats().Shed; shed != 1 {
		t.Errorf("shed count = %d; want 1", shed)
	}
}

// TestJobsMemoryBudgetShed exhausts the admitted-bytes budget and checks the
// next submission is shed with 429, and that a job bigger than the whole
// budget is rejected with 413.
func TestJobsMemoryBudgetShed(t *testing.T) {
	budget := int64(64 << 20)
	f := newJobsFixture(t, Config{JobWorkers: 1, JobQueueDepth: 8, JobMemoryBudgetBytes: budget})
	release := make(chan struct{})
	defer close(release)
	_, err := f.srv.Jobs().Submit(1, budget, func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	errBody, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit over budget: status %d (%+v); want 429", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
}

// TestJobsResultTTLEviction: finished jobs and their unfetched results are
// evicted after the TTL; later polls and fetches 404.
func TestJobsResultTTLEviction(t *testing.T) {
	f := newJobsFixture(t, Config{})
	setBound(t, f.srv.jobs, "cfg.resultTTL", 50*time.Millisecond)
	status, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	readSSE(t, f.client, f.url+"/jobs/"+status.JobID+"/events") // wait for done
	deadline := time.Now().Add(10 * time.Second)
	for {
		r, err := f.client.Get(f.url + "/jobs/" + status.JobID)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode == http.StatusNotFound {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never evicted after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	r, err := f.client.Get(f.url + "/jobs/" + status.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("result fetch after TTL: status %d; want 404", r.StatusCode)
	}
}

// TestJobsCancelMidRun submits a long multi-batch job, waits for the first
// batch to finish, cancels over HTTP, and checks the job terminates as
// cancelled without running every batch.
func TestJobsCancelMidRun(t *testing.T) {
	f := newJobsFixture(t, Config{JobWorkers: 1})
	const batches = 64
	status, resp := f.submit(t, batches)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	id := status.JobID

	// Follow the stream until the first batch completes, then cancel.
	sresp, err := f.client.Get(f.url + "/jobs/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: batch") {
			break
		}
	}
	req, err := http.NewRequest(http.MethodDelete, f.url+"/jobs/"+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /jobs/%s: status %d", id, dresp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	var final JobStatus
	for {
		final = getJSON[JobStatus](t, f.client, f.url+"/jobs/"+id)
		if final.Status == string(jobs.StatusCancelled) {
			break
		}
		if final.Status == string(jobs.StatusDone) {
			t.Skip("job finished before the cancel landed; nothing to assert")
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", final.Status)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if final.BatchesDone >= batches {
		t.Errorf("all %d batches ran despite cancellation", batches)
	}
	r, err := f.client.Get(f.url + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusGone {
		t.Errorf("result of cancelled job: status %d; want 410", r.StatusCode)
	}
}

// TestJobsValidationErrors: bad submissions fail fast with 4xx.
func TestJobsValidationErrors(t *testing.T) {
	f := newJobsFixture(t, Config{})
	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"unknown context", JobRequest{ProgramID: f.programID, ContextID: "nope", Batches: []ExecuteBatch{{Values: f.inputs}}}, http.StatusNotFound},
		{"program mismatch", JobRequest{ProgramID: "wrong", ContextID: f.contextID, Batches: []ExecuteBatch{{Values: f.inputs}}}, http.StatusConflict},
		{"no batches", JobRequest{ProgramID: f.programID, ContextID: f.contextID}, http.StatusBadRequest},
		{"missing input", JobRequest{ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{{Plain: map[string][]float64{"x": {1}}}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, resp := postJSON[apiError](t, f.client, f.url+"/jobs", tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%+v); want %d", resp.StatusCode, body, tc.want)
			}
		})
	}
	// Unknown job ids 404 on every job route.
	for _, url := range []string{"/jobs/deadbeef", "/jobs/deadbeef/events", "/jobs/deadbeef/result"} {
		r, err := f.client.Get(f.url + url)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d; want 404", url, r.StatusCode)
		}
	}
}

// TestJobsOneWorker: a request runs sequentially by asking for one worker,
// and its batch reports the one worker it ran on.
func TestJobsOneWorker(t *testing.T) {
	f := newJobsFixture(t, Config{})
	res := runJob(t, f.client, f.url, JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Workers:   1,
		Batches:   []ExecuteBatch{{Values: f.inputs}},
	})
	if got := res.Results[0]; got.Error != "" || got.Stats.Workers != 1 {
		t.Fatalf("one-worker batch: error %q, stats %+v; want 1 worker", got.Error, got.Stats)
	}
}

// TestJobsMetricsSurface: /metrics carries the queue counters.
func TestJobsMetricsSurface(t *testing.T) {
	f := newJobsFixture(t, Config{})
	status, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d", resp.StatusCode)
	}
	readSSE(t, f.client, f.url+"/jobs/"+status.JobID+"/events")
	report := getJSON[MetricsReport](t, f.client, f.url+"/metrics")
	if report.Jobs.Submitted != 1 || report.Jobs.Completed != 1 {
		t.Errorf("jobs metrics = %+v; want submitted=1 completed=1", report.Jobs)
	}
	if report.Jobs.BudgetBytes <= 0 || report.Jobs.Workers <= 0 {
		t.Errorf("jobs config metrics not populated: %+v", report.Jobs)
	}
}
