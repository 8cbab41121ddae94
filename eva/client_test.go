package eva_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"eva/eva"
	"eva/internal/serve"
)

// startDemoServer runs an in-process evaserve in demo mode.
func startDemoServer(t *testing.T, cfg serve.Config) *eva.Client {
	t.Helper()
	cfg.AllowServerKeygen = true
	s := serve.NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	c := eva.NewClient(ts.URL)
	c.HTTP = ts.Client()
	return c
}

func clientProgramSource() string {
	return `program client vec=8;
input x @30;
out = x * x;
output out @30;`
}

// TestClientJobsRoundTrip drives the full async workflow through the public
// client: compile from source, keygen context, submit, stream events, wait,
// fetch the result exactly once.
func TestClientJobsRoundTrip(t *testing.T) {
	c := startDemoServer(t, serve.Config{})
	ctx := context.Background()

	comp, err := c.Compile(ctx, eva.CompileRequest{
		Source:  clientProgramSource(),
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 9)
	if err != nil {
		t.Fatal(err)
	}
	const traceID = "0123456789abcdef0123456789abcdef"
	sub, err := c.Submit(ctx, comp.ID, ectx.ContextID, []eva.ExecuteBatch{
		{Values: map[string][]float64{"x": {1, 2, 3, 4, 5, 6, 7, 8}}},
		{Values: map[string][]float64{"x": {2, 2, 2, 2, 2, 2, 2, 2}}},
	}, eva.SubmitOptions{TraceID: traceID})
	if err != nil {
		t.Fatal(err)
	}
	job := sub.Job
	if job.JobID == "" {
		t.Fatal("empty job id")
	}
	if job.TraceID != traceID {
		t.Fatalf("job adopted trace %q; want the caller-chosen %q", job.TraceID, traceID)
	}
	if sub.Coalesced != nil {
		t.Fatal("uncoalesced submission returned a Coalesced result")
	}

	var types []string
	if err := c.StreamJobEvents(ctx, job.JobID, func(ev eva.JobEvent) error {
		types = append(types, ev.Type)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 || types[len(types)-1] != "done" {
		t.Fatalf("event stream %v; want it to end with done", types)
	}

	final, err := c.WaitJob(ctx, job.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != "done" || final.BatchesDone != 2 {
		t.Fatalf("final status %+v", final)
	}

	res, err := c.FetchJobResult(ctx, job.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 2 {
		t.Fatalf("%d results; want 2", len(res.Results))
	}
	for i, want := range []float64{1, 4} { // first slot of x*x per batch
		got := res.Results[i].Values["out"]
		if len(got) == 0 || got[0] < want-0.05 || got[0] > want+0.05 {
			t.Errorf("batch %d out[0] = %v; want ~%v", i, got, want)
		}
	}

	// Fetch-once: the second fetch surfaces as a 410 APIError.
	if _, err := c.FetchJobResult(ctx, job.JobID); err == nil {
		t.Fatal("second fetch succeeded; want 410")
	} else {
		var apiErr *eva.APIError
		if !errors.As(err, &apiErr) || apiErr.Status != 410 {
			t.Fatalf("second fetch error = %v; want *APIError with status 410", err)
		}
	}
}

// TestClientOverloadedError: admission-control sheds surface as APIError
// with Overloaded() and a RetryAfter hint.
func TestClientOverloadedError(t *testing.T) {
	// Budget of 1 byte: every real job estimate exceeds it outright (413),
	// so occupy the budget path via queue depth instead: workers=1, depth=1,
	// and a pile of submissions.
	c := startDemoServer(t, serve.Config{JobWorkers: 1, JobQueueDepth: 1})
	ctx := context.Background()
	comp, err := c.Compile(ctx, eva.CompileRequest{
		Source:  clientProgramSource(),
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 9)
	if err != nil {
		t.Fatal(err)
	}
	// Enough batches that the worker cannot drain before the queue fills.
	batches := make([]eva.ExecuteBatch, 64)
	for i := range batches {
		batches[i] = eva.ExecuteBatch{Values: map[string][]float64{"x": {1, 2, 3, 4}}}
	}
	var sawOverload bool
	for i := 0; i < 16 && !sawOverload; i++ {
		_, err := c.Submit(ctx, comp.ID, ectx.ContextID, batches, eva.SubmitOptions{})
		if err == nil {
			continue
		}
		var apiErr *eva.APIError
		if !errors.As(err, &apiErr) {
			t.Fatalf("submit error = %v; want *APIError", err)
		}
		if apiErr.Overloaded() {
			sawOverload = true
			if apiErr.RetryAfter <= 0 {
				t.Error("overloaded error without RetryAfter hint")
			}
		}
	}
	if !sawOverload {
		t.Fatal("never saw an overloaded (429) submission")
	}
}

// TestClientSubmitCoalesced drives the request coalescer through the
// consolidated Submit entry point: a rotation-free width-4 program on a
// 32-slot vector, several concurrent callers, each getting back only its own
// stride of the shared execution.
func TestClientSubmitCoalesced(t *testing.T) {
	c := startDemoServer(t, serve.Config{})
	ctx := context.Background()
	comp, err := c.Compile(ctx, eva.CompileRequest{
		Source: `program co vec=32;
input x: cipher width=4 @30;
out = x * x;
output out @30;`,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 11)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := float64(i + 1)
			res, err := c.Submit(ctx, comp.ID, ectx.ContextID, []eva.ExecuteBatch{
				{Values: map[string][]float64{"x": {base, base, base, base}}},
			}, eva.SubmitOptions{Coalesce: true})
			if err != nil {
				errs[i] = err
				return
			}
			if res.Coalesced == nil {
				errs[i] = errors.New("coalesced submission returned no Coalesced result")
				return
			}
			got := res.Coalesced.Result.Values["out"]
			want := base * base
			if len(got) == 0 || got[0] < want-0.05 || got[0] > want+0.05 {
				errs[i] = fmt.Errorf("caller %d out = %v; want ~%v", i, got, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("caller %d: %v", i, err)
		}
	}
}

// TestWaitJobReturnsTerminalEvent: WaitJob reports the job's terminal event
// itself. The status endpoint here answers "queued", as a cluster router
// does for a job requeued after its node died between finishing and the
// read; a second status read would turn a finished job into a lost one.
func TestWaitJobReturnsTerminalEvent(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range []string{
			`{"type":"queued","job_id":"local","batches":2,"batches_done":0,"elapsed_ms":0.1}`,
			`{"type":"running","job_id":"local","batches":2,"batches_done":0,"elapsed_ms":1.5}`,
			`{"type":"batch","job_id":"local","batch":1,"batches":2,"batches_done":1,"elapsed_ms":3}`,
			`{"type":"batch","job_id":"local","batch":2,"batches":2,"batches_done":2,"elapsed_ms":4}`,
			`{"type":"done","job_id":"local","batches":2,"batches_done":2,"elapsed_ms":4.5}`,
		} {
			fmt.Fprintf(w, "event: x\ndata: %s\n\n", ev)
		}
	})
	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"job_id":%q,"status":"queued","batches":2,"batches_done":0}`, r.PathValue("id"))
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := eva.NewClient(ts.URL)
	c.HTTP = ts.Client()

	st, err := c.WaitJob(context.Background(), "n1~abc")
	if err != nil {
		t.Fatal(err)
	}
	want := eva.JobStatusInfo{JobID: "n1~abc", Status: "done", Batches: 2, BatchesDone: 2, WaitMillis: 1.5, RunMillis: 3}
	if st != want {
		t.Fatalf("WaitJob = %+v; want %+v", st, want)
	}
}
