package eva_test

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"eva/eva"
	"eva/internal/profile"
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
	c := startDemoServer(t, serve.Config{ProfileSampleRate: 1})
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

	// The profiler sampled every instruction of both batches, under the
	// program's id.
	prof, err := c.FetchProfile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.IndexFunc(prof.Programs, func(p profile.ProgramSummary) bool { return p.ProgramID == comp.ID })
	if i < 0 || prof.Programs[i].Executions != 2 || prof.Programs[i].Samples == 0 || prof.Programs[i].Samples != prof.Programs[i].Instructions {
		t.Fatalf("profile of program %s: %+v; want 2 executions with every instruction sampled", comp.ID, prof.Programs)
	}
	// A standalone server ignores the cluster scope: the merged view is empty.
	cluster, err := c.FetchClusterProfile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if cluster.Merged.Executions != 0 || len(cluster.Merged.Programs) != 0 || len(cluster.Nodes) != 0 {
		t.Fatalf("cluster profile from a standalone server: %+v; want an empty merged view", cluster)
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

// TestClientCancelJob: cancelling a job that is still queued — the one
// worker of the server is busy with an earlier job — returns its status
// decoded, cancelled with no batch run; a second cancel reads the same.
func TestClientCancelJob(t *testing.T) {
	c := startDemoServer(t, serve.Config{JobWorkers: 1})
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
	batches := func(n int) []eva.ExecuteBatch {
		out := make([]eva.ExecuteBatch, n)
		for i := range out {
			out[i] = eva.ExecuteBatch{Values: map[string][]float64{"x": {1, 2, 3, 4, 5, 6, 7, 8}}}
		}
		return out
	}
	busy, err := c.Submit(ctx, comp.ID, ectx.ContextID, batches(1024), eva.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := c.Submit(ctx, comp.ID, ectx.ContextID, batches(2), eva.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		st, err := c.CancelJob(ctx, queued.Job.JobID)
		if err != nil {
			t.Fatal(err)
		}
		if st.JobID != queued.Job.JobID || st.Status != "cancelled" || st.Batches != 2 || st.BatchesDone != 0 || st.Error == "" {
			t.Fatalf("CancelJob of a queued job = %+v; want it cancelled with 0 of 2 batches done and a reason", st)
		}
	}
	if st, err := c.CancelJob(ctx, busy.Job.JobID); err != nil || st.JobID != busy.Job.JobID {
		t.Fatalf("CancelJob of the busy job = %+v, %v", st, err)
	}
	if _, err := c.CancelJob(ctx, "no-such-job"); err == nil {
		t.Fatal("CancelJob of an unknown job succeeded; want 404")
	} else if apiErr := (*eva.APIError)(nil); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("CancelJob of an unknown job: %v; want *APIError with status 404", err)
	}
}

// TestClientListHandles: a ciphertext stored through the client is listed,
// decoded, with the metadata the store answered with.
func TestClientListHandles(t *testing.T) {
	c := startDemoServer(t, serve.Config{})
	ctx := context.Background()
	comp, err := c.Compile(ctx, eva.CompileRequest{Source: clientProgramSource(), Options: &serve.CompileOptionsJSON{AllowInsecure: true}})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 9)
	if err != nil {
		t.Fatal(err)
	}
	// The server compiles deterministically, so the same program and
	// options compiled here give its parameters; any key of them encrypts
	// a ciphertext the handle store accepts.
	program, err := eva.ParseSource(clientProgramSource())
	if err != nil {
		t.Fatal(err)
	}
	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true
	compiled, err := eva.Compile(program, opts)
	if err != nil {
		t.Fatal(err)
	}
	hctx, keys, err := eva.NewContext(compiled, eva.NewTestPRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := eva.EncryptInputs(hctx, compiled, keys, eva.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}}, eva.NewTestPRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	cipher, err := enc.Cipher["x"].MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	meta, err := c.StoreCiphertext(ctx, ectx.ContextID, cipher)
	if err != nil {
		t.Fatal(err)
	}
	list, err := c.ListHandles(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Handles) != 1 {
		t.Fatalf("ListHandles = %+v; want exactly the stored handle %+v", list.Handles, meta)
	}
	got := list.Handles[0]
	if got.ID != meta.ID || got.ContextID != ectx.ContextID || got.Level != enc.Cipher["x"].Level ||
		got.Width != 8 || got.Bytes != len(cipher) || !got.CreatedAt.Equal(meta.CreatedAt) {
		t.Errorf("listed handle %+v; want %+v, under context %s at level %d", got, meta, ectx.ContextID, enc.Cipher["x"].Level)
	}
	if list.Stats.Entries != 1 || list.Stats.Puts != 1 {
		t.Errorf("ListHandles stats %+v; want 1 entry from 1 put", list.Stats)
	}
}
