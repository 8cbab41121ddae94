package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"eva/internal/builder"
	"eva/internal/core"
	"eva/internal/execute"
)

// coalesceProgram is rotation-free with width-4 encrypted inputs on a
// 32-slot vector: stride 4, so up to 8 callers share one ciphertext. The
// square forces RELINEARIZE + RESCALE, so the shared run exercises the full
// cipher pipeline, not just element-wise adds.
func coalesceProgram(t testing.TB) *core.Program {
	t.Helper()
	b := builder.New("coalesce-e2e", 32)
	x := b.InputWithWidth("x", 4, 30)
	y := b.InputWithWidth("y", 4, 30)
	b.Output("out", x.Square().Add(y).MulScalar(0.5, 30), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// identityRotationProgram is coalesceProgram with x rotated by the vector
// size on its way in: the identity, which Compile folds away, so the compiled
// program rotates nothing and coalesces like coalesceProgram.
func identityRotationProgram(t testing.TB) *core.Program {
	t.Helper()
	b := builder.New("coalesce-identity", 32)
	x := b.InputWithWidth("x", 4, 30)
	y := b.InputWithWidth("y", 4, 30)
	b.Output("out", x.RotateLeft(32).Square().Add(y).MulScalar(0.5, 30), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// coalesceFixture compiles a rotation-free program onto a demo context.
type coalesceFixture struct {
	url       string
	client    *http.Client
	srv       *Server
	prog      *core.Program
	programID string
	contextID string
}

// newCoalesceFixture serves cfg with the coalescer's batch cap and wait
// shrunk to maxBatch callers and maxWait.
func newCoalesceFixture(t testing.TB, cfg Config, maxBatch int, maxWait time.Duration) *coalesceFixture {
	t.Helper()
	return newCoalesceFixtureFor(t, cfg, maxBatch, maxWait, coalesceProgram(t))
}

func newCoalesceFixtureFor(t testing.TB, cfg Config, maxBatch int, maxWait time.Duration, prog *core.Program) *coalesceFixture {
	t.Helper()
	cfg.AllowServerKeygen = true
	ts, srv := newTestServer(t, cfg)
	setBound(t, srv.coalescer, "cfg.maxBatch", maxBatch)
	setBound(t, srv.coalescer, "cfg.maxWait", maxWait)
	client := ts.Client()
	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 6},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	return &coalesceFixture{
		url: ts.URL, client: client, srv: srv,
		prog: prog, programID: comp.ID, contextID: ctxResp.ContextID,
	}
}

// callerInputs builds distinct width-4 inputs for caller i.
func callerInputs(i int) execute.Inputs {
	base := float64(i + 1)
	return execute.Inputs{
		"x": {base, base + 0.25, base + 0.5, base + 0.75},
		"y": {-base, base, -base / 2, base / 2},
	}
}

// wantOutput is caller i's exact cleartext result (the unencrypted
// reference execution), truncated to the caller's stride. CKKS outputs are
// compared against it within the same 1e-2 tolerance the unbatched e2e
// tests use — encryption noise differs run to run, so bit-equality between
// a coalesced and an unbatched run is not a meaningful check; equality to
// the shared cleartext reference within the program's precision is.
func (f *coalesceFixture) wantOutput(t testing.TB, i int) []float64 {
	t.Helper()
	ref, err := execute.RunReference(f.prog, callerInputs(i))
	if err != nil {
		t.Fatal(err)
	}
	return ref["out"][:4]
}

func (f *coalesceFixture) coalescedRequest(i int) JobRequest {
	in := callerInputs(i)
	return JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Values: map[string][]float64{"x": in["x"], "y": in["y"]}}},
	}
}

// postCoalesced submits one coalesced caller under ctx (cancellable).
func (f *coalesceFixture) postCoalesced(ctx context.Context, i int) (CoalesceResponse, int, error) {
	payload, err := json.Marshal(f.coalescedRequest(i))
	if err != nil {
		return CoalesceResponse{}, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, f.url+"/jobs?coalesce=1", bytes.NewReader(payload))
	if err != nil {
		return CoalesceResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		return CoalesceResponse{}, 0, err
	}
	defer resp.Body.Close()
	var out CoalesceResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return CoalesceResponse{}, resp.StatusCode, err
	}
	return out, resp.StatusCode, nil
}

// coalesceConcurrently submits callers 0..k-1 at once and returns their
// responses.
func (f *coalesceFixture) coalesceConcurrently(t *testing.T, k int) []CoalesceResponse {
	t.Helper()
	var wg sync.WaitGroup
	responses := make([]CoalesceResponse, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, status, err := f.postCoalesced(context.Background(), i)
			if err != nil || status != http.StatusOK {
				t.Errorf("caller %d: status %d err %v", i, status, err)
				return
			}
			responses[i] = resp
		}(i)
	}
	wg.Wait()
	return responses
}

// requireCallerResults checks each caller's result against its reference.
func (f *coalesceFixture) requireCallerResults(t *testing.T, responses []CoalesceResponse) {
	t.Helper()
	for i, r := range responses {
		if r.Result.Error != "" {
			t.Fatalf("caller %d result error: %s", i, r.Result.Error)
		}
		want := f.wantOutput(t, i)
		got := r.Result.Values["out"]
		if len(got) != len(want) {
			t.Fatalf("caller %d got %d output slots; want %d", i, len(got), len(want))
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-2 {
				t.Errorf("caller %d slot %d: got %v, want %v", i, j, got[j], want[j])
			}
		}
	}
}

// TestCoalesceSharedBatch: two concurrent narrow callers ride ONE batched
// execution — same batch job, disjoint slot ranges, correct per-caller
// results, occupancy visible in /metrics.
func TestCoalesceSharedBatch(t *testing.T) {
	f := newCoalesceFixture(t, Config{}, 2, 10*time.Second)
	responses := f.coalesceConcurrently(t, 2)

	if responses[0].BatchJobID == "" || responses[0].BatchJobID != responses[1].BatchJobID {
		t.Fatalf("callers rode different batches: %q vs %q", responses[0].BatchJobID, responses[1].BatchJobID)
	}
	starts := map[int]bool{}
	for i, r := range responses {
		if r.BatchSize != 2 {
			t.Errorf("caller %d batch size %d; want 2", i, r.BatchSize)
		}
		if r.Slot.Width != 4 || r.Slot.Start%4 != 0 || starts[r.Slot.Start] {
			t.Errorf("caller %d slot %+v (dup=%v)", i, r.Slot, starts[r.Slot.Start])
		}
		starts[r.Slot.Start] = true
		if want := 8.0 / 32.0; r.Occupancy != want {
			t.Errorf("caller %d occupancy %v; want %v", i, r.Occupancy, want)
		}
	}
	f.requireCallerResults(t, responses)

	report := getJSON[MetricsReport](t, f.client, f.url+"/metrics")
	if report.Coalesce == nil {
		t.Fatal("/metrics has no coalesce section")
	}
	if report.Coalesce.Batches != 1 || report.Coalesce.Requests != 2 {
		t.Errorf("coalesce metrics %+v; want 1 batch, 2 requests", report.Coalesce)
	}
	if report.Coalesce.LastBatchOccupancy != 8.0/32.0 {
		t.Errorf("last batch occupancy %v; want 0.25", report.Coalesce.LastBatchOccupancy)
	}
	if report.Coalesce.AmortizedRequestMS <= 0 {
		t.Errorf("amortized request ms %v; want > 0", report.Coalesce.AmortizedRequestMS)
	}
}

// TestCoalesceIdentityRotation: a program whose only rotation is by its
// vector size compiles to one that rotates nothing, so it coalesces: both
// callers ride one batch and each gets its own reference result.
func TestCoalesceIdentityRotation(t *testing.T) {
	f := newCoalesceFixtureFor(t, Config{}, 2, 10*time.Second, identityRotationProgram(t))
	responses := f.coalesceConcurrently(t, 2)
	if responses[0].BatchJobID == "" || responses[0].BatchJobID != responses[1].BatchJobID {
		t.Fatalf("callers rode different batches: %q vs %q", responses[0].BatchJobID, responses[1].BatchJobID)
	}
	f.requireCallerResults(t, responses)
}

// TestCoalesceEstimateChargesBatchOnce is the admission-control regression
// test: a batch of k coalesced callers is charged like ONE job of this
// program — the shared ciphertexts are estimated once, not once per caller.
func TestCoalesceEstimateChargesBatchOnce(t *testing.T) {
	const k = 4
	f := newCoalesceFixture(t, Config{}, k, 10*time.Second)
	responses := f.coalesceConcurrently(t, k)
	batchID := responses[0].BatchJobID
	for i, r := range responses {
		if r.BatchJobID != batchID || r.BatchSize != k {
			t.Fatalf("caller %d: batch %q size %d; want %q size %d", i, r.BatchJobID, r.BatchSize, batchID, k)
		}
	}
	batchStatus := getJSON[JobStatus](t, f.client, f.url+"/jobs/"+batchID)

	// One unbatched job over the same program: the admission estimate of the
	// k-caller batch must equal it exactly (same program, same input kinds),
	// not k times it.
	single, resp := postJSON[JobStatus](t, f.client, f.url+"/jobs", f.coalescedRequest(0))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("unbatched submit: status %d", resp.StatusCode)
	}
	if batchStatus.EstBytes <= 0 || single.EstBytes <= 0 {
		t.Fatalf("estimates not populated: batch=%d single=%d", batchStatus.EstBytes, single.EstBytes)
	}
	if batchStatus.EstBytes != single.EstBytes {
		t.Errorf("coalesced batch estimated %d bytes, single job %d; a %d-caller batch must be charged once, not per caller",
			batchStatus.EstBytes, single.EstBytes, k)
	}
}

// TestCoalesceValidation: everything wrong with a caller is rejected before
// it can join (and poison) a batch.
func TestCoalesceValidation(t *testing.T) {
	f := newCoalesceFixture(t, Config{}, 2, 20*time.Millisecond)

	// A program that rotates is incompatible with slot packing.
	rot, resp := postJSON[CompileResponse](t, f.client, f.url+"/compile", compileRequest(t, e2eProgram(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile rotating program: status %d", resp.StatusCode)
	}
	rotCtx, resp := postJSON[ContextResponse](t, f.client, f.url+"/contexts", ContextRequest{
		ProgramID: rot.ID, Keygen: &KeygenJSON{Seed: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("context for rotating program: status %d", resp.StatusCode)
	}

	ok := f.coalescedRequest(0)
	twoBatches := ok
	twoBatches.Batches = append([]ExecuteBatch{}, ok.Batches[0], ok.Batches[0])
	wide := f.coalescedRequest(0)
	wide.Batches = []ExecuteBatch{{Values: map[string][]float64{
		"x": make([]float64, 32), "y": {1},
	}}}
	missing := f.coalescedRequest(0)
	missing.Batches = []ExecuteBatch{{Values: map[string][]float64{"x": {1}}}}
	encrypted := f.coalescedRequest(0)
	encrypted.Batches = []ExecuteBatch{{Cipher: map[string][]byte{"x": {0, 0, 0}, "y": {0, 0, 0}}}}

	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"rotating program", JobRequest{ProgramID: rot.ID, ContextID: rotCtx.ContextID,
			Batches: []ExecuteBatch{{Values: map[string][]float64{"x": {1}, "y": {1}}}}}, http.StatusUnprocessableEntity},
		{"two batches", twoBatches, http.StatusBadRequest},
		{"input wider than stride", wide, http.StatusBadRequest},
		{"missing input", missing, http.StatusBadRequest},
		{"client-encrypted inputs", encrypted, http.StatusBadRequest},
		{"unknown context", JobRequest{ProgramID: f.programID, ContextID: "nope",
			Batches: ok.Batches}, http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, resp := postJSON[apiError](t, f.client, f.url+"/jobs?coalesce=1", tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d (%+v); want %d", resp.StatusCode, body, tc.want)
			}
		})
	}
}

// TestCoalesceRace is the concurrency e2e: many submitters with jittered
// arrival against short-wait batches, a fraction cancelling mid-wait and
// mid-run. Run under -race in CI. Invariants: every surviving caller gets
// exactly its own reference result (within CKKS precision) — cancelled
// callers never poison co-batched peers — and every survivor's slot
// placement is internally consistent.
func TestCoalesceRace(t *testing.T) {
	f := newCoalesceFixture(t, Config{JobWorkers: 4}, 4, 15*time.Millisecond)
	const callers = 24
	rng := rand.New(rand.NewSource(42))
	jitters := make([]time.Duration, callers)
	cancels := make([]time.Duration, callers)
	for i := range jitters {
		jitters[i] = time.Duration(rng.Intn(20)) * time.Millisecond
		// Every 3rd caller cancels itself somewhere between "still waiting
		// in an unsealed batch" and "batch mid-run".
		if i%3 == 0 {
			cancels[i] = time.Duration(5+rng.Intn(40)) * time.Millisecond
		}
	}

	type outcome struct {
		resp      CoalesceResponse
		status    int
		err       error
		cancelled bool
	}
	results := make([]outcome, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(jitters[i])
			ctx := context.Background()
			if cancels[i] > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, cancels[i])
				defer cancel()
			}
			resp, status, err := f.postCoalesced(ctx, i)
			results[i] = outcome{resp: resp, status: status, err: err, cancelled: cancels[i] > 0}
		}(i)
	}
	wg.Wait()

	survivors := 0
	for i, out := range results {
		if out.err != nil || out.status != http.StatusOK {
			if !out.cancelled {
				t.Errorf("caller %d failed without cancelling: status %d err %v", i, out.status, out.err)
			}
			continue // a cancelled caller may fail; that's its own doing
		}
		survivors++
		r := out.resp
		if r.Result.Error != "" {
			t.Errorf("caller %d: result error %q", i, r.Result.Error)
			continue
		}
		if r.BatchSize < 1 || r.BatchSize > 4 {
			t.Errorf("caller %d: batch size %d out of bounds", i, r.BatchSize)
		}
		if r.Slot.Width != 4 || r.Slot.Start%4 != 0 || r.Slot.End() > 32 {
			t.Errorf("caller %d: bad slot %+v", i, r.Slot)
		}
		want := f.wantOutput(t, i)
		got := r.Result.Values["out"]
		if len(got) != len(want) {
			t.Errorf("caller %d: %d output slots; want %d", i, len(got), len(want))
			continue
		}
		for j := range want {
			if math.Abs(got[j]-want[j]) > 1e-2 {
				t.Errorf("caller %d slot %d: got %v, want %v — another caller's data?", i, j, got[j], want[j])
			}
		}
	}
	if survivors == 0 {
		t.Fatal("no caller survived; the test asserted nothing")
	}
	t.Logf("%d/%d callers survived", survivors, callers)

	s := f.srv.Coalescer().Stats()
	if s.Batches == 0 || s.Requests == 0 {
		t.Errorf("coalesce stats empty after the storm: %+v", s)
	}
	if s.SlotsUsed > s.SlotsTotal {
		t.Errorf("slots used %d exceed slots dispatched %d", s.SlotsUsed, s.SlotsTotal)
	}
}

// TestCoalesceUnbatchedAgreement: the same caller's inputs through the
// coalesced path and the plain /jobs path produce the same answer (within
// CKKS precision) — packing is semantically invisible.
func TestCoalesceUnbatchedAgreement(t *testing.T) {
	f := newCoalesceFixture(t, Config{}, 2, 10*time.Second)
	var wg sync.WaitGroup
	coalesced := make([]CoalesceResponse, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, status, err := f.postCoalesced(context.Background(), i)
			if err != nil || status != http.StatusOK {
				t.Errorf("caller %d: status %d err %v", i, status, err)
				return
			}
			coalesced[i] = resp
		}(i)
	}
	wg.Wait()

	for i := 0; i < 2; i++ {
		status, resp := postJSON[JobStatus](t, f.client, f.url+"/jobs", f.coalescedRequest(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("unbatched submit %d: status %d", i, resp.StatusCode)
		}
		readSSE(t, f.client, f.url+"/jobs/"+status.JobID+"/events")
		result := getJSON[JobResult](t, f.client, f.url+"/jobs/"+status.JobID+"/result")
		if len(result.Results) != 1 || result.Results[0].Error != "" {
			t.Fatalf("unbatched job %d: %+v", i, result.Results)
		}
		unbatched := result.Results[0].Values["out"][:4]
		got := coalesced[i].Result.Values["out"]
		for j := range unbatched {
			if math.Abs(got[j]-unbatched[j]) > 2e-2 {
				t.Errorf("caller %d slot %d: coalesced %v vs unbatched %v", i, j, got[j], unbatched[j])
			}
		}
	}
}
