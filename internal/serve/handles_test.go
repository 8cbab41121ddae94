package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/handle"
	"eva/internal/rewrite"
)

// jsonBody marshals a request payload for a non-POST method.
func jsonBody(t testing.TB, v any) *bytes.Reader {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(data)
}

func decodeBody(t testing.TB, resp *http.Response, v any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil && resp.StatusCode == http.StatusOK {
		t.Fatalf("decoding response: %v", err)
	}
}

// handleFixture is the client-key-model handle test rig: a compiled program,
// a context holding only public evaluation keys, and the client-side key
// material needed to encrypt inputs and decrypt outputs locally.
type handleFixture struct {
	url       string
	client    *http.Client
	srv       *Server
	ts        *httptest.Server
	programID string
	contextID string
	params    *ckks.Parameters
	scales    map[string]float64
	encoder   *ckks.Encoder
	encryptor *ckks.Encryptor
	decryptor *ckks.Decryptor
}

func newHandleFixture(t testing.TB, cfg Config) *handleFixture {
	t.Helper()
	ts, srv := newTestServer(t, cfg)
	client := ts.Client()
	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	params, err := ckks.NewParameters(comp.Params.Literal())
	if err != nil {
		t.Fatal(err)
	}
	prng := ckks.NewTestPRNG(21)
	kg := ckks.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	rlk, err := kg.GenRelinearizationKey(sk, params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	rtk, err := kg.GenRotationKeys(sk, fullLevels(params, comp.RotationSteps))
	if err != nil {
		t.Fatal(err)
	}
	rlkData, err := rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rtkData, err := rtk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keys: &EvalKeysJSON{
			Relin:       rlkData,
			RotationSet: rtkData,
		},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	return &handleFixture{
		url:       ts.URL,
		client:    client,
		srv:       srv,
		ts:        ts,
		programID: comp.ID,
		contextID: ctxResp.ContextID,
		params:    params,
		scales:    comp.InputScales,
		encoder:   ckks.NewEncoder(params),
		encryptor: ckks.NewEncryptor(params, sk, prng),
		decryptor: ckks.NewDecryptor(params, sk),
	}
}

// encryptWire encrypts one named input locally and returns its wire bytes.
func (f *handleFixture) encryptWire(t testing.TB, name string, v []float64) []byte {
	t.Helper()
	pt, err := f.encoder.Encode(v, math.Exp2(f.scales[name]), f.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := f.encryptor.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putHandle stores one locally encrypted input through PUT /handles.
func (f *handleFixture) putHandle(t testing.TB, name string, v []float64) string {
	t.Helper()
	meta, resp := f.putHandleRaw(t, f.encryptWire(t, name, v))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /handles: status %d", resp.StatusCode)
	}
	return meta.ID
}

func (f *handleFixture) putHandleRaw(t testing.TB, cipher []byte) (handle.Meta, *http.Response) {
	t.Helper()
	payload := HandlePutRequest{ContextID: f.contextID, Cipher: cipher}
	req, err := http.NewRequest(http.MethodPut, f.url+"/handles", jsonBody(t, payload))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta handle.Meta
	decodeBody(t, resp, &meta)
	return meta, resp
}

// TestHandleCRUDAndExecute walks the content-addressed handle lifecycle in
// the client-key trust model: encrypt locally, store the ciphertext once,
// reference it by id from an execution, and verify dedup, listing, fetch,
// and deletion along the way.
func TestHandleCRUDAndExecute(t *testing.T) {
	f := newHandleFixture(t, Config{})
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{8, 7, 6, 5, 4, 3, 2, 1}

	xWire := f.encryptWire(t, "x", x)
	metaX, resp := f.putHandleRaw(t, xWire)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /handles: status %d", resp.StatusCode)
	}
	if metaX.ID == "" || metaX.ContextID != f.contextID || metaX.Width != 8 {
		t.Fatalf("implausible meta: %+v", metaX)
	}
	if metaX.Level != f.params.MaxLevel() {
		t.Errorf("fresh handle level %d, want %d", metaX.Level, f.params.MaxLevel())
	}
	if math.Abs(metaX.LogScale-f.scales["x"]) > 0.5 {
		t.Errorf("handle log scale %v, want ~%v", metaX.LogScale, f.scales["x"])
	}

	// Content addressing: storing identical bytes yields the same id.
	metaX2, _ := f.putHandleRaw(t, xWire)
	if metaX2.ID != metaX.ID {
		t.Errorf("re-put changed the id: %s vs %s", metaX2.ID, metaX.ID)
	}
	idY := f.putHandle(t, "y", y)

	list := getJSON[HandleListResponse](t, f.client, f.url+"/handles")
	if len(list.Handles) != 2 {
		t.Fatalf("%d handles listed, want 2", len(list.Handles))
	}
	if list.Stats.Puts != 2 || list.Stats.Dedups != 1 {
		t.Errorf("stats %+v, want 2 puts with 1 dedup", list.Stats)
	}

	rec := getJSON[HandleRecordJSON](t, f.client, f.url+"/handles/"+metaX.ID)
	if rec.Meta.ID != metaX.ID || len(rec.Cipher) == 0 {
		t.Fatalf("fetched record is implausible: meta %+v, %d cipher bytes", rec.Meta, len(rec.Cipher))
	}

	// Execute by reference: no ciphertext in the request body at all.
	execResp := runJob(t, f.client, f.url, JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Handles: map[string]string{"x": metaX.ID, "y": idY}}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("unexpected results: %+v", execResp.Results)
	}
	ref, err := execute.RunReference(e2eProgram(t), execute.Inputs{"x": x, "y": y})
	if err != nil {
		t.Fatal(err)
	}
	got := f.decryptOut(t, execResp.Results[0].Cipher["out"])
	for j, want := range ref["out"] {
		if math.Abs(got[j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], want)
		}
	}

	// Mixed sources in one batch: handle for x, inline upload for y.
	execResp = runJob(t, f.client, f.url, JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches: []ExecuteBatch{{
			Handles: map[string]string{"x": metaX.ID},
			Cipher:  map[string][]byte{"y": f.encryptWire(t, "y", y)},
		}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("mixed-source batch failed: %+v", execResp.Results)
	}

	// Deletion is observable and referencing a deleted handle fails the
	// submission with 404.
	req, err := http.NewRequest(http.MethodDelete, f.url+"/handles/"+metaX.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /handles/{id}: status %d", dresp.StatusCode)
	}
	gresp, err := f.client.Get(f.url + "/handles/" + metaX.ID)
	if err != nil {
		t.Fatal(err)
	}
	gresp.Body.Close()
	if gresp.StatusCode != http.StatusNotFound {
		t.Errorf("GET deleted handle: status %d, want 404", gresp.StatusCode)
	}
	_, resp = postJSON[apiError](t, f.client, f.url+"/jobs", JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Handles: map[string]string{"x": metaX.ID, "y": idY}}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("deleted handle: status %d, want 404", resp.StatusCode)
	}

	// Garbage payloads and unknown contexts are rejected up front.
	_, resp = f.putHandleRaw(t, []byte("junk"))
	if resp.StatusCode == http.StatusOK {
		t.Error("garbage cipher accepted by PUT /handles")
	}
	preq, err := http.NewRequest(http.MethodPut, f.url+"/handles", jsonBody(t, HandlePutRequest{ContextID: "nosuch", Cipher: xWire}))
	if err != nil {
		t.Fatal(err)
	}
	presp, err := f.client.Do(preq)
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound {
		t.Errorf("PUT to unknown context: status %d, want 404", presp.StatusCode)
	}
}

func (f *handleFixture) decryptOut(t testing.TB, data []byte) []float64 {
	t.Helper()
	ct := &ckks.Ciphertext{}
	if err := ct.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	return f.encoder.Decode(f.decryptor.Decrypt(ct))
}

// TestJobOutputHandles: a job submitted with "output": "handle" persists its
// encrypted outputs as content-addressed handles instead of shipping them
// back, and the handle section shows up in /metrics.
func TestJobOutputHandles(t *testing.T) {
	f := newJobsFixture(t, Config{JobWorkers: 1})
	status, resp := postJSON[JobStatus](t, f.client, f.url+"/jobs", JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Values: f.inputs}},
		Output:    "handle",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	readSSE(t, f.client, f.url+"/jobs/"+status.JobID+"/events")
	result := getJSON[JobResult](t, f.client, f.url+"/jobs/"+status.JobID+"/result")
	if len(result.Results) != 1 || result.Results[0].Error != "" {
		t.Fatalf("unexpected results: %+v", result.Results)
	}
	id := result.Results[0].Handles["out"]
	if id == "" {
		t.Fatalf("no handle for output \"out\": %+v", result.Results[0])
	}
	if len(result.Results[0].Cipher) != 0 {
		t.Errorf("handle-output job still shipped ciphertext: %+v", result.Results[0].Cipher)
	}
	rec := getJSON[HandleRecordJSON](t, f.client, f.url+"/handles/"+id)
	if rec.Meta.ContextID != f.contextID || rec.Meta.Width != 8 {
		t.Errorf("stored handle meta %+v", rec.Meta)
	}
	metrics := getJSON[MetricsReport](t, f.client, f.url+"/metrics")
	if metrics.Handles == nil || metrics.Handles.Puts == 0 || metrics.Handles.Entries == 0 {
		t.Errorf("metrics missing handle traffic: %+v", metrics.Handles)
	}
}

// pipelinePrograms compiles the two demo stage programs — out = x*y and
// out2 = z*0.5 — with one shared level of chaining headroom, and installs a
// demo context for each under the same keygen seed (identical parameter
// chains make the seeds derive identical keys, which is what lets stage 2
// operate on stage 1's ciphertext).
func pipelinePrograms(t testing.TB, client *http.Client, url string) (p1, c1, p2, c2 string) {
	t.Helper()
	b1 := builder.New("stage1", 8)
	b1.Output("out", b1.Input("x", 30).Mul(b1.Input("y", 30)), 30)
	b2 := builder.New("stage2", 8)
	b2.Output("out2", b2.Input("z", 30).MulScalar(0.5, 30), 30)
	// MaxRescaleLog 30 drops the waterline rescale threshold to 2^60, so each
	// stage's single product rescales back down to the 2^30 waterline — the
	// scale its successor's input expects. The shared level of headroom is
	// what the chaining consumes.
	opts := &CompileOptionsJSON{AllowInsecure: true, MaxRescaleLog: 30, ExtraLevels: 1}

	var ids []string
	for _, prog := range []*core.Program{mustProgram(t, b1), mustProgram(t, b2)} {
		comp, resp := postJSON[CompileResponse](t, client, url+"/compile", CompileRequest{
			Program: programJSON(t, prog),
			Options: opts,
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile %s: status %d", prog.Name, resp.StatusCode)
		}
		ctxResp, resp := postJSON[ContextResponse](t, client, url+"/contexts", ContextRequest{
			ProgramID: comp.ID,
			Keygen:    &KeygenJSON{Seed: 7},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("context for %s: status %d", prog.Name, resp.StatusCode)
		}
		ids = append(ids, comp.ID, ctxResp.ContextID)
	}
	return ids[0], ids[1], ids[2], ids[3]
}

func mustProgram(t testing.TB, b *builder.Builder) *core.Program {
	t.Helper()
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestPipelineEndToEnd is the tentpole acceptance test: a two-stage
// encrypted pipeline — stage 1 computes x*y, stage 2 halves it — executes
// entirely server-side. The intermediate ciphertext never leaves the server
// (stage 1's output is a handle, stage 2 consumes it by stage reference),
// and the decrypted final result matches the cleartext reference.
func TestPipelineEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	p1, c1, p2, c2 := pipelinePrograms(t, client, ts.URL)

	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{2, 2, 2, 2, 3, 3, 3, 3}
	status, resp := postJSON[JobStatus](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{
			{
				ProgramID: p1, ContextID: c1,
				Inputs: map[string]PipelineInput{
					"x": {Values: x},
					"y": {Values: y},
				},
			},
			{
				ProgramID: p2, ContextID: c2,
				Inputs: map[string]PipelineInput{
					"z": {Stage: intp(0)},
				},
				Output: "values",
			},
		},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pipeline submit: status %d (%+v)", resp.StatusCode, status)
	}
	if loc := resp.Header.Get("Location"); loc != "/jobs/"+status.JobID {
		t.Errorf("Location %q, want /jobs/%s", loc, status.JobID)
	}
	readSSE(t, client, ts.URL+"/jobs/"+status.JobID+"/events")
	final := getJSON[JobStatus](t, client, ts.URL+"/jobs/"+status.JobID)
	if final.Status != "done" {
		t.Fatalf("pipeline finished %s: %s", final.Status, final.Error)
	}
	result := getJSON[JobResult](t, client, ts.URL+"/jobs/"+status.JobID+"/result")
	if len(result.Results) != 2 {
		t.Fatalf("%d stage results, want 2", len(result.Results))
	}
	handleID := result.Results[0].Handles["out"]
	if handleID == "" {
		t.Fatalf("stage 0 produced no handle: %+v", result.Results[0])
	}
	rec := getJSON[HandleRecordJSON](t, client, ts.URL+"/handles/"+handleID)
	if rec.Meta.ContextID != c1 {
		t.Errorf("intermediate handle context %s, want %s", rec.Meta.ContextID, c1)
	}
	got := result.Results[1].Values["out2"]
	if got == nil {
		t.Fatalf("stage 1 produced no values: %+v", result.Results[1])
	}
	for j := range x {
		want := x[j] * y[j] * 0.5
		if math.Abs(got[j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], want)
		}
	}

	// The same final stage over an explicit handle reference must work too:
	// feed the stored intermediate back in by id.
	status2, resp := postJSON[JobStatus](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{{
			ProgramID: p2, ContextID: c2,
			Inputs: map[string]PipelineInput{"z": {Handle: handleID}},
			Output: "values",
		}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("handle-input pipeline: status %d", resp.StatusCode)
	}
	readSSE(t, client, ts.URL+"/jobs/"+status2.JobID+"/events")
	result2 := getJSON[JobResult](t, client, ts.URL+"/jobs/"+status2.JobID+"/result")
	if len(result2.Results) != 1 || result2.Results[0].Error != "" {
		t.Fatalf("handle-input pipeline results: %+v", result2.Results)
	}
	for j := range x {
		want := x[j] * y[j] * 0.5
		if math.Abs(result2.Results[0].Values["out2"][j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, result2.Results[0].Values["out2"][j], want)
		}
	}
}

func intp(v int) *int { return &v }

// TestPipelineIncompatibleChaining: a stage whose input would arrive with no
// level budget left is rejected at submit time with a structured 422 naming
// the offending edge — nothing executes.
func TestPipelineIncompatibleChaining(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	p1, c1, p2, c2 := pipelinePrograms(t, client, ts.URL)

	// Each halving stage consumes one level; with one level of headroom the
	// chain runs dry at the fourth stage, whose input would arrive with no
	// rescale budget left.
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	apiErr, resp := postJSON[apiError](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{
			{ProgramID: p1, ContextID: c1, Inputs: map[string]PipelineInput{
				"x": {Values: vals}, "y": {Values: vals},
			}},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{
				"z": {Stage: intp(0)},
			}},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{
				"z": {Stage: intp(1)},
			}},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{
				"z": {Stage: intp(2)},
			}, Output: "values"},
		},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 (%+v)", resp.StatusCode, apiErr)
	}
	if len(apiErr.Incompatibilities) != 1 {
		t.Fatalf("%d incompatibilities, want 1: %+v", len(apiErr.Incompatibilities), apiErr.Incompatibilities)
	}
	inc := apiErr.Incompatibilities[0]
	if inc.Stage != 3 || inc.Input != "z" || inc.Field != "level" {
		t.Errorf("incompatibility %+v, want stage 3 input z field level", inc)
	}

	// Structural errors are immediate 400s: a forward reference.
	_, resp = postJSON[apiError](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{
			{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{
				"z": {Stage: intp(1)},
			}},
			{ProgramID: p1, ContextID: c1, Inputs: map[string]PipelineInput{
				"x": {Values: vals}, "y": {Values: vals},
			}},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("forward stage reference: status %d, want 400", resp.StatusCode)
	}

	// Exactly one source per cipher input.
	_, resp = postJSON[apiError](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{{
			ProgramID: p1, ContextID: c1, Inputs: map[string]PipelineInput{
				"x": {Values: vals, Handle: "deadbeef"}, "y": {Values: vals},
			},
		}},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("ambiguous input source: status %d, want 400", resp.StatusCode)
	}

	// Non-final decrypt stages are rejected.
	_, resp = postJSON[apiError](t, client, ts.URL+"/pipelines", PipelineRequest{
		Stages: []PipelineStage{
			{ProgramID: p1, ContextID: c1, Inputs: map[string]PipelineInput{
				"x": {Values: vals}, "y": {Values: vals},
			}, Output: "values"},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]PipelineInput{
				"z": {Stage: intp(0)},
			}, Output: "values"},
		},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("non-final values stage: status %d, want 400", resp.StatusCode)
	}
}

// TestHandleAdmissionUsesPerInputDepth: a handle is admitted by the depth of
// the input it binds, whatever the number of inputs. The program has 65
// Cipher inputs; x0 only feeds a sum, while every other input meets a
// rescaled product. The eager strategy would pad x0 to the common depth,
// and the wire compiles only that way, so the test compiles the program
// in-process with lazy mod-switching (the CHET pipeline's) and drives the
// rest over the wire. A handle for x0 mod-switched to level 0 — below the
// program's depth, at x0's own — is admitted and runs.
func TestHandleAdmissionUsesPerInputDepth(t *testing.T) {
	p := core.MustNewProgram("wide", 8)
	var xs []*core.Term
	values := execute.Inputs{}
	for i := 0; i < 65; i++ {
		name := fmt.Sprintf("x%d", i)
		x, err := p.NewInput(name, core.TypeCipher, 8, 30)
		if err != nil {
			t.Fatal(err)
		}
		xs = append(xs, x)
		values[name] = []float64{float64(i%7+1) / 8}
	}
	shallow, _ := p.NewBinary(core.OpAdd, xs[0], xs[0])
	deep, _ := p.NewBinary(core.OpMultiply, xs[1], xs[2])
	for _, x := range xs[3:] {
		deep, _ = p.NewBinary(core.OpAdd, deep, x)
	}
	if err := p.AddOutput("shallow", shallow, 30); err != nil {
		t.Fatal(err)
	}
	if err := p.AddOutput("deep", deep, 30); err != nil {
		t.Fatal(err)
	}

	ts, srv := newTestServer(t, Config{AllowServerKeygen: true, JobWorkers: 1})
	client := ts.Client()
	comp, _, err := srv.registry.GetOrCompile(p, compile.Options{AllowInsecure: true, MaxRescaleLog: 30, ModSwitch: rewrite.ModSwitchLazy})
	if err != nil {
		t.Fatal(err)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 9}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	ce, _ := srv.lookupContext(ctxResp.ContextID)
	if in := ce.Entry.Result.Inputs; in[0].Depth != 0 || in[1].Depth == 0 || in[64].Depth == 0 {
		t.Fatalf("input depths x0 %d, x1 %d, x64 %d; the test needs 0, >0, >0", in[0].Depth, in[1].Depth, in[64].Depth)
	}

	pt, err := ce.Ctx.Encoder.Encode(values["x0"], math.Exp2(30), ce.Ctx.Params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(ce.Ctx.Params, ce.Keys.Secret, ckks.NewTestPRNG(10)).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	for ct.Level > 0 {
		if ct, err = ce.Ctx.Evaluator.ModSwitch(ct); err != nil {
			t.Fatal(err)
		}
	}
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hf := &handleFixture{url: ts.URL, client: client, contextID: ctxResp.ContextID}
	meta, resp := hf.putHandleRaw(t, data)
	if resp.StatusCode != http.StatusOK || meta.Level != 0 {
		t.Fatalf("PUT /handles: status %d, level %d", resp.StatusCode, meta.Level)
	}

	delete(values, "x0")
	st, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID, ContextID: ctxResp.ContextID,
		Batches: []ExecuteBatch{{Handles: map[string]string{"x0": meta.ID}, Values: values}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d, want 202 (%+v)", resp.StatusCode, st)
	}
	waitJobDone(t, client, ts.URL, st.JobID)
	res := getJSON[JobResult](t, client, ts.URL+"/jobs/"+st.JobID+"/result")
	if len(res.Results) != 1 || res.Results[0].Error != "" {
		t.Fatalf("job result %+v", res.Results)
	}
	if got := res.Results[0].Values["shallow"]; len(got) == 0 || math.Abs(got[0]-0.25) > 1e-3 {
		t.Errorf("shallow = %v, want 2·x0 = 0.25", got)
	}
}

// BenchmarkHandleResolve measures handle input resolution — registry get,
// wire decode, parameter validation — through a cold per-request cache, the
// per-input overhead every handle-referencing execution pays. Tracked by the
// CI bench-regression gate.
func BenchmarkHandleResolve(b *testing.B) {
	f := newHandleFixture(b, Config{})
	id := f.putHandle(b, "x", []float64{1, 2, 3, 4, 5, 6, 7, 8})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rh, err := f.srv.resolveHandle(ctx, id, newHandleCache())
		if err != nil {
			b.Fatal(err)
		}
		if rh.ct == nil {
			b.Fatal("nil ciphertext")
		}
	}
}
