package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/handle"
)

// parityFixture drives one program and one demo context through every
// execution entry point: POST /jobs, POST /jobs?coalesce=1 and a one-stage
// POST /pipelines.
type parityFixture struct {
	*coalesceFixture
	ce *contextEntry
}

// request is the URL and body that submit batch through the named entry
// point.
func (f *parityFixture) request(entry string, batch ExecuteBatch, output string) (string, any) {
	req := JobRequest{ProgramID: f.programID, ContextID: f.contextID, Output: output, Batches: []ExecuteBatch{batch}}
	switch entry {
	case "coalesce":
		return f.url + "/jobs?coalesce=1", req
	case "jobs":
		return f.url + "/jobs", req
	}
	inputs := map[string]PipelineInput{}
	for _, in := range f.prog.Inputs() {
		inputs[in.Name] = batch.binding(in.Name)
	}
	if output == "" {
		output = outputValues
	}
	return f.url + "/pipelines", PipelineRequest{Stages: []PipelineStage{{
		ProgramID: f.programID, ContextID: f.contextID, Inputs: inputs, Output: output,
	}}}
}

// run submits batch through the named entry point and returns the HTTP
// status of the submission, the batch's result when it ran, and the
// admission estimate of the job it became (0 when it became none).
func (f *parityFixture) run(t *testing.T, entry string, batch ExecuteBatch, output string) (int, BatchResult, int64) {
	t.Helper()
	url, body := f.request(entry, batch, output)
	if entry == "coalesce" {
		out, resp := postJSON[CoalesceResponse](t, f.client, url, body)
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, out.Result, 0
		}
		return resp.StatusCode, out.Result, getJSON[JobStatus](t, f.client, f.url+"/jobs/"+out.BatchJobID).EstBytes
	}
	st, resp := postJSON[JobStatus](t, f.client, url, body)
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, BatchResult{}, 0
	}
	waitJobDone(t, f.client, f.url, st.JobID)
	res := getJSON[JobResult](t, f.client, f.url+"/jobs/"+st.JobID+"/result")
	return resp.StatusCode, res.Results[0], st.EstBytes
}

// withHeadroom is a fixture for the same program compiled with extra levels,
// on its own demo context on the same server.
func (f *parityFixture) withHeadroom(t *testing.T, levels int) *parityFixture {
	t.Helper()
	comp, resp := postJSON[CompileResponse](t, f.client, f.url+"/compile", CompileRequest{
		Program: programJSON(t, f.prog),
		Options: &CompileOptionsJSON{AllowInsecure: true, ExtraLevels: levels},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	ctxResp, resp := postJSON[ContextResponse](t, f.client, f.url+"/contexts", ContextRequest{ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 6}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	ce, ok := f.srv.lookupContext(ctxResp.ContextID)
	if !ok {
		t.Fatal("headroom context not installed")
	}
	cf := *f.coalesceFixture
	cf.programID, cf.contextID = comp.ID, ctxResp.ContextID
	return &parityFixture{coalesceFixture: &cf, ce: ce}
}

// encrypt encrypts v for input name under the fixture's keys, at the given
// level and log2 scale offset from the input's compiled scale.
func (f *parityFixture) encrypt(t *testing.T, name string, v []float64, level int, skew float64) *ckks.Ciphertext {
	t.Helper()
	params := f.ce.Ctx.Params
	pt, err := f.ce.Ctx.Encoder.Encode(v, math.Exp2(f.prog.InputByName(name).LogScale+skew), params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, f.ce.Keys.Secret, ckks.NewTestPRNG(4)).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	for ct.Level > level {
		if ct, err = f.ce.Ctx.Evaluator.ModSwitch(ct); err != nil {
			t.Fatal(err)
		}
	}
	return ct
}

func wireBytes(t *testing.T, ct *ckks.Ciphertext) []byte {
	t.Helper()
	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// outputBytes is the serialized "out" ciphertext of a result, whether it
// came back inline or as a stored handle.
func (f *parityFixture) outputBytes(t *testing.T, r BatchResult) []byte {
	t.Helper()
	if id, ok := r.Handles["out"]; ok {
		return getJSON[HandleRecordJSON](t, f.client, f.url+"/handles/"+id).Cipher
	}
	data := r.Cipher["out"]
	if len(data) == 0 {
		t.Fatalf("result carries no output ciphertext: %+v", r)
	}
	return data
}

// coalesceRefuses checks that POST /jobs?coalesce=1 answers a batch carrying
// ciphertexts with 400 pointing at POST /jobs: such inputs fill the whole
// slot vector, so they never share a packed execution.
func (f *parityFixture) coalesceRefuses(t *testing.T, batch ExecuteBatch) {
	t.Helper()
	url, body := f.request("coalesce", batch, "")
	apiErr, resp := postJSON[apiError](t, f.client, url, body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, "POST /jobs") {
		t.Errorf("coalesce: status %d (%q), want 400 naming POST /jobs", resp.StatusCode, apiErr.Error)
	}
}

func (f *parityFixture) putHandle(t *testing.T, cipher []byte) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, f.url+"/handles", jsonBody(t, HandlePutRequest{ContextID: f.contextID, Cipher: cipher}))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var meta handle.Meta
	decodeBody(t, resp, &meta)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /handles: status %d", resp.StatusCode)
	}
	return meta.ID
}

// TestEntryPointParity runs one program with the same inputs through every
// entry point and every input source, and holds them to one behaviour: the
// same outputs (byte-identical ciphertexts from the same input ciphertexts,
// the reference's values from demo values), the same admission estimate,
// and the same status for each class of bad input. Coalescing takes only
// plaintext values and refuses every ciphertext-carrying batch with 400. A
// second copy of the program, compiled with level headroom, takes
// ciphertexts below the top of the chain.
func TestEntryPointParity(t *testing.T) {
	cf := newCoalesceFixture(t, Config{}, 1, time.Second)
	ce, ok := cf.srv.lookupContext(cf.contextID)
	if !ok {
		t.Fatal("fixture context not installed")
	}
	f := &parityFixture{coalesceFixture: cf, ce: ce}
	res := ce.Entry.Result
	in := callerInputs(0)
	want := f.wantOutput(t, 0)

	cts, err := execute.EncryptInputs(ce.Ctx, res, ce.Keys, in, ckks.NewTestPRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	wire := map[string][]byte{}
	handles := map[string]string{}
	var cipherBytes int64
	for name, ct := range cts.Cipher {
		wire[name] = wireBytes(t, ct)
		handles[name] = f.putHandle(t, wire[name])
		cipherBytes += int64(ct.MemoryBytes())
	}

	// The admission estimate every entry point charges, in the accounting
	// the jobs path has always used: distinct input ciphertexts once,
	// pending demo values as fresh ciphertexts, the modelled peak once.
	estimate := func(res *compile.Result, cipherBytes int64, values int) int64 {
		return cipherBytes + int64(values)*res.CiphertextBytes(0, 2) + res.PeakMemoryBytes()
	}
	x := cts.Cipher["x"]

	// The headroom copy: x one level below the top of its chain.
	deep := f.withHeadroom(t, 2)
	deepTop := deep.ce.Ctx.Params.MaxLevel()
	lowX := deep.encrypt(t, "x", in["x"], deepTop-1, 0)
	lowHandle := deep.putHandle(t, wireBytes(t, lowX))

	entries := []string{"jobs", "coalesce", "pipelines"}
	shapes := []struct {
		name  string
		fx    *parityFixture
		batch ExecuteBatch
		est   int64
	}{
		{"cipher", f, ExecuteBatch{Cipher: wire}, estimate(res, cipherBytes, 0)},
		{"handle", f, ExecuteBatch{Handles: handles}, estimate(res, cipherBytes, 0)},
		{"mixed", f, ExecuteBatch{Handles: map[string]string{"x": handles["x"]}, Cipher: map[string][]byte{"y": wire["y"]}}, estimate(res, cipherBytes, 0)},
		{"shared handle", f, ExecuteBatch{Handles: map[string]string{"x": handles["x"], "y": handles["x"]}}, estimate(res, int64(x.MemoryBytes()), 0)},
		{"values", f, ExecuteBatch{Values: in}, estimate(res, 0, 2)},
		// y's values are encrypted at the level x's handle enters at.
		{"lowered handle and values", deep, ExecuteBatch{Handles: map[string]string{"x": lowHandle}, Values: map[string][]float64{"y": in["y"]}},
			estimate(deep.ce.Entry.Result, int64(lowX.MemoryBytes()), 1)},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			values := shape.batch.Values != nil
			ciphered := shape.batch.Cipher != nil || shape.batch.Handles != nil
			var ref []byte
			for _, entry := range entries {
				if entry == "coalesce" && ciphered {
					shape.fx.coalesceRefuses(t, shape.batch)
					continue
				}
				output := ""
				if entry == "pipelines" && !values {
					output = outputHandle
				}
				status, r, est := shape.fx.run(t, entry, shape.batch, output)
				if status/100 != 2 || r.Error != "" {
					t.Fatalf("%s: status %d, result error %q", entry, status, r.Error)
				}
				if est != shape.est {
					t.Errorf("%s: est_bytes %d, want %d", entry, est, shape.est)
				}
				if values {
					got := r.Values["out"]
					if len(got) < len(want) {
						t.Fatalf("%s: %d output slots, want %d", entry, len(got), len(want))
					}
					for j := range want {
						if math.Abs(got[j]-want[j]) > 1e-2 {
							t.Errorf("%s slot %d: got %v, want %v", entry, j, got[j], want[j])
						}
					}
					continue
				}
				out := shape.fx.outputBytes(t, r)
				if ref == nil {
					ref = out
				} else if !bytes.Equal(out, ref) {
					t.Errorf("%s: output ciphertext differs from /jobs'", entry)
				}
			}
		})
	}

	// A ciphertext breaking the input contract is rejected, whether it comes
	// as a handle or inline: encoded at a scale x does not take, below the
	// depth of its input, or at another level than the rest of its group.
	// Every bad batch carries ciphertexts, so coalescing refuses it first.
	skewed := f.encrypt(t, "x", in["x"], ce.Ctx.Params.MaxLevel(), -10)
	skewedHandle := f.putHandle(t, wireBytes(t, skewed))
	bad := []struct {
		name   string
		fx     *parityFixture
		batch  ExecuteBatch
		status int
		field  string
	}{
		{"bad cipher bytes", f, ExecuteBatch{Cipher: map[string][]byte{"x": []byte("!!not base64"), "y": wire["y"]}}, http.StatusBadRequest, ""},
		{"unknown handle", f, ExecuteBatch{Handles: map[string]string{"x": "0000000000000000000000000000000000000000000000000000000000000000", "y": handles["y"]}}, http.StatusNotFound, ""},
		{"scale mismatch", f, ExecuteBatch{Handles: map[string]string{"x": skewedHandle, "y": handles["y"]}}, http.StatusUnprocessableEntity, "scale"},
		{"missing input", f, ExecuteBatch{Cipher: map[string][]byte{"x": wire["x"]}}, http.StatusBadRequest, ""},
		{"inline scale mismatch", f, ExecuteBatch{Cipher: map[string][]byte{"x": wireBytes(t, skewed), "y": wire["y"]}}, http.StatusUnprocessableEntity, "scale"},
		{"inline below depth", f, ExecuteBatch{Cipher: map[string][]byte{
			"x": wireBytes(t, f.encrypt(t, "x", in["x"], 0, 0)), "y": wireBytes(t, f.encrypt(t, "y", in["y"], 0, 0)),
		}}, http.StatusUnprocessableEntity, "level"},
		{"lowered handle and top-level cipher", deep, ExecuteBatch{
			Handles: map[string]string{"x": lowHandle},
			Cipher:  map[string][]byte{"y": wireBytes(t, deep.encrypt(t, "y", in["y"], deepTop, 0))},
		}, http.StatusUnprocessableEntity, "level"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			for _, entry := range entries {
				if entry == "coalesce" {
					tc.fx.coalesceRefuses(t, tc.batch)
					continue
				}
				url, body := tc.fx.request(entry, tc.batch, "")
				apiErr, resp := postJSON[apiError](t, tc.fx.client, url, body)
				if resp.StatusCode != tc.status {
					t.Errorf("%s: status %d, want %d", entry, resp.StatusCode, tc.status)
				}
				if tc.field != "" && len(apiErr.Incompatibilities) == 0 {
					t.Errorf("%s: no incompatibilities in %+v", entry, apiErr)
				}
				for _, inc := range apiErr.Incompatibilities {
					if inc.Field != tc.field {
						t.Errorf("%s: incompatibility %+v, want field %s", entry, inc, tc.field)
					}
				}
			}
		})
	}

	// Malformed base64 in an inline cipher fails the request decode: 400 on
	// every entry point.
	t.Run("bad base64", func(t *testing.T) {
		for _, entry := range entries {
			url, body := f.request(entry, ExecuteBatch{Cipher: map[string][]byte{"x": {0}, "y": wire["y"]}}, "")
			raw, err := json.Marshal(body)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(raw, []byte(`"AA=="`)) {
				t.Fatalf("%s: the one-byte cipher is not in the body %s", entry, raw)
			}
			raw = bytes.Replace(raw, []byte(`"AA=="`), []byte(`"!!not base64"`), 1)
			if _, resp := postJSON[apiError](t, f.client, url, json.RawMessage(raw)); resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", entry, resp.StatusCode)
			}
		}
	})

	// A two-batch /jobs 422 names every incompatible input, not the first.
	batch := ExecuteBatch{Handles: map[string]string{"x": skewedHandle, "y": handles["y"]}}
	apiErr, resp := postJSON[apiError](t, f.client, f.url+"/jobs", JobRequest{
		ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{batch, batch},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity || len(apiErr.Incompatibilities) != 2 {
		t.Fatalf("two bad batches: status %d, %d incompatibilities; want 422 with 2: %+v", resp.StatusCode, len(apiErr.Incompatibilities), apiErr)
	}
	for i, inc := range apiErr.Incompatibilities {
		if inc.Stage != i || inc.Input != "x" || inc.Field != "scale" {
			t.Errorf("incompatibility %d: %+v, want batch %d input x field scale", i, inc, i)
		}
	}
}

// TestEveryExecutionIsAdmitted: admission is the only way into the executor.
// With a one-byte memory budget no program fits, so every entry point that
// runs a program must refuse it — /jobs and /pipelines with 413, a
// ciphertext-carrying coalesced submission with 400, and the route the
// synchronous /execute once had with 404 or 405 — and nothing executes.
func TestEveryExecutionIsAdmitted(t *testing.T) {
	f := newJobsFixture(t, Config{JobMemoryBudgetBytes: 1})

	_, resp := f.submit(t, 1)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /jobs: status %d, want 413", resp.StatusCode)
	}

	inputs := map[string]PipelineInput{}
	for name, v := range f.inputs {
		inputs[name] = PipelineInput{Values: v}
	}
	_, resp = postJSON[apiError](t, f.client, f.url+"/pipelines", PipelineRequest{Stages: []PipelineStage{{
		ProgramID: f.programID, ContextID: f.contextID, Inputs: inputs, Output: outputValues,
	}}})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("POST /pipelines: status %d, want 413", resp.StatusCode)
	}

	ce, ok := f.srv.lookupContext(f.contextID)
	if !ok {
		t.Fatal("fixture context not installed")
	}
	cts, err := execute.EncryptInputs(ce.Ctx, ce.Entry.Result, ce.Keys, f.inputs, ckks.NewTestPRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	wire := map[string][]byte{}
	for name, ct := range cts.Cipher {
		wire[name] = wireBytes(t, ct)
	}
	req := JobRequest{ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{{Cipher: wire}}}
	_, resp = postJSON[apiError](t, f.client, f.url+"/jobs?coalesce=1", req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("POST /jobs?coalesce=1 with ciphertexts: status %d, want 400", resp.StatusCode)
	}

	resp, err = f.client.Post(f.url+"/execute/"+f.programID, "application/json", jsonBody(t, req))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /execute/{id}: status %d, want 404 or 405", resp.StatusCode)
	}

	if n := f.srv.MetricsReport().Executions; n != 0 {
		t.Errorf("%d executions ran past a budget no program fits", n)
	}
}
