package serve

import (
	"bytes"
	"encoding/base64"
	"math"
	"net/http"
	"testing"
	"time"

	"eva/internal/ckks"
	"eva/internal/execute"
	"eva/internal/handle"
)

// parityFixture drives one program and one demo context through every
// execution entry point: POST /execute, POST /jobs, POST /jobs?coalesce=1
// and a one-stage POST /pipelines.
type parityFixture struct {
	*coalesceFixture
	ce *contextEntry
}

// run submits batch through the named entry point and returns the HTTP
// status of the submission, the batch's result when it ran, and the
// admission estimate of the job it became (0 when it became none).
func (f *parityFixture) run(t *testing.T, entry string, batch ExecuteBatch, output string) (int, BatchResult, int64) {
	t.Helper()
	req := JobRequest{ProgramID: f.programID, ContextID: f.contextID, Output: output, Batches: []ExecuteBatch{batch}}
	switch entry {
	case "execute":
		out, resp := postJSON[ExecuteResponse](t, f.client, f.url+"/execute/"+f.programID, ExecuteRequest{
			ContextID: f.contextID, Output: output, Batches: req.Batches,
		})
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, BatchResult{}, 0
		}
		return resp.StatusCode, out.Results[0], 0
	case "coalesce":
		out, resp := postJSON[CoalesceResponse](t, f.client, f.url+"/jobs?coalesce=1", req)
		if resp.StatusCode != http.StatusOK || out.BatchJobID == "" {
			return resp.StatusCode, out.Result, 0
		}
		return resp.StatusCode, out.Result, getJSON[JobStatus](t, f.client, f.url+"/jobs/"+out.BatchJobID).EstBytes
	}
	var st JobStatus
	var resp *http.Response
	if entry == "jobs" {
		st, resp = postJSON[JobStatus](t, f.client, f.url+"/jobs", req)
	} else {
		inputs := map[string]PipelineInput{}
		for _, in := range f.prog.Inputs() {
			inputs[in.Name] = batch.binding(in.Name)
		}
		if output == "" {
			output = outputValues
		}
		st, resp = postJSON[JobStatus](t, f.client, f.url+"/pipelines", PipelineRequest{Stages: []PipelineStage{{
			ProgramID: f.programID, ContextID: f.contextID, Inputs: inputs, Output: output,
		}}})
	}
	if resp.StatusCode != http.StatusAccepted {
		return resp.StatusCode, BatchResult{}, 0
	}
	waitJobDone(t, f.client, f.url, st.JobID)
	res := getJSON[JobResult](t, f.client, f.url+"/jobs/"+st.JobID+"/result")
	return resp.StatusCode, res.Results[0], st.EstBytes
}

// outputBytes is the serialized "out" ciphertext of a result, whether it
// came back inline or as a stored handle.
func (f *parityFixture) outputBytes(t *testing.T, r BatchResult) []byte {
	t.Helper()
	if id, ok := r.Handles["out"]; ok {
		return getJSON[HandleRecordJSON](t, f.client, f.url+"/handles/"+id).Cipher
	}
	data, err := base64.StdEncoding.DecodeString(r.Cipher["out"])
	if err != nil || len(data) == 0 {
		t.Fatalf("result carries no output ciphertext: %+v (%v)", r, err)
	}
	return data
}

func (f *parityFixture) putHandle(t *testing.T, b64 string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodPut, f.url+"/handles", jsonBody(t, HandlePutRequest{ContextID: f.contextID, Cipher: b64}))
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
// and the same status for each class of bad input.
func TestEntryPointParity(t *testing.T) {
	cf := newCoalesceFixture(t, Config{CoalesceMaxBatch: 1, CoalesceMaxWait: time.Second})
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
	wire := map[string]string{}
	handles := map[string]string{}
	var cipherBytes int64
	for name, ct := range cts.Cipher {
		data, err := ct.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		wire[name] = base64.StdEncoding.EncodeToString(data)
		handles[name] = f.putHandle(t, wire[name])
		cipherBytes += int64(ct.MemoryBytes())
	}

	// The admission estimate every entry point charges, in the accounting
	// the jobs path has always used: distinct input ciphertexts once,
	// pending demo values as fresh ciphertexts, the modelled peak once.
	model := res.CostModel()
	peak := model.EstimatePeakMemoryBytes(res.Program)
	freshCt := 2 * int64(len(res.Plan.BitSizes)) * (int64(1) << uint(res.LogN)) * 8
	x := cts.Cipher["x"]

	entries := []string{"execute", "jobs", "coalesce", "pipelines"}
	shapes := []struct {
		name  string
		batch ExecuteBatch
		est   int64
	}{
		{"cipher", ExecuteBatch{Cipher: wire}, cipherBytes + peak},
		{"handle", ExecuteBatch{Handles: handles}, cipherBytes + peak},
		{"mixed", ExecuteBatch{Handles: map[string]string{"x": handles["x"]}, Cipher: map[string]string{"y": wire["y"]}}, cipherBytes + peak},
		{"shared handle", ExecuteBatch{Handles: map[string]string{"x": handles["x"], "y": handles["x"]}}, int64(x.MemoryBytes()) + peak},
		{"values", ExecuteBatch{Values: in}, 2*freshCt + peak},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			var ref []byte
			for _, entry := range entries {
				output := ""
				if entry == "pipelines" && shape.name != "values" {
					output = outputHandle
				}
				status, r, est := f.run(t, entry, shape.batch, output)
				if status/100 != 2 || r.Error != "" {
					t.Fatalf("%s: status %d, result error %q", entry, status, r.Error)
				}
				if entry == "jobs" || entry == "pipelines" || (entry == "coalesce" && shape.name == "values") {
					if est != shape.est {
						t.Errorf("%s: est_bytes %d, want %d", entry, est, shape.est)
					}
				}
				if shape.name == "values" {
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
				out := f.outputBytes(t, r)
				if ref == nil {
					ref = out
				} else if !bytes.Equal(out, ref) {
					t.Errorf("%s: output ciphertext differs from /execute's", entry)
				}
			}
		})
	}

	// A handle encoded at a scale x does not take: a chaining incompatibility.
	pt, err := ce.Ctx.Encoder.Encode(in["x"], math.Exp2(res.Program.InputByName("x").LogScale-10), ce.Ctx.Params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	skewedCt, err := ckks.NewEncryptor(ce.Ctx.Params, ce.Keys.Public, ckks.NewTestPRNG(4)).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	skewedData, err := skewedCt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	skewed := f.putHandle(t, base64.StdEncoding.EncodeToString(skewedData))
	bad := []struct {
		name   string
		batch  ExecuteBatch
		status int
	}{
		{"bad base64", ExecuteBatch{Cipher: map[string]string{"x": "!!not base64", "y": wire["y"]}}, http.StatusBadRequest},
		{"unknown handle", ExecuteBatch{Handles: map[string]string{"x": "0000000000000000000000000000000000000000000000000000000000000000", "y": handles["y"]}}, http.StatusNotFound},
		{"scale mismatch", ExecuteBatch{Handles: map[string]string{"x": skewed, "y": handles["y"]}}, http.StatusUnprocessableEntity},
		{"missing input", ExecuteBatch{Cipher: map[string]string{"x": wire["x"]}}, http.StatusBadRequest},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			for _, entry := range entries {
				status, r, _ := f.run(t, entry, tc.batch, "")
				if entry == "execute" {
					// /execute answers 200 and reports input errors per batch.
					if status != http.StatusOK || r.Error == "" {
						t.Errorf("execute: status %d, result error %q; want 200 with a batch error", status, r.Error)
					}
				} else if status != tc.status {
					t.Errorf("%s: status %d, want %d", entry, status, tc.status)
				}
			}
		})
	}

	// A two-batch /jobs 422 names every incompatible input, not the first.
	batch := ExecuteBatch{Handles: map[string]string{"x": skewed, "y": handles["y"]}}
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
