package serve

import (
	"encoding/base64"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/core"
	"eva/internal/execute"
)

// deepProgram needs enough key switches on a long enough chain for the
// compiler to group key-switch digits: x^8, rotated.
func deepProgram(t testing.TB) *core.Program {
	t.Helper()
	b := builder.New("deep", 8)
	x := b.Input("x", 30)
	b.Output("out", x.Square().Square().Square().RotateLeft(1), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestClientKeysWithGroupedDigits drives the client-keygen model through a
// program whose compiled parameters carry several special primes. The wire
// form lists them (log_pi); a client that rebuilds the literal from it
// generates keys the server validates and runs with; a key set generated for
// the same chain but a single special prime — what a client reading only the
// retired log_p would have built — is refused at context creation with the
// digit mismatch named, and so is a blob in the retired key layout.
func TestClientKeysWithGroupedDigits(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	client := ts.Client()
	prog := deepProgram(t)

	raw, resp := postJSON[struct {
		Params map[string]json.RawMessage `json:"params"`
	}](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	if _, retired := raw.Params["log_p"]; retired || !strings.HasPrefix(string(raw.Params["log_pi"]), "[") {
		t.Fatalf("params on the wire: %v; want the special primes as a log_pi list", raw.Params)
	}
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if len(comp.Params.LogPi) < 2 {
		t.Fatalf("the deep program compiled to special primes %v; this test needs a grouped digit", comp.Params.LogPi)
	}

	keysFor := func(lit ckks.ParametersLiteral) (*ckks.Parameters, *ckks.SecretKey, *ckks.PublicKey, *EvalKeysJSON) {
		params, err := ckks.NewParameters(lit)
		if err != nil {
			t.Fatal(err)
		}
		kg := ckks.NewKeyGenerator(params, ckks.NewTestPRNG(5))
		sk := kg.GenSecretKey()
		rlk, err := kg.GenRelinearizationKey(sk)
		if err != nil {
			t.Fatal(err)
		}
		rtk, err := kg.GenRotationKeys(comp.RotationSteps, sk)
		if err != nil {
			t.Fatal(err)
		}
		rlkData, _ := rlk.MarshalBinary()
		rtkData, _ := rtk.MarshalBinary()
		return params, sk, kg.GenPublicKey(sk), &EvalKeysJSON{
			Relin:       base64.StdEncoding.EncodeToString(rlkData),
			RotationSet: base64.StdEncoding.EncodeToString(rtkData),
		}
	}

	// The mismatched client: same chain, one special prime.
	perPrime := comp.Params.Literal()
	perPrime.LogPi = perPrime.LogPi[:1]
	_, _, _, staleKeys := keysFor(perPrime)
	apiErr, resp := postJSON[apiError](t, client, ts.URL+"/contexts", ContextRequest{ProgramID: comp.ID, Keys: staleKeys})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Error, "digits") {
		t.Errorf("per-prime key set: status %d, error %q; want 422 naming the digit count", resp.StatusCode, apiErr.Error)
	}
	// A blob in the retired layout (old relinearization-key magic byte).
	retired := base64.StdEncoding.EncodeToString([]byte{0xD2, 1, 0, 0, 0})
	apiErr, resp = postJSON[apiError](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, Keys: &EvalKeysJSON{Relin: retired, RotationSet: staleKeys.RotationSet}})
	if resp.StatusCode/100 != 4 || !strings.Contains(apiErr.Error, "retired") {
		t.Errorf("retired-layout key blob: status %d, error %q; want a 4xx naming the retired layout", resp.StatusCode, apiErr.Error)
	}

	// The client that reads log_pi.
	params, sk, pk, keys := keysFor(comp.Params.Literal())
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{ProgramID: comp.ID, Keys: keys})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	in := execute.Inputs{"x": {0.5, -0.25, 1, 0.75, -1, 0.1, 0.9, -0.6}}
	encoder := ckks.NewEncoder(params)
	pt, err := encoder.Encode(in["x"], math.Exp2(comp.InputScales["x"]), params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := ckks.NewEncryptor(params, pk, ckks.NewTestPRNG(6)).Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := ct.MarshalBinary()
	execResp := runJob(t, client, ts.URL, JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Cipher: map[string]string{"x": base64.StdEncoding.EncodeToString(data)}}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("execute: results %+v", execResp.Results)
	}
	outData, err := base64.StdEncoding.DecodeString(execResp.Results[0].Cipher["out"])
	if err != nil {
		t.Fatal(err)
	}
	out := &ckks.Ciphertext{}
	if err := out.UnmarshalBinary(outData); err != nil {
		t.Fatal(err)
	}
	got := encoder.Decode(ckks.NewDecryptor(params, sk).Decrypt(out))
	ref, err := execute.RunReference(prog, in)
	if err != nil {
		t.Fatal(err)
	}
	for j, want := range ref["out"] {
		if math.Abs(got[j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], want)
		}
	}
}
