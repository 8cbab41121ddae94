package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/profile"
)

// e2eProgram exercises every interesting opcode class: a ciphertext square
// (forcing RELINEARIZE + RESCALE), a rotation (forcing a Galois key), and a
// cipher-plain sum.
func e2eProgram(t testing.TB) *core.Program {
	t.Helper()
	b := builder.New("e2e", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("out", x.Square().RotateLeft(1).Add(y).MulScalar(0.5, 30), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func programJSON(t testing.TB, p *core.Program) json.RawMessage {
	t.Helper()
	data, err := p.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func postJSON[T any](t testing.TB, client *http.Client, url string, body any) (T, *http.Response) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return out, resp
}

func getJSON[T any](t testing.TB, client *http.Client, url string) T {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return out
}

// runJob runs req the one way a program runs over HTTP: POST /jobs, wait for
// the job to finish, then fetch its result once.
func runJob(t testing.TB, client *http.Client, base string, req JobRequest) JobResult {
	t.Helper()
	st, resp := postJSON[JobStatus](t, client, base+"/jobs", req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: status %d: %s", resp.StatusCode, st.Error)
	}
	waitJobDone(t, client, base, st.JobID)
	res := getJSON[JobResult](t, client, base+"/jobs/"+st.JobID+"/result")
	if len(res.Results) != len(req.Batches) {
		t.Fatalf("job %s: %d results for %d batches", st.JobID, len(res.Results), len(req.Batches))
	}
	return res
}

// waitJobDone polls a job until it is done, failing the test if it ends any
// other way.
func waitJobDone(t testing.TB, client *http.Client, base, jobID string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getJSON[JobStatus](t, client, base+"/jobs/"+jobID)
		switch st.Status {
		case "done":
			return
		case "failed", "cancelled":
			t.Fatalf("job %s terminal status %s: %s", jobID, st.Status, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", jobID)
}

func newTestServer(t testing.TB, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	s := NewServer(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return ts, s
}

// setBound overwrites an unexported bound of one of a server's subsystems
// (the path names fields from the subsystem's struct down) before the server
// takes traffic. The coalescer's batch cap and wait and the jobs manager's
// result TTL are constants of their packages, whose own tests shrink them
// through Config's unexported fields; no configuration reaches them from
// here.
func setBound(t testing.TB, subsystem any, path string, value any) {
	t.Helper()
	v := reflect.ValueOf(subsystem).Elem()
	for _, name := range strings.Split(path, ".") {
		if v = v.FieldByName(name); !v.IsValid() {
			t.Fatalf("%T has no field %s", subsystem, path)
		}
	}
	reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem().Set(reflect.ValueOf(value))
}

func compileRequest(t testing.TB, p *core.Program) CompileRequest {
	return CompileRequest{
		Program: programJSON(t, p),
		Options: &CompileOptionsJSON{AllowInsecure: true},
	}
}

// fullLevels maps the Galois element of every step to MaxLevel: the
// full-depth rotation keys a client builds from /compile's rotation steps.
func fullLevels(params *ckks.Parameters, steps []int) map[uint64]int {
	levels := make(map[uint64]int, len(steps))
	for _, k := range steps {
		levels[params.GaloisElementForRotation(k)] = params.MaxLevel()
	}
	return levels
}

// TestEndToEndClientKeys walks the paper's deployment model entirely over
// HTTP: compile on the server, generate keys on the client, upload only the
// public evaluation keys, submit a batch of client-encrypted input sets, and
// decrypt the returned ciphertexts locally. The decrypted results must match
// the unencrypted reference execution within the program's output precision.
func TestEndToEndClientKeys(t *testing.T) {
	// Every instruction is profiled, so /profile sees the program's multiplies.
	ts, _ := newTestServer(t, Config{ProfileSampleRate: 1})
	client := ts.Client()
	prog := e2eProgram(t)

	// Compile twice: the second submission must be a cache hit.
	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	if comp.Cached {
		t.Error("first compile reported as cached")
	}
	comp2, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if !comp2.Cached || comp2.ID != comp.ID {
		t.Errorf("second compile not served from cache (cached=%v id=%s vs %s)", comp2.Cached, comp2.ID, comp.ID)
	}

	// Client side: rebuild the parameters and generate all key material.
	params, err := ckks.NewParameters(comp.Params.Literal())
	if err != nil {
		t.Fatal(err)
	}
	prng := ckks.NewTestPRNG(11)
	kg := ckks.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	rlk, err := kg.GenRelinearizationKey(sk, params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.RotationSteps) == 0 {
		t.Fatal("expected rotation steps for the e2e program")
	}
	rtk, err := kg.GenRotationKeys(sk, fullLevels(params, comp.RotationSteps))
	if err != nil {
		t.Fatal(err)
	}

	// Ship only the public evaluation keys.
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

	// An incomplete rotation key upload must fail at context creation, not
	// at execution time.
	_, resp = postJSON[apiError](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keys:      &EvalKeysJSON{Relin: rlkData},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("context without rotation keys: status %d, want 422", resp.StatusCode)
	}

	// Encrypt two input sets locally and submit them as one batched request.
	inputSets := []execute.Inputs{
		{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}},
		{"x": {0.5, -1, 2, -2, 3, -3, 4, -4}, "y": {1, 1, 2, 2, 3, 3, 4, 4}},
	}
	encoder := ckks.NewEncoder(params)
	encryptor := ckks.NewEncryptor(params, sk, prng)
	batches := make([]ExecuteBatch, len(inputSets))
	for i, in := range inputSets {
		batches[i].Cipher = map[string][]byte{}
		for name, v := range in {
			pt, err := encoder.Encode(v, math.Exp2(comp.InputScales[name]), params.MaxLevel())
			if err != nil {
				t.Fatal(err)
			}
			ct, err := encryptor.Encrypt(pt)
			if err != nil {
				t.Fatal(err)
			}
			data, err := ct.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			batches[i].Cipher[name] = data
		}
	}
	execResp := runJob(t, client, ts.URL, JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Workers:   2,
		Batches:   batches,
	})

	// Decrypt locally and compare against the reference executor.
	decryptor := ckks.NewDecryptor(params, sk)
	for i, result := range execResp.Results {
		if result.Error != "" {
			t.Fatalf("batch %d: %s", i, result.Error)
		}
		ref, err := execute.RunReference(prog, inputSets[i])
		if err != nil {
			t.Fatal(err)
		}
		data, ok := result.Cipher["out"]
		if !ok {
			t.Fatalf("batch %d: no ciphertext for output \"out\"", i)
		}
		ct := &ckks.Ciphertext{}
		if err := ct.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		got := encoder.Decode(decryptor.Decrypt(ct))
		for j, want := range ref["out"] {
			if math.Abs(got[j]-want) > 1e-2 {
				t.Errorf("batch %d slot %d: got %v, want %v", i, j, got[j], want)
			}
		}
		if result.Stats.Instructions == 0 || result.Stats.Workers != 2 {
			t.Errorf("batch %d: implausible stats %+v", i, result.Stats)
		}
	}

	// Malformed ciphertext uploads must be rejected at submit, not crash the
	// server: garbage bytes, and a structurally wrong (non-NTT) ciphertext.
	badCT := ckks.NewCiphertext(params, 2, params.MaxLevel(), math.Exp2(30))
	badCT.Value[0].IsNTT = false
	badData, err := badCT.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for name, payload := range map[string][]byte{
		"garbage": []byte("\xC1not a ciphertext"),
		"non-NTT": badData,
	} {
		bad := ExecuteBatch{Cipher: map[string][]byte{"x": payload, "y": batches[0].Cipher["y"]}}
		r, resp := postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{
			ProgramID: comp.ID,
			ContextID: ctxResp.ContextID,
			Batches:   []ExecuteBatch{bad},
		})
		if resp.StatusCode != http.StatusBadRequest || r.Error == "" {
			t.Errorf("%s ciphertext: status %d (%+v), want 400", name, resp.StatusCode, r)
		}
	}

	// The registry metrics must show the second compile as a cache hit.
	metrics := getJSON[MetricsReport](t, client, ts.URL+"/metrics")
	if metrics.Cache.Misses != 1 || metrics.Cache.Hits+metrics.Cache.Joins != 1 {
		t.Errorf("cache stats %+v, want 1 miss and 1 hit", metrics.Cache)
	}
	if metrics.CacheHitRate != 0.5 {
		t.Errorf("cache hit rate %v, want 0.5", metrics.CacheHitRate)
	}
	if metrics.Executions != uint64(len(inputSets)) {
		t.Errorf("executions %d, want %d", metrics.Executions, len(inputSets))
	}
	// Per-opcode latency and cost-model units are the profiler's.
	prof := getJSON[profile.Report](t, client, ts.URL+"/profile")
	var mul profile.Bucket
	for _, b := range prof.Buckets {
		if b.Op == "MULTIPLY" {
			mul.Count += b.Count
			mul.Units += b.Units
		}
	}
	if mul.Count == 0 || mul.Units <= 0 {
		t.Errorf("/profile MULTIPLY buckets sum to count %d, cost units %v; want both > 0 (buckets %+v)",
			mul.Count, mul.Units, prof.Buckets)
	}
}

// TestConcurrentCompileOverHTTP races two /compile requests for the same
// program and checks the registry compiled it exactly once.
func TestConcurrentCompileOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	client := ts.Client()
	req := compileRequest(t, e2eProgram(t))

	const n = 8
	var wg sync.WaitGroup
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", req)
			ids[i] = comp.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("request %d got id %s, want %s", i, ids[i], ids[0])
		}
	}
	metrics := getJSON[MetricsReport](t, client, ts.URL+"/metrics")
	if metrics.Cache.Misses != 1 {
		t.Errorf("%d compilations for %d identical requests (stats %+v)", metrics.Cache.Misses, n, metrics.Cache)
	}
	if metrics.Requests["compile"] != n {
		t.Errorf("request counter %d, want %d", metrics.Requests["compile"], n)
	}
}

// TestDemoModeRoundTrip exercises the trusted demo mode: the server
// generates keys, accepts plaintext values, and returns decrypted outputs.
func TestDemoModeRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true})
	client := ts.Client()
	prog := e2eProgram(t)

	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 3},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}

	inputs := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}}
	execResp := runJob(t, client, ts.URL, JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Values: inputs}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("unexpected results: %+v", execResp.Results)
	}
	ref, err := execute.RunReference(prog, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := execResp.Results[0].Values["out"]
	for j, want := range ref["out"] {
		if math.Abs(got[j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], want)
		}
	}
}

// TestServerKeygenDisabled checks that keygen contexts are rejected unless
// demo mode is explicitly enabled.
func TestServerKeygenDisabled(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	_, resp := postJSON[apiError](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{},
	})
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("keygen on a non-demo server: status %d, want 403", resp.StatusCode)
	}
}

// TestProgramsAndHealth checks the registry listing and liveness endpoints.
func TestProgramsAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))

	programs := getJSON[[]ProgramInfo](t, client, ts.URL+"/programs")
	if len(programs) != 1 || programs[0].ID != comp.ID || programs[0].Name != "e2e" {
		t.Errorf("unexpected program listing: %+v", programs)
	}
	health := getJSON[HealthResponse](t, client, ts.URL+"/healthz")
	if health.Status != "ok" || health.Programs != 1 {
		t.Errorf("unexpected health: %+v", health)
	}

	resp, err := client.Get(ts.URL + "/programs/" + comp.ID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /programs/{id}: status %d", resp.StatusCode)
	}
}

// TestContextSurvivesEviction checks that a live execution context keeps
// working after its compiled program is evicted from the LRU registry: the
// context pins the compiled result.
func TestContextSurvivesEviction(t *testing.T) {
	ts, _ := newTestServer(t, Config{registryCapacity: 1, AllowServerKeygen: true})
	client := ts.Client()
	progA := e2eProgram(t)
	compA, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, progA))
	ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: compA.ID,
		Keygen:    &KeygenJSON{Seed: 9},
	})

	// Compile a different program; capacity 1 evicts program A.
	b := builder.New("other", 8)
	b.Output("o", b.Input("x", 30).Square(), 30)
	progB, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	compB, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, progB))
	if compB.ID == compA.ID {
		t.Fatal("programs unexpectedly hashed alike")
	}
	programs := getJSON[[]ProgramInfo](t, client, ts.URL+"/programs")
	if len(programs) != 1 || programs[0].ID != compB.ID {
		t.Fatalf("expected only program B cached, got %+v", programs)
	}

	inputs := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}}
	execResp := runJob(t, client, ts.URL, JobRequest{
		ProgramID: compA.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Values: inputs}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("execute after eviction failed: %+v", execResp.Results)
	}
	ref, err := execute.RunReference(progA, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got := execResp.Results[0].Values["out"]
	for j, want := range ref["out"] {
		if math.Abs(got[j]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", j, got[j], want)
		}
	}
}

// TestContextLRUBound checks that the context store is bounded and drops the
// least recently used context.
func TestContextLRUBound(t *testing.T) {
	ts, _ := newTestServer(t, Config{maxContexts: 2, AllowServerKeygen: true})
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))

	var ids []string
	for i := uint64(1); i <= 3; i++ {
		ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
			ProgramID: comp.ID,
			Keygen:    &KeygenJSON{Seed: i},
		})
		ids = append(ids, ctxResp.ContextID)
	}
	_, resp := postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ids[0],
		Batches:   []ExecuteBatch{{}},
	})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("evicted context: status %d, want 404", resp.StatusCode)
	}
	health := getJSON[HealthResponse](t, client, ts.URL+"/healthz")
	if health.Contexts != 2 {
		t.Errorf("health reports %d contexts, want 2", health.Contexts)
	}
}

// TestExecuteErrors checks how running a program fails: an unknown program
// or context is a 404 and a batch missing an input a 400, both at submit.
func TestExecuteErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true})
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))

	_, resp := postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{ProgramID: "nosuch", ContextID: "x"})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown program: status %d, want 404", resp.StatusCode)
	}
	_, resp = postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{ProgramID: comp.ID, ContextID: "nosuch", Batches: []ExecuteBatch{{}}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown context: status %d, want 404", resp.StatusCode)
	}

	ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 5}})
	apiErr, resp := postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Values: execute.Inputs{"x": {1}}}}, // missing input y
	})
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(apiErr.Error, `"y"`) {
		t.Errorf("missing input: status %d (%+v), want 400 naming y", resp.StatusCode, apiErr)
	}
}
