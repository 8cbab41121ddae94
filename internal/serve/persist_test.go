package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eva/internal/execute"
	"eva/internal/obs"
	"eva/internal/store"
)

// persistentServer starts a server over a filesystem store rooted at dir.
func persistentServer(t testing.TB, dir string) (*httptest.Server, *Server, *store.FS) {
	t.Helper()
	st, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(Config{Store: st, AllowServerKeygen: true})
	ts := httptest.NewServer(s.Handler())
	return ts, s, st
}

// TestRestartDurability is the acceptance e2e for the artifact store: stop
// and restart a server onto the same data directory, then (a) execute a
// previously compiled program against a previously installed context with
// no recompilation round-trip, and (b) fetch the result of a job that
// finished before the restart — exactly once.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()
	ts1, s1, st1 := persistentServer(t, dir)
	client := ts1.Client()
	prog := e2eProgram(t)

	comp, resp := postJSON[CompileResponse](t, client, ts1.URL+"/compile", compileRequest(t, prog))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts1.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}

	batch := ExecuteBatch{Values: map[string][]float64{
		"x": {1, 2, 3, 4, 5, 6, 7, 8},
		"y": {8, 7, 6, 5, 4, 3, 2, 1},
	}}
	// Reference run before the restart, for comparing output values after.
	execResp := runJob(t, client, ts1.URL, JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{batch},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("pre-restart execute: %s", execResp.Results[0].Error)
	}
	want := execResp.Results[0].Values["out"]
	if len(want) == 0 {
		t.Fatal("pre-restart execute returned no output")
	}

	// A job that completes before the restart, result left unfetched.
	jobSt, resp := postJSON[JobStatus](t, client, ts1.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{batch},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", resp.StatusCode)
	}
	waitJobDone(t, client, ts1.URL, jobSt.JobID)

	// "Crash" the node: close the HTTP frontend, the job subsystem, and the
	// store handle.
	ts1.Close()
	s1.Close()
	st1.Close()

	// Restart onto the same data directory.
	ts2, s2, st2 := persistentServer(t, dir)
	defer func() { ts2.Close(); s2.Close(); st2.Close() }()
	client2 := ts2.Client()

	// (a) Execute against the pre-restart program and context ids without
	// any /compile or /contexts round-trip.
	execResp2 := runJob(t, client2, ts2.URL, JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{batch},
	})
	if execResp2.Results[0].Error != "" {
		t.Fatalf("post-restart execute: %s", execResp2.Results[0].Error)
	}
	got := execResp2.Results[0].Values["out"]
	if len(got) != len(want) {
		t.Fatalf("post-restart output has %d values, want %d", len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-3 {
			t.Fatalf("post-restart output[%d] = %v, want %v", i, got[i], want[i])
		}
	}

	// The restored program id must be served from the store, not require a
	// client recompile: the registry counts it as a store load.
	if stats := s2.Registry().Stats(); stats.StoreLoads == 0 {
		t.Errorf("expected store loads after restart, got %+v", stats)
	}

	// (b) The pre-restart job's status and result survive; the result obeys
	// fetch-once.
	if st := getJSON[JobStatus](t, client2, ts2.URL+"/jobs/"+jobSt.JobID); st.Status != "done" {
		t.Fatalf("post-restart job status %q, want done", st.Status)
	}
	jr := getJSON[JobResult](t, client2, ts2.URL+"/jobs/"+jobSt.JobID+"/result")
	if len(jr.Results) != 1 || jr.Results[0].Error != "" {
		t.Fatalf("post-restart job result: %+v", jr)
	}
	for i, v := range jr.Results[0].Values["out"] {
		if math.Abs(v-want[i]) > 1e-3 {
			t.Fatalf("job result[%d] = %v, want %v", i, v, want[i])
		}
	}
	refetch, err := client2.Get(ts2.URL + "/jobs/" + jobSt.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	refetch.Body.Close()
	if refetch.StatusCode == http.StatusOK {
		t.Fatal("job result was fetchable twice after a restart")
	}

	// The metrics report must expose the store section.
	metrics := getJSON[MetricsReport](t, client2, ts2.URL+"/metrics")
	if metrics.Store == nil || metrics.Store.Backend != "fs" || metrics.Store.Entries == 0 {
		t.Errorf("metrics store section: %+v", metrics.Store)
	}
}

// TestHandleRestartDurability: a ciphertext handle produced by a job before
// a restart resolves as an execution input after the restart onto the same
// data directory — the content-addressed registry is stateless over the
// durable store.
func TestHandleRestartDurability(t *testing.T) {
	dir := t.TempDir()
	ts1, s1, st1 := persistentServer(t, dir)
	client := ts1.Client()
	p1, c1, p2, c2 := pipelinePrograms(t, client, ts1.URL)

	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{4, 4, 4, 4, 2, 2, 2, 2}
	jobSt, resp := postJSON[JobStatus](t, client, ts1.URL+"/jobs", JobRequest{
		ProgramID: p1,
		ContextID: c1,
		Batches:   []ExecuteBatch{{Values: map[string][]float64{"x": x, "y": y}}},
		Output:    "handle",
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", resp.StatusCode)
	}
	waitJobDone(t, client, ts1.URL, jobSt.JobID)
	jr := getJSON[JobResult](t, client, ts1.URL+"/jobs/"+jobSt.JobID+"/result")
	handleID := jr.Results[0].Handles["out"]
	if handleID == "" {
		t.Fatalf("job produced no handle: %+v", jr.Results)
	}

	ts1.Close()
	s1.Close()
	st1.Close()

	ts2, s2, st2 := persistentServer(t, dir)
	defer func() { ts2.Close(); s2.Close(); st2.Close() }()
	client2 := ts2.Client()

	rec := getJSON[HandleRecordJSON](t, client2, ts2.URL+"/handles/"+handleID)
	if rec.Meta.ID != handleID || rec.Meta.ContextID != c1 || len(rec.Cipher) == 0 {
		t.Fatalf("post-restart handle record implausible: %+v (%d cipher bytes)", rec.Meta, len(rec.Cipher))
	}

	// Consume the pre-restart handle in the successor program without any
	// re-encryption or client round-trip of the ciphertext.
	execResp := runJob(t, client2, ts2.URL, JobRequest{
		ProgramID: p2,
		ContextID: c2,
		Batches:   []ExecuteBatch{{Handles: map[string]string{"z": handleID}}},
		Output:    "values",
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("post-restart execute: %s", execResp.Results[0].Error)
	}
	got := execResp.Results[0].Values["out2"]
	for i := range x {
		want := x[i] * y[i] * 0.5
		if math.Abs(got[i]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}

// TestResultPersistsAcrossTTL: with a store configured, a result whose
// in-memory record was TTL-evicted is still fetchable exactly once.
func TestResultPersistsAcrossTTL(t *testing.T) {
	s := NewServer(Config{Store: store.NewMemory(), AllowServerKeygen: true})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	client := ts.Client()
	id := evictedJob(t, s, ts)

	jr := getJSON[JobResult](t, client, ts.URL+"/jobs/"+id+"/result")
	if len(jr.Results) != 1 || jr.Results[0].Error != "" {
		t.Fatalf("post-TTL fetch: %+v", jr)
	}
	second, err := client.Get(ts.URL + "/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode == http.StatusOK {
		t.Fatal("fetch-once violated after TTL eviction")
	}
}

// evictedJob runs one job on s to completion, leaves its result unfetched
// and waits until a 30 ms result TTL has evicted the in-memory record, so a
// fetch can only be served from the store. It returns the job id.
func evictedJob(t *testing.T, s *Server, ts *httptest.Server) string {
	t.Helper()
	setBound(t, s.jobs, "cfg.resultTTL", 30*time.Millisecond)
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 3},
	})
	jobSt, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches: []ExecuteBatch{{Values: map[string][]float64{
			"x": {1, 1, 1, 1, 1, 1, 1, 1}, "y": {2, 2, 2, 2, 2, 2, 2, 2},
		}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitJobDone(t, client, ts.URL, jobSt.JobID)

	// Outlive the TTL so the in-memory job record is evicted.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.Jobs().Get(jobSt.JobID); !ok {
			return jobSt.JobID
		}
		if time.Now().After(deadline) {
			t.Fatal("job record never TTL-evicted")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// undeletableResultStore fails every delete of a job result while failing
// is set.
type undeletableResultStore struct {
	store.Store
	failing atomic.Bool
}

func (u *undeletableResultStore) Delete(kind, id string) error {
	if kind == kindResult && u.failing.Load() {
		return errors.New("read-only file system")
	}
	return u.Store.Delete(kind, id)
}

// TestStoredResultServedOnlyOnceDeleted: a stored result whose record the
// store cannot delete is not served — the fetch answers 503 with
// Retry-After, logs at warn and keeps the record — and once the store
// recovers it is served exactly once.
func TestStoredResultServedOnlyOnceDeleted(t *testing.T) {
	var logs lockedBuffer
	st := &undeletableResultStore{Store: store.NewMemory()}
	st.failing.Store(true)
	s := NewServer(Config{Store: st, AllowServerKeygen: true, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	client := ts.Client()
	id := evictedJob(t, s, ts)

	fetch := func() int {
		resp, err := client.Get(ts.URL + "/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
		return resp.StatusCode
	}
	for range 2 {
		if code := fetch(); code != http.StatusServiceUnavailable {
			t.Fatalf("fetch with a failing delete: %d, want 503", code)
		}
	}
	if !strings.Contains(logs.String(), `"level":"WARN"`) || !strings.Contains(logs.String(), "read-only file system") {
		t.Errorf("no warning with the store's error in the log:\n%s", logs.String())
	}
	st.failing.Store(false)
	for _, want := range []int{http.StatusOK, http.StatusNotFound} {
		if code := fetch(); code != want {
			t.Fatalf("fetch after the store recovered: %d, want %d", code, want)
		}
	}
}

// unlistableResultStore fails every listing of the job results.
type unlistableResultStore struct{ store.Store }

func (u unlistableResultStore) List(kind string) ([]string, error) {
	if kind == kindResult {
		return nil, errors.New("permission denied")
	}
	return u.Store.List(kind)
}

// TestSweepReportsStoreFailures: a result janitor sweep that cannot delete
// an expired result logs it at warn with the job id, keeps the record, and
// the next sweep deletes it once the store recovers; a sweep that cannot
// list the results logs at warn too.
func TestSweepReportsStoreFailures(t *testing.T) {
	var logs lockedBuffer
	st := &undeletableResultStore{Store: store.NewMemory()}
	st.failing.Store(true)
	s := NewServer(Config{Store: st, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	defer s.Close()
	const id = "expired-job"
	data, err := json.Marshal(resultRecord{JobID: id, Status: "done", FinishedAt: time.Now().Add(-2 * time.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(kindResult, id, data); err != nil {
		t.Fatal(err)
	}

	s.sweepResults(time.Hour)
	if _, err := st.Get(kindResult, id); err != nil {
		t.Fatalf("record gone after a failed delete: %v", err)
	}
	for _, want := range []string{`"level":"WARN"`, `"job_id":"` + id + `"`, "read-only file system"} {
		if !strings.Contains(logs.String(), want) {
			t.Errorf("sweep log lacks %s:\n%s", want, logs.String())
		}
	}
	st.failing.Store(false)
	s.sweepResults(time.Hour)
	if _, err := st.Get(kindResult, id); err == nil {
		t.Error("the next sweep did not delete the expired record")
	}

	var listLogs lockedBuffer
	unlistable := NewServer(Config{Store: unlistableResultStore{store.NewMemory()}, Logger: slog.New(slog.NewJSONHandler(&listLogs, nil))})
	defer unlistable.Close()
	unlistable.sweepResults(time.Hour)
	if !strings.Contains(listLogs.String(), `"level":"WARN"`) || !strings.Contains(listLogs.String(), "permission denied") {
		t.Errorf("no warning for a failed list:\n%s", listLogs.String())
	}
}

// failingResultStore refuses every write of a job result.
type failingResultStore struct{ store.Store }

func (f failingResultStore) Put(kind, id string, data []byte) error {
	if kind == kindResult {
		return errors.New("disk full")
	}
	return f.Store.Put(kind, id, data)
}

// lockedBuffer is a log sink that server goroutines and the test share.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestResultPersistFailureLogged: a result the store refuses to write is
// logged at warn with its job and trace ids, and the job still delivers it
// exactly once from memory.
func TestResultPersistFailureLogged(t *testing.T) {
	var logs lockedBuffer
	s := NewServer(Config{
		Store:             failingResultStore{store.NewMemory()},
		AllowServerKeygen: true,
		Logger:            slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	client := ts.Client()

	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 3},
	})
	jobSt, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches: []ExecuteBatch{{Values: map[string][]float64{
			"x": {1, 1, 1, 1, 1, 1, 1, 1}, "y": {2, 2, 2, 2, 2, 2, 2, 2},
		}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceHeader)
	waitJobDone(t, client, ts.URL, jobSt.JobID)

	jr := getJSON[JobResult](t, client, ts.URL+"/jobs/"+jobSt.JobID+"/result")
	if len(jr.Results) != 1 || jr.Results[0].Error != "" {
		t.Fatalf("fetch from memory: %+v", jr)
	}
	second, err := client.Get(ts.URL + "/jobs/" + jobSt.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	second.Body.Close()
	if second.StatusCode == http.StatusOK {
		t.Fatal("fetch-once violated")
	}

	var warned bool
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if rec["msg"] != "job result not persisted; it survives only in memory" {
			continue
		}
		warned = true
		if rec["level"] != "WARN" || rec[obs.LogJobID] != jobSt.JobID || rec[obs.LogTraceID] != traceID ||
			!strings.Contains(fmt.Sprint(rec["error"]), "disk full") {
			t.Errorf("persist failure record %v; want WARN with job %s, trace %s and the store's error", rec, jobSt.JobID, traceID)
		}
	}
	if !warned || traceID == "" {
		t.Fatalf("no persist-failure warning for trace %q in the log:\n%s", traceID, logs.String())
	}
}

// TestResultRetentionSweep: persisted results abandoned past the retention
// window are reclaimed by the janitor.
func TestResultRetentionSweep(t *testing.T) {
	st := store.NewMemory()
	s := NewServer(Config{Store: st, AllowServerKeygen: true, resultRetention: 50 * time.Millisecond})
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); s.Close() }()
	client := ts.Client()
	prog := e2eProgram(t)

	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	ctxResp, _ := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, Keygen: &KeygenJSON{Seed: 4},
	})
	jobSt, _ := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID, ContextID: ctxResp.ContextID,
		Batches: []ExecuteBatch{{Values: map[string][]float64{
			"x": {1, 1, 1, 1, 1, 1, 1, 1}, "y": {1, 1, 1, 1, 1, 1, 1, 1},
		}}},
	})
	waitJobDone(t, client, ts.URL, jobSt.JobID)

	deadline := time.Now().Add(10 * time.Second)
	for {
		ids, err := st.List("result")
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("abandoned result never swept: %v", ids)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestContextBundleTransfer: exporting a context's bundle and installing it
// on a second server yields a context that executes (and, for demo
// contexts, decrypts) identically — the replication primitive the cluster
// tier is built on.
func TestContextBundleTransfer(t *testing.T) {
	tsA, sA := newTestServer(t, Config{AllowServerKeygen: true, AllowContextTransfer: true})
	tsB, _ := newTestServer(t, Config{AllowServerKeygen: true, AllowContextTransfer: true})
	client := tsA.Client()
	prog := e2eProgram(t)

	comp, _ := postJSON[CompileResponse](t, client, tsA.URL+"/compile", compileRequest(t, prog))
	ctxResp, _ := postJSON[ContextResponse](t, client, tsA.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "shared-ctx-1", Keygen: &KeygenJSON{Seed: 9},
	})
	if ctxResp.ContextID != "shared-ctx-1" {
		t.Fatalf("assigned context id not honored: %q", ctxResp.ContextID)
	}

	bundle := getJSON[ContextBundle](t, client, tsA.URL+"/contexts/shared-ctx-1/bundle")
	if !bundle.Demo || len(bundle.Secret) == 0 || len(bundle.Relin) == 0 {
		t.Fatalf("demo bundle incomplete: %+v", bundle)
	}

	// The peer needs the program first (the cluster router ships it through
	// /compile with the exact original options).
	source, opts, ok := sA.ProgramSource(comp.ID)
	if !ok {
		t.Fatal("program source unavailable on the origin node")
	}
	optsJSON := OptionsJSON(opts)
	compB, resp := postJSON[CompileResponse](t, client, tsB.URL+"/compile", CompileRequest{
		Program: source, Options: &optsJSON,
	})
	if resp.StatusCode != http.StatusOK || compB.ID != comp.ID {
		t.Fatalf("peer compile: status %d id %s want %s", resp.StatusCode, compB.ID, comp.ID)
	}

	installResp, resp := postJSON[ContextResponse](t, client, tsB.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "shared-ctx-1", Bundle: &bundle,
	})
	if resp.StatusCode != http.StatusOK || installResp.ContextID != "shared-ctx-1" {
		t.Fatalf("bundle install: status %d, %+v", resp.StatusCode, installResp)
	}
	// Replays are idempotent.
	_, resp = postJSON[ContextResponse](t, client, tsB.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "shared-ctx-1", Bundle: &bundle,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle replay: status %d", resp.StatusCode)
	}

	batch := ExecuteBatch{Values: map[string][]float64{
		"x": {3, 1, 4, 1, 5, 9, 2, 6}, "y": {2, 7, 1, 8, 2, 8, 1, 8},
	}}
	outA := runJob(t, client, tsA.URL, JobRequest{
		ProgramID: comp.ID, ContextID: "shared-ctx-1", Batches: []ExecuteBatch{batch},
	})
	outB := runJob(t, client, tsB.URL, JobRequest{
		ProgramID: comp.ID, ContextID: "shared-ctx-1", Batches: []ExecuteBatch{batch},
	})
	if outA.Results[0].Error != "" || outB.Results[0].Error != "" {
		t.Fatalf("execute errors: %q / %q", outA.Results[0].Error, outB.Results[0].Error)
	}
	a, b := outA.Results[0].Values["out"], outB.Results[0].Values["out"]
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("output lengths %d vs %d", len(a), len(b))
	}
	// Each node encrypts the demo inputs with fresh randomness, so the
	// outputs agree to CKKS approximation error, not bit-exactly.
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-3 {
			t.Fatalf("replicated context diverged at [%d]: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestDemoBundleWithoutPublicKey pins the demo bundle's format across the
// removal of the public key: a new bundle carries the secret key and no
// "public" field; a bundle written before, which still has one, restores
// from the store and encrypts plaintext values and decrypts outputs (the
// field is ignored, as ContextBundle is decoded leniently); and a demo
// bundle without its secret key is still refused.
func TestDemoBundleWithoutPublicKey(t *testing.T) {
	tsA, _ := newTestServer(t, Config{AllowServerKeygen: true, AllowContextTransfer: true})
	client := tsA.Client()
	prog := e2eProgram(t)
	comp, _ := postJSON[CompileResponse](t, client, tsA.URL+"/compile", compileRequest(t, prog))
	postJSON[ContextResponse](t, client, tsA.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "demo", Keygen: &KeygenJSON{Seed: 3},
	})
	bundle := getJSON[map[string]json.RawMessage](t, client, tsA.URL+"/contexts/demo/bundle")
	if _, ok := bundle["public"]; ok {
		t.Error("a new demo bundle carries a public key")
	}
	if _, ok := bundle["secret"]; !ok {
		t.Fatalf("demo bundle has no secret key: fields %v", slices.Sorted(maps.Keys(bundle)))
	}

	// The older layout: the same bundle plus a "public" field. Its stand-in
	// payload starts with the old public-key magic byte and is truncated
	// after it, so restoring succeeds only if the field is never decoded.
	withPublic := maps.Clone(bundle)
	stale, _ := json.Marshal([]byte{0xB1, 1, 2, 3})
	withPublic["public"] = stale
	data, err := json.Marshal(withPublic)
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	if err := st.Put(kindContext, "old-demo", data); err != nil {
		t.Fatal(err)
	}
	tsB, _ := newTestServer(t, Config{Store: st, AllowContextTransfer: true})
	if compB, _ := postJSON[CompileResponse](t, client, tsB.URL+"/compile", compileRequest(t, prog)); compB.ID != comp.ID {
		t.Fatalf("program id %s on the second server, want %s", compB.ID, comp.ID)
	}
	x := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	y := []float64{2, 7, 1, 8, 2, 8, 1, 8}
	out := runJob(t, client, tsB.URL, JobRequest{
		ProgramID: comp.ID, ContextID: "old-demo",
		Batches: []ExecuteBatch{{Values: map[string][]float64{"x": x, "y": y}}},
	})
	if out.Results[0].Error != "" {
		t.Fatalf("job on the restored bundle: %s", out.Results[0].Error)
	}
	got := out.Results[0].Values["out"]
	if len(got) != len(x) {
		t.Fatalf("%d output slots, want %d", len(got), len(x))
	}
	for i := range x {
		if want := 0.5 * (x[(i+1)%len(x)]*x[(i+1)%len(x)] + y[i]); math.Abs(got[i]-want) > 1e-3 {
			t.Fatalf("out[%d] = %v, want %v", i, got[i], want)
		}
	}

	noSecret := maps.Clone(withPublic)
	delete(noSecret, "secret")
	apiErr, resp := postJSON[apiError](t, client, tsB.URL+"/contexts", map[string]any{
		"program_id": comp.ID, "context_id": "no-secret", "bundle": noSecret,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity || !strings.Contains(apiErr.Error, "missing key material") {
		t.Errorf("demo bundle without a secret key: status %d, error %q; want 422 naming the missing key material", resp.StatusCode, apiErr.Error)
	}
}

// TestBundleTransferGated: without AllowContextTransfer both the export and
// the import surface are 403.
func TestBundleTransferGated(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true})
	client := ts.Client()
	prog := e2eProgram(t)
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	_, _ = postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "gated", Keygen: &KeygenJSON{Seed: 1},
	})
	resp, err := client.Get(ts.URL + "/contexts/gated/bundle")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Errorf("bundle export without transfer enabled: status %d, want 403", resp.StatusCode)
	}
	_, postResp := postJSON[apiError](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID, ContextID: "gated2", Bundle: &ContextBundle{ProgramID: comp.ID},
	})
	if postResp.StatusCode != http.StatusForbidden {
		t.Errorf("bundle import without transfer enabled: status %d, want 403", postResp.StatusCode)
	}
}

// TestOptionsJSONRoundTrip: OptionsJSON → toOptions must reproduce the
// exact options struct, otherwise a program shipped between nodes would
// hash to a different id on arrival.
func TestOptionsJSONRoundTrip(t *testing.T) {
	cases := []*CompileOptionsJSON{
		nil,
		{AllowInsecure: true},
		{MaxRescaleLog: 40, MinLogN: 12},
		{MaxRescaleLog: 30, AllowInsecure: true, ExtraLevels: 2},
	}
	for i, c := range cases {
		opts := c.toOptions()
		wire := OptionsJSON(opts)
		if back := wire.toOptions(); !reflect.DeepEqual(opts, back) {
			t.Errorf("case %d: %+v round-tripped to %+v", i, opts, back)
		}
	}
}

// TestClientKeysContextSurvivesRestart: a context installed from uploaded
// evaluation keys is restored from its stored record after a restart onto
// the same data directory, and a ciphertext job against it decrypts, under
// the client's secret key, to the cleartext reference.
func TestClientKeysContextSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	st1, err := store.OpenFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	f := newHandleFixture(t, Config{Store: st1})
	f.ts.Close()
	f.srv.Close()
	st1.Close()

	ts2, s2, st2 := persistentServer(t, dir)
	defer func() { ts2.Close(); s2.Close(); st2.Close() }()
	in := execute.Inputs{"x": {1, -2, 3, 0.5, 5, 6, -7, 8}, "y": {0.25, 7, 6, 5, -4, 3, 2, 1}}
	batch := ExecuteBatch{Cipher: map[string][]byte{}}
	for name, v := range in {
		batch.Cipher[name] = f.encryptWire(t, name, v)
	}
	out := runJob(t, ts2.Client(), ts2.URL, JobRequest{
		ProgramID: f.programID, ContextID: f.contextID, Batches: []ExecuteBatch{batch},
	})
	if out.Results[0].Error != "" {
		t.Fatalf("job on the restored context: %s", out.Results[0].Error)
	}
	got := f.decryptOut(t, out.Results[0].Cipher["out"])
	ref, err := execute.RunReference(e2eProgram(t), in)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range ref["out"] {
		if math.Abs(got[i]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}

// TestBadContextRecordLogged: a stored context record that cannot be
// decoded or restored reads as an unknown context (404), and the server
// logs a warning naming the context and the error.
func TestBadContextRecordLogged(t *testing.T) {
	var logs lockedBuffer
	st := store.NewMemory()
	ts, _ := newTestServer(t, Config{Store: st, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	client := ts.Client()
	comp, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	records := map[string]string{
		"not-json": `{"program_id":`,
		"bad-keys": `{"program_id":"` + comp.ID + `","relin":"AA=="}`,
	}
	for id, rec := range records {
		if err := st.Put(kindContext, id, []byte(rec)); err != nil {
			t.Fatal(err)
		}
		_, resp := postJSON[apiError](t, client, ts.URL+"/jobs", JobRequest{
			ProgramID: comp.ID, ContextID: id,
			Batches: []ExecuteBatch{{Values: map[string][]float64{"x": {1}, "y": {1}}}},
		})
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", id, resp.StatusCode)
		}
	}
	warned := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line %q: %v", line, err)
		}
		if id, ok := rec["context_id"].(string); ok && rec["level"] == "WARN" && rec["error"] != "" {
			warned[id] = true
		}
	}
	for id := range records {
		if !warned[id] {
			t.Errorf("no warning for the bad record %q in the log:\n%s", id, logs.String())
		}
	}
}
