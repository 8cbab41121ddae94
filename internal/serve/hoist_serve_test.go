package serve

import (
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/execute"
	"eva/internal/hetensor"
	"eva/internal/obs"
)

// matmulProgramRequest compiles a dim x dim diagonal-method matmul over a
// vecSize-slot vector into a CompileRequest — the hetensor workload whose
// rotations the executor dispatches as one hoisted batch.
func matmulProgramRequest(t testing.TB, vecSize, dim int) CompileRequest {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	b := builder.New("matmul", vecSize)
	tc := hetensor.NewCompiler(b, 25, 20)
	x := &hetensor.Vector{Value: b.InputWithWidth("x", dim, 30), Length: dim}
	weights := make([][]float64, dim)
	for i := range weights {
		weights[i] = make([]float64, dim)
		for j := range weights[i] {
			weights[i][j] = rng.Float64() - 0.5
		}
	}
	out, err := tc.Matmul("mm", x, weights, nil)
	if err != nil {
		t.Fatal(err)
	}
	b.Output("y", out.Value, 30)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return compileRequest(t, p)
}

// runMatmulJob compiles and executes the matmul workload as one async job on
// a fresh server and returns its finished trace, plus the RunStats of the
// same program run directly through the executor on the job's context.
func runMatmulJob(t *testing.T, cfg Config) (obs.TraceJSON, execute.RunStats) {
	t.Helper()
	cfg.AllowServerKeygen = true
	ts, s := newTestServer(t, cfg)
	client := ts.Client()
	const dim = 8
	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", matmulProgramRequest(t, 64, dim))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 9},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("contexts: status %d", resp.StatusCode)
	}
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	st, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Values: map[string][]float64{"x": x}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", resp.StatusCode)
	}
	waitJobDone(t, client, ts.URL, st.JobID)
	tr := getJSON[obs.TraceJSON](t, client, ts.URL+"/jobs/"+st.JobID+"/trace")

	ce, ok := s.lookupContext(ctxResp.ContextID)
	if !ok {
		t.Fatalf("context %s not installed", ctxResp.ContextID)
	}
	res := ce.Entry.Result
	enc, err := execute.EncryptInputs(ce.Ctx, res, ce.Keys, execute.Inputs{"x": x}, ckks.NewTestPRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute.Run(ce.Ctx, res, enc, execute.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, out.Stats
}

// findSpan returns the first span named name in a span tree.
func findSpan(spans []obs.SpanJSON, name string) *obs.SpanJSON {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
		if sp := findSpan(spans[i].Children, name); sp != nil {
			return sp
		}
	}
	return nil
}

// TestJobTraceRecordsHoistedBatches executes a hetensor matmul through the
// jobs API and asserts — via the job's execute span — that its rotations were
// dispatched as hoisted batches: the diagonal method needs dim-1 rotations of
// the shared input, so the span's hoisted_batches and hoisted_rotations must
// match the executor's RunStats for the program, with at least one batch of
// all seven. The span's progress must end at every instruction done.
func TestJobTraceRecordsHoistedBatches(t *testing.T) {
	tr, stats := runMatmulJob(t, Config{})
	sp := findSpan(tr.Spans, "execute")
	if sp == nil {
		t.Fatal("job trace has no execute span")
	}
	if stats.HoistedBatches < 1 || stats.HoistedRotations < 7 {
		t.Fatalf("direct run hoisted %d batches of %d rotations, want >= 1 of >= 7", stats.HoistedBatches, stats.HoistedRotations)
	}
	for attr, want := range map[string]int{
		"hoisted_batches":    stats.HoistedBatches,
		"hoisted_rotations":  stats.HoistedRotations,
		"instructions_done":  stats.Instructions,
		"instructions_total": stats.Instructions,
	} {
		if got := sp.Attrs[attr]; got != strconv.Itoa(want) {
			t.Errorf("execute span %s = %q, want %d", attr, got, want)
		}
	}
}
