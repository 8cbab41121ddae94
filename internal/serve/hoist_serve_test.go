package serve

import (
	"math/rand"
	"net/http"
	"strconv"
	"testing"

	"eva/internal/builder"
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
// a fresh server and returns its finished trace.
func runMatmulJob(t *testing.T, cfg Config) obs.TraceJSON {
	t.Helper()
	cfg.AllowServerKeygen = true
	ts, _ := newTestServer(t, cfg)
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
	st, resp := postJSON[JobStatus](t, client, ts.URL+"/jobs", JobRequest{
		ProgramID: comp.ID,
		ContextID: ctxResp.ContextID,
		Batches:   []ExecuteBatch{{Values: map[string][]float64{"x": {1, 2, 3, 4, 5, 6, 7, 8}}}},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job submit: status %d", resp.StatusCode)
	}
	waitJobDone(t, client, ts.URL, st.JobID)
	return getJSON[obs.TraceJSON](t, client, ts.URL+"/jobs/"+st.JobID+"/trace")
}

// hoistedSpans walks a span tree counting rotate_hoisted spans and summing
// their "rotations" attributes.
func hoistedSpans(t *testing.T, spans []obs.SpanJSON) (batches, rotations int) {
	t.Helper()
	for _, sp := range spans {
		if sp.Name == "rotate_hoisted" {
			batches++
			n, err := strconv.Atoi(sp.Attrs["rotations"])
			if err != nil {
				t.Fatalf("rotate_hoisted span has rotations attr %q: %v", sp.Attrs["rotations"], err)
			}
			rotations += n
		}
		b, r := hoistedSpans(t, sp.Children)
		batches += b
		rotations += r
	}
	return batches, rotations
}

// TestJobTraceRecordsHoistedBatches executes a hetensor matmul through the
// jobs API and asserts — via the job's trace — that its rotations were
// dispatched as hoisted batches: the diagonal method needs dim-1 rotations of
// the shared input, so the trace must carry at least one rotate_hoisted span
// accounting for all of them.
func TestJobTraceRecordsHoistedBatches(t *testing.T) {
	tr := runMatmulJob(t, Config{})
	batches, rotations := hoistedSpans(t, tr.Spans)
	if batches < 1 || rotations < 7 {
		t.Fatalf("trace has %d rotate_hoisted spans covering %d rotations, want >= 1 covering >= 7", batches, rotations)
	}
}
