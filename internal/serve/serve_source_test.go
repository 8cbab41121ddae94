package serve

import (
	"math"
	"net/http"
	"strings"
	"testing"

	"eva/internal/builder"
	"eva/internal/execute"
)

// quickstartSource is the textual form of the quickstart example
// (0.5·(x² + y)); quickstartBuilder constructs the identical program through
// the builder frontend.
const quickstartSource = `program quickstart vec=8;
input x @30;
input y @30;
result = (x * x + y) * 0.5@30;
output result @30;
`

func quickstartBuilder(t testing.TB) *builder.Builder {
	t.Helper()
	b := builder.New("quickstart", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("result", x.Square().Add(y).MulScalar(0.5, 30), 30)
	return b
}

// TestCompileSourceEndToEnd is the acceptance walkthrough: POST source text
// to /compile, create a demo context, execute a batch, and check the
// decrypted results against the reference semantics. It also checks that the
// source form shares its registry entry with the structurally identical JSON
// submission — one program, one compilation, whatever the wire format.
func TestCompileSourceEndToEnd(t *testing.T) {
	ts, _ := newTestServer(t, Config{AllowServerKeygen: true})
	client := ts.Client()

	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", CompileRequest{
		Source:  quickstartSource,
		Options: &CompileOptionsJSON{AllowInsecure: true},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	if comp.Cached {
		t.Error("first source compile reported as cached")
	}

	// Same source again: a cache hit.
	comp2, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", CompileRequest{
		Source:  quickstartSource,
		Options: &CompileOptionsJSON{AllowInsecure: true},
	})
	if !comp2.Cached || comp2.ID != comp.ID {
		t.Errorf("identical source not served from cache (cached=%v, id %s vs %s)", comp2.Cached, comp2.ID, comp.ID)
	}

	// The same program as a JSON submission: also the same entry.
	prog, err := quickstartBuilder(t).Program()
	if err != nil {
		t.Fatal(err)
	}
	comp3, _ := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, prog))
	if !comp3.Cached || comp3.ID != comp.ID {
		t.Errorf("JSON submission of the same program missed the cache (cached=%v, id %s vs %s)", comp3.Cached, comp3.ID, comp.ID)
	}

	ctxResp, resp := postJSON[ContextResponse](t, client, ts.URL+"/contexts", ContextRequest{
		ProgramID: comp.ID,
		Keygen:    &KeygenJSON{Seed: 11},
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
	got := execResp.Results[0].Values["result"]
	for i := range inputs["x"] {
		want := 0.5 * (inputs["x"][i]*inputs["x"][i] + inputs["y"][i])
		if math.Abs(got[i]-want) > 1e-2 {
			t.Errorf("slot %d: got %v, want %v", i, got[i], want)
		}
	}
}

// TestCompileSourceErrors covers one case per error class: lexical, syntax,
// name resolution, width validation, and scale validation, plus the
// both-forms and neither-form request shapes. Every source failure must
// carry positioned structured diagnostics.
func TestCompileSourceErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	client := ts.Client()

	cases := []struct {
		name    string
		source  string
		wantMsg string
		line    int
		col     int
	}{
		{
			"lexical", "program p vec=8;\ninput x @30;\noutput o = x ? x @30;",
			"unexpected character", 3, 14,
		},
		{
			"syntax", "program p vec=8;\ninput x @30\noutput x @30;",
			"expected \";\"", 3, 1,
		},
		{
			"undefined-name", "program p vec=8;\ninput x @30;\noutput o = x * z @30;",
			"undefined name", 3, 16,
		},
		{
			"bad-width", "program p vec=8;\ninput x width=3 @30;\noutput x @30;",
			"power of two", 2, 15,
		},
		{
			"bad-rescale-scale", "program p vec=8;\ninput x @30;\noutput o = rescale(x, -1) @30;",
			"rescale divisor", 3, 23,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, resp := postJSON[apiError](t, client, ts.URL+"/compile", CompileRequest{Source: tc.source})
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			if len(body.SourceErrors) == 0 {
				t.Fatalf("no structured source errors in %+v", body)
			}
			first := body.SourceErrors[0]
			if first.Line != tc.line || first.Col != tc.col {
				t.Errorf("diagnostic at %d:%d, want %d:%d (%+v)", first.Line, first.Col, tc.line, tc.col, first)
			}
			if !strings.Contains(first.Message, tc.wantMsg) {
				t.Errorf("message %q missing %q", first.Message, tc.wantMsg)
			}
			if first.Snippet == "" {
				t.Errorf("missing snippet in %+v", first)
			}
		})
	}

	t.Run("both-forms", func(t *testing.T) {
		prog, err := quickstartBuilder(t).Program()
		if err != nil {
			t.Fatal(err)
		}
		req := compileRequest(t, prog)
		req.Source = quickstartSource
		body, resp := postJSON[apiError](t, client, ts.URL+"/compile", req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "exactly one") {
			t.Errorf("status %d, body %+v", resp.StatusCode, body)
		}
	})
	t.Run("neither-form", func(t *testing.T) {
		body, resp := postJSON[apiError](t, client, ts.URL+"/compile", CompileRequest{})
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "exactly one") {
			t.Errorf("status %d, body %+v", resp.StatusCode, body)
		}
	})
}
