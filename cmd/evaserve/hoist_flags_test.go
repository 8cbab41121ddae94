package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/serve"
)

// startServer runs the command with the given extra flags on an ephemeral
// port and returns a client for it plus a shutdown func.
func startServer(t *testing.T, extra ...string) (*eva.Client, func()) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	args := append([]string{"-addr", "127.0.0.1:0", "-demo"}, extra...)
	go func() {
		done <- run(args, &out, io.Discard, sig, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before starting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	return eva.NewClient("http://" + addr), func() {
		sig <- os.Interrupt
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// runRotationJob compiles a program whose two rotations share one source,
// executes it as a job, and returns the finished trace.
func runRotationJob(t *testing.T, c *eva.Client) eva.JobTrace {
	t.Helper()
	ctx := context.Background()
	comp, err := c.Compile(ctx, eva.CompileRequest{
		Source: `program rot vec=8;
input x @30;
out = rotl(x, 1) + rotl(x, 2);
output out @30;`,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Submit(ctx, comp.ID, ectx.ContextID, []eva.ExecuteBatch{
		{Values: map[string][]float64{"x": {1, 2, 3, 4, 5, 6, 7, 8}}},
	}, eva.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitJob(ctx, res.Job.JobID); err != nil {
		t.Fatal(err)
	}
	tr, err := c.FetchJobTrace(ctx, res.Job.JobID)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// executeSpan returns the first span named "execute" in a span tree.
func executeSpan(spans []eva.JobTraceSpan) *eva.JobTraceSpan {
	for i := range spans {
		if spans[i].Name == "execute" {
			return &spans[i]
		}
		if sp := executeSpan(spans[i].Children); sp != nil {
			return sp
		}
	}
	return nil
}

// TestHoistFlagDefaults: hoisting is always on — a job whose rotations share
// a source reports a hoisted batch of both on its execute span.
func TestHoistFlagDefaults(t *testing.T) {
	c, stop := startServer(t)
	defer stop()
	tr := runRotationJob(t, c)
	sp := executeSpan(tr.Spans)
	if sp == nil {
		t.Fatal("job trace has no execute span")
	}
	if b, r := sp.Attrs["hoisted_batches"], sp.Attrs["hoisted_rotations"]; b != "1" || r != "2" {
		t.Fatalf("default flags: execute span hoisted_batches=%q hoisted_rotations=%q, want 1 and 2", b, r)
	}
}
