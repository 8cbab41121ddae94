package main

import (
	"context"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/ring"
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

func countHoistedSpans(spans []eva.JobTraceSpan) int {
	n := 0
	for _, sp := range spans {
		if sp.Name == "rotate_hoisted" {
			n++
		}
		n += countHoistedSpans(sp.Children)
	}
	return n
}

// TestHoistFlagDefaults: hoisting is always on — a job whose rotations share
// a source traces a rotate_hoisted batch.
func TestHoistFlagDefaults(t *testing.T) {
	c, stop := startServer(t)
	defer stop()
	tr := runRotationJob(t, c)
	if n := countHoistedSpans(tr.Spans); n < 1 {
		t.Fatalf("default flags traced %d rotate_hoisted spans, want >= 1", n)
	}
}

// TestRingWorkersFlag: -ring-workers sizes the process-wide limb pool.
func TestRingWorkersFlag(t *testing.T) {
	defer ring.SetWorkers(0) // restore the GOMAXPROCS default for other tests
	_, stop := startServer(t, "-ring-workers", "3")
	defer stop()
	if got := ring.Workers(); got != 3 {
		t.Errorf("-ring-workers 3 left the pool at %d workers", got)
	}
}
