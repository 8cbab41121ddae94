package execute

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
)

// setupRun compiles a program and prepares encrypted inputs for RunContext.
func setupRun(t *testing.T) (*Context, *compile.Result, *EncryptedInputs) {
	t.Helper()
	res := compileForTest(t, buildPolynomialProgram(t, 8), compile.DefaultOptions())
	prng := ckks.NewTestPRNG(11)
	ctx, keys, err := NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := EncryptInputs(ctx, res, keys, randomInputs(res.Program, 3), prng)
	if err != nil {
		t.Fatal(err)
	}
	return ctx, res, enc
}

// TestRunContextCancelledBeforeStart: a context that is already cancelled must
// stop the run before any instruction executes.
func TestRunContextCancelledBeforeStart(t *testing.T) {
	ctx, res, enc := setupRun(t)
	stdctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	_, err := RunContext(stdctx, ctx, res, enc, RunOptions{
		Workers:       2,
		OnInstruction: func(*core.Term, InstrRecord) { executed.Add(1) },
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v; want context.Canceled", err)
	}
	if n := executed.Load(); n != 0 {
		t.Errorf("executed %d instructions after pre-cancelled context; want 0", n)
	}
}

// TestRunContextCancelMidRun is the regression test for the runner ignoring
// caller cancellation: cancelling while workers are blocked mid-run must make
// RunContext return promptly with the context error, without executing the
// rest of the program. The OnInstruction callback cancels after the first
// instruction, so with a single worker the remaining instructions are all
// still pending at cancellation time.
func TestRunContextCancelMidRun(t *testing.T) {
	ctx, res, enc := setupRun(t)
	total := len(res.Program.TopoSort())
	if total < 4 {
		t.Fatalf("test program too small (%d instructions)", total)
	}
	stdctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	doneCh := make(chan error, 1)
	go func() {
		_, err := RunContext(stdctx, ctx, res, enc, RunOptions{
			Workers:   1,
			Scheduler: SchedulerParallel,
			OnInstruction: func(*core.Term, InstrRecord) {
				if executed.Add(1) == 1 {
					cancel()
				}
			},
		})
		doneCh <- err
	}()
	select {
	case err := <-doneCh:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunContext = %v; want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("RunContext did not return after cancellation (blocked worker)")
	}
	if n := executed.Load(); n >= int64(total) {
		t.Errorf("all %d instructions executed despite mid-run cancellation", total)
	}
}

// TestRunContextCancelBulkSynchronous covers the wave scheduler's
// cancellation path.
func TestRunContextCancelBulkSynchronous(t *testing.T) {
	ctx, res, enc := setupRun(t)
	stdctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(stdctx, ctx, res, enc, RunOptions{Scheduler: SchedulerBulkSynchronous})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v; want context.Canceled", err)
	}
}

// TestRunContextDeadline: an expired deadline surfaces as DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, res, enc := setupRun(t)
	stdctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := RunContext(stdctx, ctx, res, enc, RunOptions{}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("RunContext = %v; want context.DeadlineExceeded", err)
	}
}

// TestProgressReportsEveryInstruction: a full run calls OnInstruction once
// per compiled instruction, so a counter in it — how serve tracks a run's
// progress — ends at (total, total).
func TestProgressReportsEveryInstruction(t *testing.T) {
	ctx, res, enc := setupRun(t)
	seen := make([]int, len(res.Instrs))
	done := 0
	out, err := RunContext(context.Background(), ctx, res, enc, RunOptions{
		Workers: 2,
		OnInstruction: func(_ *core.Term, rec InstrRecord) {
			seen[rec.ID]++
			done++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done != out.Stats.Instructions || done != len(res.Instrs) {
		t.Errorf("OnInstruction called %d times; want %d (Stats.Instructions %d)", done, len(res.Instrs), out.Stats.Instructions)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("instruction %d reported %d times; want once", id, n)
		}
	}
}
