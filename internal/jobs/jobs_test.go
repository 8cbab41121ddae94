package jobs

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// waitStatus polls until the job reaches a terminal or expected status.
func waitStatus(t *testing.T, m *Manager, id string, want Status) Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		snap, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared while waiting for %s", id, want)
		}
		if snap.Status == want {
			return snap
		}
		if snap.Status.Terminal() && !want.Terminal() {
			t.Fatalf("job %s reached terminal %s while waiting for %s", id, snap.Status, want)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return Snapshot{}
}

func TestJobLifecycleAndEvents(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()

	snap, err := m.Submit(3, 100, func(ctx context.Context, batchDone func(int)) (any, error) {
		for i := 0; i < 3; i++ {
			batchDone(i)
		}
		return "result-payload", nil
	})
	if err != nil {
		t.Fatal(err)
	}
	history, ch, unsub, ok := m.Subscribe(snap.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsub()

	var events []Event
	events = append(events, history...)
	for e := range ch {
		events = append(events, e)
	}
	var types []string
	for _, e := range events {
		types = append(types, e.Type)
	}
	want := []string{"queued", "running", "batch", "batch", "batch", "done"}
	if fmt.Sprint(types) != fmt.Sprint(want) {
		t.Fatalf("event sequence %v; want %v", types, want)
	}
	if last := events[len(events)-1]; last.BatchesDone != 3 || last.Batches != 3 {
		t.Errorf("terminal event counts = %d/%d; want 3/3", last.BatchesDone, last.Batches)
	}

	res, final, fs := m.FetchResult(snap.ID)
	if fs != FetchOK || res != "result-payload" {
		t.Fatalf("FetchResult = %v, %v; want FetchOK with payload", res, fs)
	}
	if final.Status != StatusDone {
		t.Errorf("final status %s; want done", final.Status)
	}
	// Fetch-once: the second fetch is gone.
	if _, _, fs := m.FetchResult(snap.ID); fs != FetchGone {
		t.Errorf("second FetchResult = %v; want FetchGone", fs)
	}
}

func TestLateSubscriberReplaysHistory(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	snap, err := m.Submit(1, 0, func(ctx context.Context, batchDone func(int)) (any, error) {
		batchDone(0)
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, snap.ID, StatusDone)
	history, ch, unsub, ok := m.Subscribe(snap.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsub()
	if _, open := <-ch; open {
		t.Error("channel of finished job should be closed")
	}
	if n := len(history); n != 4 { // queued, running, batch, done
		t.Errorf("history has %d events; want 4", n)
	}
}

func TestQueueFullSheds(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	defer m.Close()
	release := make(chan struct{})
	blocked := func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, ctx.Err()
	}
	first, err := m.Submit(1, 0, blocked)
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, first.ID, StatusRunning) // worker busy; queue empty again
	if _, err := m.Submit(1, 0, blocked); err != nil {
		t.Fatalf("queue should hold one waiting job: %v", err)
	}
	_, err = m.Submit(1, 0, blocked)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit = %v; want ErrQueueFull", err)
	}
	if got := m.Stats().Shed; got != 1 {
		t.Errorf("shed count = %d; want 1", got)
	}
	close(release)
}

func TestMemoryBudgetAdmission(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 8, MemoryBudgetBytes: 1000})
	defer m.Close()
	release := make(chan struct{})
	blocked := func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return "ok", nil
	}
	if _, err := m.Submit(1, 600, blocked); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(1, 600, blocked); !errors.Is(err, ErrOverBudget) {
		t.Fatalf("over-budget submit = %v; want ErrOverBudget", err)
	}
	if _, err := m.Submit(1, 2000, blocked); !errors.Is(err, ErrJobTooLarge) {
		t.Fatalf("oversized submit = %v; want ErrJobTooLarge", err)
	}
	st := m.Stats()
	if st.Shed != 1 || st.Rejected != 1 {
		t.Errorf("shed/rejected = %d/%d; want 1/1", st.Shed, st.Rejected)
	}
	if st.AdmittedBytes != 600 {
		t.Errorf("admitted = %d; want 600", st.AdmittedBytes)
	}
	close(release)
	// Budget is released once the job finishes, so a new job fits again.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := m.Submit(1, 600, func(ctx context.Context, _ func(int)) (any, error) { return nil, nil }); err == nil {
			break
		} else if !errors.Is(err, ErrOverBudget) {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatal("budget never released after job completion")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCancelRunningJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	started := make(chan struct{})
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, ok := m.Cancel(snap.ID); !ok {
		t.Fatal("cancel: job not found")
	}
	final := waitStatus(t, m, snap.ID, StatusCancelled)
	if final.Status != StatusCancelled {
		t.Fatalf("status %s; want cancelled", final.Status)
	}
	if _, _, fs := m.FetchResult(snap.ID); fs != FetchGone {
		t.Errorf("FetchResult of cancelled job = %v; want FetchGone", fs)
	}
	if got := m.Stats().Cancelled; got != 1 {
		t.Errorf("cancelled count = %d; want 1", got)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	first, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, first.ID, StatusRunning)
	queued, err := m.Submit(1, 500, func(ctx context.Context, _ func(int)) (any, error) {
		t.Error("cancelled queued job must never run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, ok := m.Cancel(queued.ID)
	if !ok || snap.Status != StatusCancelled {
		t.Fatalf("cancel queued = %+v, %v; want cancelled", snap, ok)
	}
	if got := m.Stats().AdmittedBytes; got != 0 {
		t.Errorf("admitted bytes after queue-cancel = %d; want 0", got)
	}
}

func TestFailedJob(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, m, snap.ID, StatusFailed)
	if final.Error != "boom" {
		t.Errorf("error = %q; want boom", final.Error)
	}
	if _, _, fs := m.FetchResult(snap.ID); fs != FetchGone {
		t.Errorf("FetchResult of failed job = %v; want FetchGone", fs)
	}
}

func TestResultTTLEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, resultTTL: 30 * time.Millisecond})
	defer m.Close()
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) { return "r", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, snap.ID, StatusDone)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, ok := m.Get(snap.ID); !ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job record never evicted after TTL")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, _, fs := m.FetchResult(snap.ID); fs != FetchNotFound {
		t.Errorf("FetchResult after TTL = %v; want FetchNotFound", fs)
	}
}

func TestFetchNotDone(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	release := make(chan struct{})
	defer close(release)
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, fs := m.FetchResult(snap.ID); fs != FetchNotDone {
		t.Errorf("FetchResult of queued/running job = %v; want FetchNotDone", fs)
	}
}

// TestManagerCloseCancelsRunning: Close must propagate cancellation into
// running jobs and return once workers exit.
func TestManagerCloseCancelsRunning(t *testing.T) {
	m := NewManager(Config{Workers: 2})
	started := make(chan struct{})
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	done := make(chan struct{})
	go func() { m.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	if s, ok := m.Get(snap.ID); ok && s.Status != StatusCancelled {
		t.Errorf("running job after Close: %s; want cancelled", s.Status)
	}
	if _, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) { return nil, nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after Close = %v; want ErrClosed", err)
	}
}

// TestJobPanicBecomesFailure: a panicking RunFunc must fail its own job,
// not kill the worker (or the process).
func TestJobPanicBecomesFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	defer m.Close()
	snap, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		panic("kaboom")
	})
	if err != nil {
		t.Fatal(err)
	}
	final := waitStatus(t, m, snap.ID, StatusFailed)
	if !strings.Contains(final.Error, "kaboom") {
		t.Errorf("error = %q; want the panic value", final.Error)
	}
	// The worker must survive the panic and keep draining the queue.
	again, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) { return "ok", nil })
	if err != nil {
		t.Fatal(err)
	}
	waitStatus(t, m, again.ID, StatusDone)
}

// TestCloseFinalizesQueuedJobs: Close must cancel jobs still in the queue
// so their subscribers see the stream end instead of hanging forever.
func TestCloseFinalizesQueuedJobs(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 4})
	started := make(chan struct{})
	if _, err := m.Submit(1, 0, func(ctx context.Context, _ func(int)) (any, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := m.Submit(1, 100, func(ctx context.Context, _ func(int)) (any, error) {
		t.Error("queued job must not run after Close")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	_, ch, unsub, ok := m.Subscribe(queued.ID)
	if !ok {
		t.Fatal("subscribe failed")
	}
	defer unsub()
	m.Close()
	// The subscriber channel must close (via the terminal event) promptly.
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, open := <-ch:
			if !open {
				goto drained
			}
			if ev.Type == string(StatusCancelled) && ev.Error == "" {
				t.Error("terminal event without reason")
			}
		case <-deadline:
			t.Fatal("subscriber channel never closed after Close")
		}
	}
drained:
	snap, ok := m.Get(queued.ID)
	if !ok || snap.Status != StatusCancelled {
		t.Fatalf("queued job after Close = %+v, %v; want cancelled", snap, ok)
	}
	if got := m.Stats().AdmittedBytes; got != 0 {
		t.Errorf("admitted bytes after Close = %d; want 0", got)
	}
}

// TestConcurrentSubmitters hammers admission control from many goroutines;
// run with -race. Every accepted job must complete exactly once.
func TestConcurrentSubmitters(t *testing.T) {
	m := NewManager(Config{Workers: 4, QueueDepth: 16, MemoryBudgetBytes: 1 << 20})
	defer m.Close()
	var mu sync.Mutex
	completed := map[string]bool{}
	var wg sync.WaitGroup
	var accepted, shed int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				snap, err := m.Submit(2, 1024, func(ctx context.Context, batchDone func(int)) (any, error) {
					batchDone(0)
					batchDone(1)
					return "ok", nil
				})
				mu.Lock()
				if err != nil {
					shed++
				} else {
					accepted++
					completed[snap.ID] = false
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	ids := make([]string, 0, len(completed))
	for id := range completed {
		ids = append(ids, id)
	}
	mu.Unlock()
	for _, id := range ids {
		snap := waitStatus(t, m, id, StatusDone)
		if snap.BatchesDone != 2 {
			t.Errorf("job %s finished %d batches; want 2", id, snap.BatchesDone)
		}
	}
	st := m.Stats()
	if st.Completed != uint64(len(ids)) {
		t.Errorf("completed = %d; want %d", st.Completed, len(ids))
	}
	if st.AdmittedBytes != 0 {
		t.Errorf("admitted bytes after drain = %d; want 0", st.AdmittedBytes)
	}
	t.Logf("accepted %d, shed %d", accepted, shed)
}
