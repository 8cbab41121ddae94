package coalesce

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// echoRunner delivers every caller its own packed inputs back, labelling the
// batch, so tests can see exactly which batch a caller rode and with whom.
func echoRunner(batchSeq *atomic.Int64) func(*Batch) {
	return func(b *Batch) {
		id := fmt.Sprintf("batch-%d", batchSeq.Add(1))
		b.SetID(id)
		start := time.Now()
		for j := range b.Requests() {
			b.Deliver(j, j, nil)
		}
		b.Done(time.Since(start))
	}
}

func testRequest(key Key) *Request {
	return &Request{Key: key, VecSize: 16, Stride: 4, Inputs: map[string][]float64{"x": {1}}}
}

// TestSealAtCapacity: capacity callers seal and run a batch immediately,
// without waiting for the timer, and everyone shares one batch id.
func TestSealAtCapacity(t *testing.T) {
	var seq atomic.Int64
	c := New(Config{maxBatch: 4, maxWait: time.Hour, Run: echoRunner(&seq)})
	defer c.Close()
	key := Key{Program: "p", Context: "c"}

	var wg sync.WaitGroup
	deliveries := make([]Delivery, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			d, err := c.Submit(context.Background(), testRequest(key))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			deliveries[i] = d
		}(i)
	}
	wg.Wait()

	slots := map[int]bool{}
	for i, d := range deliveries {
		if d.BatchID != "batch-1" {
			t.Errorf("caller %d rode %q; want batch-1", i, d.BatchID)
		}
		if d.BatchSize != 4 {
			t.Errorf("caller %d batch size %d; want 4", i, d.BatchSize)
		}
		if d.Slot.Width != 4 || d.Slot.Start%4 != 0 || slots[d.Slot.Start] {
			t.Errorf("caller %d got slot %+v (dup=%v)", i, d.Slot, slots[d.Slot.Start])
		}
		slots[d.Slot.Start] = true
	}
	s := c.Stats()
	if s.Batches != 1 || s.Requests != 4 {
		t.Errorf("stats = %+v; want 1 batch, 4 requests", s)
	}
	if s.Occupancy != 1.0 {
		t.Errorf("occupancy = %v; want 1.0 (4 callers × stride 4 / 16 slots)", s.Occupancy)
	}
}

// TestSealOnTimer: a lone caller's batch runs after maxWait even though the
// batch never fills.
func TestSealOnTimer(t *testing.T) {
	var seq atomic.Int64
	c := New(Config{maxBatch: 8, maxWait: 10 * time.Millisecond, Run: echoRunner(&seq)})
	defer c.Close()
	d, err := c.Submit(context.Background(), testRequest(Key{Program: "p", Context: "c"}))
	if err != nil {
		t.Fatal(err)
	}
	if d.BatchSize != 1 {
		t.Errorf("batch size %d; want 1", d.BatchSize)
	}
	if got := c.Stats().LastBatchOccupancy; got != 0.25 {
		t.Errorf("last occupancy %v; want 0.25 (1 caller × stride 4 / 16 slots)", got)
	}
}

// TestKeysDoNotMix: different (program, context) keys never share a batch.
func TestKeysDoNotMix(t *testing.T) {
	var seq atomic.Int64
	c := New(Config{maxBatch: 8, maxWait: 10 * time.Millisecond, Run: echoRunner(&seq)})
	defer c.Close()
	var wg sync.WaitGroup
	ids := make([]string, 2)
	for i, key := range []Key{{Program: "p1", Context: "c"}, {Program: "p2", Context: "c"}} {
		wg.Add(1)
		go func(i int, key Key) {
			defer wg.Done()
			d, err := c.Submit(context.Background(), testRequest(key))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			ids[i] = d.BatchID
		}(i, key)
	}
	wg.Wait()
	if ids[0] == ids[1] {
		t.Errorf("different programs coalesced into one batch %q", ids[0])
	}
}

// TestPreSealEviction: a caller cancelling before the seal leaves the batch;
// the survivors run without it and the evicted caller gets its ctx error.
func TestPreSealEviction(t *testing.T) {
	var seq atomic.Int64
	c := New(Config{maxBatch: 8, maxWait: 50 * time.Millisecond, Run: echoRunner(&seq)})
	defer c.Close()
	key := Key{Program: "p", Context: "c"}

	ctx, cancel := context.WithCancel(context.Background())
	evicted := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, testRequest(key))
		evicted <- err
	}()
	// Wait until the first caller is parked, then cancel it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().OpenWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-evicted; !errors.Is(err, context.Canceled) {
		t.Fatalf("evicted caller got %v; want context.Canceled", err)
	}

	d, err := c.Submit(context.Background(), testRequest(key))
	if err != nil {
		t.Fatal(err)
	}
	if d.BatchSize != 1 {
		t.Errorf("survivor's batch size %d; want 1 (evicted caller still aboard)", d.BatchSize)
	}
	if s := c.Stats(); s.Evicted != 1 {
		t.Errorf("evicted = %d; want 1", s.Evicted)
	}
}

// TestEvictionEmptiesBatch: when the only waiter cancels pre-seal, the batch
// is discarded — the timer firing later must not dispatch an empty batch.
func TestEvictionEmptiesBatch(t *testing.T) {
	var ran atomic.Int64
	c := New(Config{maxBatch: 8, maxWait: 20 * time.Millisecond, Run: func(b *Batch) {
		ran.Add(1)
		b.FailAll(errors.New("should not run"))
	}})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Submit(ctx, testRequest(Key{Program: "p", Context: "c"}))
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().OpenWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	time.Sleep(60 * time.Millisecond) // let the max-wait timer fire
	if n := ran.Load(); n != 0 {
		t.Errorf("empty batch dispatched %d times", n)
	}
}

// TestPostSealAbandonment: callers cancelling after the seal don't disturb
// co-batched peers; when ALL of them abandon, the runner's cancel hook fires.
func TestPostSealAbandonment(t *testing.T) {
	release := make(chan struct{})
	cancelled := make(chan struct{}, 1)
	c := New(Config{maxBatch: 2, maxWait: time.Hour, Run: func(b *Batch) {
		b.SetID("held")
		b.SetCancel(func() { cancelled <- struct{}{} })
		<-release // hold the batch "running" until the test releases it
		for j := range b.Requests() {
			b.Deliver(j, j, nil)
		}
	}})
	defer c.Close()
	key := Key{Program: "p", Context: "c"}

	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	go func() { _, err := c.Submit(ctx1, testRequest(key)); errs <- err }()
	go func() { _, err := c.Submit(ctx2, testRequest(key)); errs <- err }()

	// Both callers seal the batch (capacity 2); the runner is now holding it.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().Batches == 0 {
		if time.Now().After(deadline) {
			t.Fatal("batch never sealed")
		}
		time.Sleep(time.Millisecond)
	}
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first abandoner got %v", err)
	}
	select {
	case <-cancelled:
		t.Fatal("batch cancel hook fired with a live caller still aboard")
	case <-time.After(20 * time.Millisecond):
	}
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second abandoner got %v", err)
	}
	select {
	case <-cancelled: // all callers gone → the whole batch is cancelled
	case <-time.After(5 * time.Second):
		t.Fatal("cancel hook never fired after every caller abandoned")
	}
	close(release)
	if s := c.Stats(); s.Abandoned != 2 || s.CancelledBatches != 1 {
		t.Errorf("stats = %+v; want 2 abandoned, 1 cancelled batch", s)
	}
}

// TestGeometryMismatch: a request whose geometry disagrees with the open
// batch for the same key is rejected (defense in depth; the serve layer
// derives both from the same compiled program).
func TestGeometryMismatch(t *testing.T) {
	var seq atomic.Int64
	c := New(Config{maxBatch: 8, maxWait: 50 * time.Millisecond, Run: echoRunner(&seq)})
	defer c.Close()
	key := Key{Program: "p", Context: "c"}
	go c.Submit(context.Background(), testRequest(key))
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().OpenWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	bad := &Request{Key: key, VecSize: 32, Stride: 4, Inputs: map[string][]float64{"x": {1}}}
	if _, err := c.Submit(context.Background(), bad); err == nil {
		t.Fatal("mismatched geometry was accepted into the batch")
	}
}

// TestCloseFailsWaiters: Close fails parked callers with ErrClosed and
// rejects later submissions.
func TestCloseFailsWaiters(t *testing.T) {
	c := New(Config{maxBatch: 8, maxWait: time.Hour, Run: func(b *Batch) {}})
	errs := make(chan error, 1)
	go func() {
		_, err := c.Submit(context.Background(), testRequest(Key{Program: "p", Context: "c"}))
		errs <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().OpenWaiters == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	c.Close()
	if err := <-errs; !errors.Is(err, ErrClosed) {
		t.Fatalf("parked caller got %v; want ErrClosed", err)
	}
	if _, err := c.Submit(context.Background(), testRequest(Key{Program: "p", Context: "c"})); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit got %v; want ErrClosed", err)
	}
}

// TestRunFailureFansOut: a runner failure reaches every co-batched caller.
func TestRunFailureFansOut(t *testing.T) {
	boom := errors.New("boom")
	c := New(Config{maxBatch: 2, maxWait: time.Hour, Run: func(b *Batch) { b.FailAll(boom) }})
	defer c.Close()
	key := Key{Program: "p", Context: "c"}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := c.Submit(context.Background(), testRequest(key))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, boom) {
			t.Errorf("caller got %v; want boom", err)
		}
	}
}
