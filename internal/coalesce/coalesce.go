package coalesce

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"eva/internal/obs"
)

// This file is the coalescer runtime: one bounded batch per (program,
// context) key, sealed either when it reaches capacity or when a max-wait
// timer expires, whichever comes first. Every caller blocks on its own
// response channel; cancelling a caller before its batch seals evicts just
// that caller (the batch keeps filling), cancelling after the seal abandons
// the delivery without disturbing co-batched requests, and a batch whose
// callers have all abandoned it is cancelled as a whole through a hook the
// runner installs.

// ErrClosed rejects submissions after Close.
var ErrClosed = errors.New("coalesce: coalescer is closed")

// Key identifies a coalescing group: only requests against the same
// compiled program and the same execution context may share a ciphertext.
type Key struct {
	Program string
	Context string
}

// Request is one caller's submission. Inputs maps every program input name
// to this caller's vector (1..Stride values; the runner packs encrypted and
// plain inputs alike). VecSize and Stride are properties of the compiled
// program and must agree across all requests for a key.
type Request struct {
	Key     Key
	VecSize int
	Stride  int
	Inputs  map[string][]float64
}

// Delivery is what a successful Submit returns: the caller's demuxed
// payload (typed by the runner) plus the placement facts a client may want
// to report — which batch it rode, where its slots were, how full the
// ciphertext was, and how long it waited for the batch to seal.
type Delivery struct {
	BatchID   string
	BatchSize int
	Slot      Range
	Occupancy float64
	WaitMS    float64
	Payload   any
}

type outcome struct {
	d   Delivery
	err error
}

// waiter is one enqueued caller.
type waiter struct {
	req      *Request
	ch       chan outcome // buffered(1): delivery never blocks on an abandoned caller
	enqueued time.Time
}

// Batch is a group of callers sealed into one shared execution. The runner
// receives it after the seal, when the waiter list is frozen.
type Batch struct {
	Key     Key
	VecSize int
	Stride  int

	c        *Coalescer
	mu       sync.Mutex
	waiters  []*waiter
	sealed   bool
	layout   Layout
	timer    *time.Timer
	id       string
	live     int // waiters that have not abandoned the sealed batch
	cancel   func()
	allGone  bool
	opened   time.Time
	sealedAt time.Time
}

// Layout returns the slot layout frozen at seal time.
func (b *Batch) Layout() Layout { return b.layout }

// Requests returns the sealed callers' requests in slot order: request j
// owns b.Layout().Ranges[j].
func (b *Batch) Requests() []*Request {
	reqs := make([]*Request, len(b.waiters))
	for i, w := range b.waiters {
		reqs[i] = w.req
	}
	return reqs
}

// SetID labels the batch (the runner uses the underlying job id); it is
// echoed in every Delivery.
func (b *Batch) SetID(id string) {
	b.mu.Lock()
	b.id = id
	b.mu.Unlock()
}

// SetCancel installs the runner's whole-batch cancellation hook, invoked
// once if every caller abandons the sealed batch before delivery. If that
// already happened, the hook runs immediately.
func (b *Batch) SetCancel(fn func()) {
	b.mu.Lock()
	b.cancel = fn
	gone := b.allGone
	b.mu.Unlock()
	if gone && fn != nil {
		fn()
	}
}

// Deliver completes caller j (slot order) with its demuxed payload. It never
// blocks: abandoned callers' channels are buffered and garbage-collected.
func (b *Batch) Deliver(j int, payload any, err error) {
	b.mu.Lock()
	w := b.waiters[j]
	d := Delivery{
		BatchID:   b.id,
		BatchSize: len(b.waiters),
		Slot:      b.layout.Ranges[j],
		Occupancy: b.layout.Occupancy(),
		WaitMS:    float64(b.sealedAt.Sub(w.enqueued)) / float64(time.Millisecond),
		Payload:   payload,
	}
	b.mu.Unlock()
	w.ch <- outcome{d: d, err: err}
}

// FailAll completes every caller with the same error (admission shed,
// packing failure, execution failure).
func (b *Batch) FailAll(err error) {
	for j := range b.waiters {
		b.Deliver(j, nil, err)
	}
}

// Done records the sealed batch's execution wall time into the coalescer's
// aggregate statistics; the runner calls it once per batch.
func (b *Batch) Done(wall time.Duration) {
	c := b.c
	c.mu.Lock()
	c.stats.BatchWallMSTotal += float64(wall) / float64(time.Millisecond)
	c.mu.Unlock()
}

// A batch's fixed bounds. The package's tests shrink them through Config's
// unexported fields.
const (
	// maxBatch caps callers per batch; each batch is additionally bounded by
	// its program's slot capacity VecSize/Stride.
	maxBatch = 64
	// maxWait bounds how long the first caller of a batch waits for
	// co-batched company before the batch is sealed anyway.
	maxWait = 25 * time.Millisecond
)

// Config configures a Coalescer.
type Config struct {
	// Run executes one sealed batch on its own goroutine: pack the callers'
	// inputs per Layout, run the shared execution, Deliver each caller's
	// slice (or FailAll), and record Done. Required.
	Run func(b *Batch)
	// Logger receives structured batch-seal records at debug level. Nil
	// discards.
	Logger *slog.Logger

	// Zero means the constant of the same name.
	maxBatch int
	maxWait  time.Duration
}

func (c Config) withDefaults() Config {
	c.maxBatch = cmp.Or(c.maxBatch, maxBatch)
	c.maxWait = cmp.Or(c.maxWait, maxWait)
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Stats is the coalescer's aggregate view, exposed via evaserve /metrics.
type Stats struct {
	// OpenWaiters is the current number of callers waiting in unsealed
	// batches.
	OpenWaiters int    `json:"open_waiters"`
	Batches     uint64 `json:"batches"`
	// Requests counts callers sealed into dispatched batches.
	Requests uint64 `json:"coalesced_requests"`
	// Evicted counts callers cancelled before their batch sealed; Abandoned
	// counts callers cancelled after the seal (their batch kept running).
	Evicted   uint64 `json:"evicted_waiters"`
	Abandoned uint64 `json:"abandoned_waiters"`
	// CancelledBatches counts batches whose callers all abandoned them.
	CancelledBatches uint64 `json:"cancelled_batches"`
	// SlotsUsed / SlotsTotal accumulate per-batch slot occupancy:
	// caller-owned slots versus the full ciphertext capacity dispatched.
	SlotsUsed  uint64 `json:"slots_used"`
	SlotsTotal uint64 `json:"slots_total"`
	// Occupancy is SlotsUsed/SlotsTotal; MeanBatchSize is Requests/Batches.
	Occupancy     float64 `json:"occupancy"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	// LastBatchSize / LastBatchOccupancy describe the most recently sealed
	// batch.
	LastBatchSize      int     `json:"last_batch_size"`
	LastBatchOccupancy float64 `json:"last_batch_occupancy"`
	// BatchWallMSTotal sums every batch's execution wall time; divided by
	// Requests it yields AmortizedRequestMS — the per-request cost of the
	// shared runs, the number batching exists to shrink.
	BatchWallMSTotal   float64 `json:"batch_wall_ms_total"`
	AmortizedRequestMS float64 `json:"amortized_request_ms"`
}

// Coalescer groups compatible requests into shared batches.
type Coalescer struct {
	cfg Config

	mu     sync.Mutex
	open   map[Key]*Batch
	closed bool
	stats  Stats
}

// New returns a running coalescer.
func New(cfg Config) *Coalescer {
	if cfg.Run == nil {
		panic("coalesce: Config.Run is required")
	}
	return &Coalescer{cfg: cfg.withDefaults(), open: map[Key]*Batch{}}
}

// Submit enqueues one caller and blocks until its batch delivers, the
// caller's ctx is cancelled, or the coalescer closes. Input validation is
// the caller's job — a malformed request rejected here would already have
// joined a batch.
func (c *Coalescer) Submit(ctx context.Context, req *Request) (Delivery, error) {
	if err := ctx.Err(); err != nil {
		return Delivery{}, err
	}
	w := &waiter{req: req, ch: make(chan outcome, 1), enqueued: time.Now()}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return Delivery{}, ErrClosed
	}
	b := c.open[req.Key]
	if b == nil {
		b = &Batch{Key: req.Key, VecSize: req.VecSize, Stride: req.Stride, c: c, opened: time.Now()}
		b.timer = time.AfterFunc(c.cfg.maxWait, func() { c.sealExpired(b) })
		c.open[req.Key] = b
	}
	if b.VecSize != req.VecSize || b.Stride != req.Stride {
		c.mu.Unlock()
		return Delivery{}, fmt.Errorf("coalesce: request geometry %d/%d does not match open batch %d/%d for the same program",
			req.VecSize, req.Stride, b.VecSize, b.Stride)
	}
	b.mu.Lock()
	b.waiters = append(b.waiters, w)
	full := len(b.waiters) >= Capacity(b.VecSize, b.Stride, c.cfg.maxBatch)
	b.mu.Unlock()
	if full {
		c.sealLocked(b)
	}
	c.mu.Unlock()

	select {
	case out := <-w.ch:
		return out.d, out.err
	case <-ctx.Done():
		c.evict(b, w)
		return Delivery{}, ctx.Err()
	}
}

// sealExpired is the max-wait timer's path: seal whatever the batch holds.
// The batch may already have sealed at capacity (and a new batch may even
// have opened under the same key), so it seals only if b is still the open
// batch for its key.
func (c *Coalescer) sealExpired(b *Batch) {
	c.mu.Lock()
	if c.open[b.Key] == b && !c.closed {
		c.sealLocked(b)
	}
	c.mu.Unlock()
}

// sealLocked freezes the batch, removes it from the open table, records the
// dispatch statistics, and hands it to the runner. Caller holds c.mu.
func (c *Coalescer) sealLocked(b *Batch) {
	delete(c.open, b.Key)
	b.timer.Stop()
	b.mu.Lock()
	if b.sealed || len(b.waiters) == 0 {
		// Already dispatched, or every caller evicted before the timer fired.
		b.mu.Unlock()
		return
	}
	layout, err := PlanLayout(b.VecSize, b.Stride, len(b.waiters))
	if err != nil {
		// Unreachable when the serve layer validates geometry, but a sealed
		// batch must never dispatch with a broken layout.
		b.mu.Unlock()
		b.FailAll(err)
		return
	}
	b.sealed = true
	b.layout = layout
	b.live = len(b.waiters)
	b.sealedAt = time.Now()
	n := len(b.waiters)
	b.mu.Unlock()

	c.stats.Batches++
	c.stats.Requests += uint64(n)
	c.stats.SlotsUsed += uint64(n * b.Stride)
	c.stats.SlotsTotal += uint64(b.VecSize)
	c.stats.LastBatchSize = n
	c.stats.LastBatchOccupancy = layout.Occupancy()
	c.cfg.Logger.Debug("batch sealed",
		slog.String("program", b.Key.Program),
		slog.String("context", b.Key.Context),
		slog.Int("callers", n),
		slog.Float64("occupancy", layout.Occupancy()),
		slog.Duration("open_for", time.Since(b.opened)))
	go c.cfg.Run(b)
}

// evict handles a caller's cancellation. Before the seal the caller is
// removed outright — the batch keeps filling, and an emptied batch is
// discarded. After the seal its slots are already part of the in-flight
// execution, so the caller is only marked abandoned; when the last live
// caller abandons, the runner's cancel hook stops the now-pointless batch.
func (c *Coalescer) evict(b *Batch, w *waiter) {
	c.mu.Lock()
	b.mu.Lock()
	if !b.sealed {
		for i, other := range b.waiters {
			if other == w {
				b.waiters = append(b.waiters[:i], b.waiters[i+1:]...)
				break
			}
		}
		empty := len(b.waiters) == 0
		b.mu.Unlock()
		if empty && c.open[b.Key] == b {
			delete(c.open, b.Key)
			b.timer.Stop()
		}
		c.stats.Evicted++
		c.mu.Unlock()
		return
	}
	b.live--
	var cancel func()
	if b.live == 0 && !b.allGone {
		b.allGone = true
		cancel = b.cancel
		c.stats.CancelledBatches++
	}
	b.mu.Unlock()
	c.stats.Abandoned++
	c.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// Stats snapshots the aggregate counters.
func (c *Coalescer) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	for _, b := range c.open {
		b.mu.Lock()
		s.OpenWaiters += len(b.waiters)
		b.mu.Unlock()
	}
	if s.SlotsTotal > 0 {
		s.Occupancy = float64(s.SlotsUsed) / float64(s.SlotsTotal)
	}
	if s.Batches > 0 {
		s.MeanBatchSize = float64(s.Requests) / float64(s.Batches)
	}
	if s.Requests > 0 {
		s.AmortizedRequestMS = s.BatchWallMSTotal / float64(s.Requests)
	}
	return s
}

// Close rejects future submissions and fails every caller still waiting in
// an unsealed batch with ErrClosed. Batches already dispatched run to
// completion under the runner's own lifecycle (evaserve ties them to the
// jobs manager, whose Close cancels them).
func (c *Coalescer) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	batches := make([]*Batch, 0, len(c.open))
	for k, b := range c.open {
		delete(c.open, k)
		batches = append(batches, b)
	}
	c.mu.Unlock()
	for _, b := range batches {
		b.timer.Stop()
		b.mu.Lock()
		waiters := append([]*waiter(nil), b.waiters...)
		b.mu.Unlock()
		for _, w := range waiters {
			w.ch <- outcome{err: ErrClosed}
		}
	}
}
