// Package jobs is evaserve's asynchronous execution subsystem: a bounded
// FIFO queue drained by a fixed worker pool, with admission control that
// sheds load when the estimated resident ciphertext footprint of all
// admitted work exceeds a configurable budget. Submitting returns
// immediately with a job id; progress (queued → running → per-batch done →
// terminal) is published as an ordered event stream that late subscribers
// replay from the start, and results are fetchable exactly once before a
// TTL evicts them.
//
// The package is deliberately generic: a job is a closure, the estimated
// footprint is computed by the caller (evaserve combines the uploaded
// ciphertexts' MemoryBytes with the analysis cost model's static peak
// estimate), and nothing here depends on the FHE stack — which keeps the
// queueing discipline independently testable.
package jobs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"eva/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether a job in this status will never change again.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// Event is one entry of a job's ordered progress stream.
type Event struct {
	// Type is "queued", "running", "batch" (one batch finished), or the
	// terminal status ("done", "failed", "cancelled").
	Type string `json:"type"`
	Job  string `json:"job_id"`
	// Batch is the 1-based index of the batch that just finished (type "batch").
	Batch       int    `json:"batch,omitempty"`
	Batches     int    `json:"batches"`
	BatchesDone int    `json:"batches_done"`
	Error       string `json:"error,omitempty"`
	// ElapsedMillis is the time since the job was submitted.
	ElapsedMillis float64 `json:"elapsed_ms"`
}

// RunFunc executes one admitted job. ctx is cancelled when the job is
// cancelled or the manager shuts down; batchDone must be called once per
// finished batch with its 0-based index.
type RunFunc func(ctx context.Context, batchDone func(batch int)) (result any, err error)

// Config configures a Manager. Zero values select the documented defaults.
type Config struct {
	// Workers is the number of jobs executed concurrently (default 2). Each
	// job may itself parallelize internally, so this is intentionally far
	// smaller than GOMAXPROCS.
	Workers int
	// QueueDepth bounds how many admitted jobs may wait for a worker
	// (default 64); submissions beyond it fail with ErrQueueFull.
	QueueDepth int
	// MemoryBudgetBytes bounds the summed footprint estimate of every
	// queued or running job (default 8 GiB); submissions that would exceed
	// it fail with ErrOverBudget, and a single job estimated over the whole
	// budget fails with ErrJobTooLarge.
	MemoryBudgetBytes int64
	// OnFinish, when non-nil, is called once per job as it reaches a
	// terminal status, with the job's final snapshot and — for StatusDone
	// only — its result. evaserve uses it to persist completed results to
	// the durable artifact store before the TTL evicts the in-memory copy;
	// a cluster tier can use it as a requeue/bookkeeping hook. It is called
	// synchronously with no manager locks held; for jobs that finish on a
	// worker the hook runs before the job's status turns terminal, so any
	// client that observes "done" can already rely on the hook's side
	// effects (a persisted result is durable before the result is visible).
	OnFinish func(snap Snapshot, result any)
	// Logger receives structured lifecycle records (admission sheds at
	// debug, job completion at debug, failures at warn). Nil discards.
	Logger *slog.Logger

	// The package's tests shrink the result TTL; zero means resultTTL.
	resultTTL time.Duration
}

// resultTTL is how long a finished job (and its result, if not yet fetched)
// is retained before eviction.
const resultTTL = 2 * time.Minute

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MemoryBudgetBytes <= 0 {
		c.MemoryBudgetBytes = 8 << 30
	}
	c.resultTTL = cmp.Or(c.resultTTL, resultTTL)
	if c.Logger == nil {
		c.Logger = obs.NopLogger()
	}
	return c
}

// Admission errors. Both ErrQueueFull and ErrOverBudget are transient — the
// client should retry after a backoff — while ErrJobTooLarge can never be
// admitted by this instance.
var (
	ErrQueueFull   = errors.New("jobs: queue is full")
	ErrOverBudget  = errors.New("jobs: admitted memory budget exhausted")
	ErrJobTooLarge = errors.New("jobs: job exceeds the whole memory budget")
	// ErrClosed rejects submissions during shutdown (HTTP 503, not a shed).
	ErrClosed = errors.New("jobs: manager is closed")
)

// job is the manager-internal record.
type job struct {
	id      string
	batches int
	est     int64
	run     RunFunc

	mu          sync.Mutex
	status      Status
	err         string
	batchesDone int
	events      []Event
	subs        map[chan Event]struct{}
	result      any
	fetched     bool
	cancelRun   context.CancelFunc // non-nil while running
	created     time.Time
	started     time.Time
	finished    time.Time
}

// Snapshot is a point-in-time public view of a job.
type Snapshot struct {
	ID          string
	Status      Status
	Batches     int
	BatchesDone int
	EstBytes    int64
	Error       string
	Created     time.Time
	Started     time.Time
	Finished    time.Time
}

// Stats is the manager's aggregate counters, exposed via evaserve /metrics.
type Stats struct {
	QueueDepth    int   `json:"queue_depth"`
	Running       int   `json:"running"`
	AdmittedBytes int64 `json:"admitted_bytes"`
	BudgetBytes   int64 `json:"budget_bytes"`
	Workers       int   `json:"workers"`
	// Shed counts submissions rejected by admission control (queue full or
	// over budget); Rejected counts jobs too large to ever admit.
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	// TotalWaitMillis sums every started job's queue wait; with Completed+
	// Failed+Cancelled it yields the mean wait.
	TotalWaitMillis float64 `json:"total_wait_ms"`
}

// Manager owns the queue, the worker pool, and the job table.
type Manager struct {
	cfg        Config
	root       context.Context
	rootCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	queue    chan *job
	queued   int
	running  int
	admitted int64
	stats    Stats
	closed   bool
	draining bool
}

// NewManager starts a manager and its worker pool.
func NewManager(cfg Config) *Manager {
	cfg = cfg.withDefaults()
	root, cancel := context.WithCancel(context.Background())
	m := &Manager{
		cfg:        cfg,
		root:       root,
		rootCancel: cancel,
		jobs:       map[string]*job{},
		queue:      make(chan *job, cfg.QueueDepth),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels every running job, stops the workers, waits for them, and
// finalizes jobs still sitting in the queue as cancelled — otherwise a
// queued job would stay non-terminal forever and its event subscribers
// would never see the stream close.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.mu.Unlock()
	m.rootCancel()
	m.wg.Wait()
	for {
		select {
		case j := <-m.queue:
			m.cancelPopped(j, "manager closed while job was queued")
		default:
			return
		}
	}
}

// cancelPopped finalizes a job popped from the queue that must not run
// (shutdown, or cancelled while queued): it is moved to cancelled if still
// queued, and the queue-depth/admission accounting is settled either way.
func (m *Manager) cancelPopped(j *job, reason string) {
	j.mu.Lock()
	stillQueued := j.status == StatusQueued
	if stillQueued {
		j.finishLocked(StatusCancelled, reason)
	}
	j.mu.Unlock()
	m.mu.Lock()
	m.queued--
	m.mu.Unlock()
	if stillQueued {
		m.finalize(j, StatusCancelled, true)
		if m.cfg.OnFinish != nil {
			m.cfg.OnFinish(j.snapshot(), nil)
		}
	}
}

// Drain gracefully shuts the manager down: new submissions are rejected
// with ErrClosed immediately, and queued plus running jobs are given until
// ctx expires to finish naturally. Whatever is still unfinished when the
// deadline passes is cancelled by the final Close. Drain returns nil when
// everything completed in time and ctx.Err() when the deadline cut the
// remainder off; either way the manager is fully closed on return.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	var err error
poll:
	for {
		m.mu.Lock()
		idle := m.queued == 0 && m.running == 0
		m.mu.Unlock()
		if idle {
			break
		}
		select {
		case <-ctx.Done():
			err = ctx.Err()
			break poll
		case <-time.After(10 * time.Millisecond):
		}
	}
	m.Close()
	return err
}

// Submit admits a job or rejects it with ErrQueueFull, ErrOverBudget, or
// ErrJobTooLarge. estBytes is the caller's footprint estimate; batches is the
// number of batchDone calls run will make.
func (m *Manager) Submit(batches int, estBytes int64, run RunFunc) (Snapshot, error) {
	id, err := NewID()
	if err != nil {
		return Snapshot{}, err
	}
	return m.SubmitWithID(id, batches, estBytes, run)
}

// SubmitWithID is Submit with a caller-minted id (see NewID). Submit makes
// the job visible to workers before it returns, so a caller that must bind
// the id to external state first — evaserve binds job ids to traces before
// the finish hook can fire — mints the id, binds it, then submits.
func (m *Manager) SubmitWithID(id string, batches int, estBytes int64, run RunFunc) (Snapshot, error) {
	if id == "" {
		return Snapshot{}, errors.New("jobs: empty job id")
	}
	if batches < 1 {
		batches = 1
	}
	if estBytes < 0 {
		estBytes = 0
	}
	j := &job{
		id:      id,
		batches: batches,
		est:     estBytes,
		run:     run,
		status:  StatusQueued,
		subs:    map[chan Event]struct{}{},
		created: time.Now(),
	}

	m.mu.Lock()
	if m.closed || m.draining {
		m.mu.Unlock()
		return Snapshot{}, ErrClosed
	}
	if _, dup := m.jobs[id]; dup {
		m.mu.Unlock()
		return Snapshot{}, fmt.Errorf("jobs: duplicate job id %q", id)
	}
	if estBytes > m.cfg.MemoryBudgetBytes {
		m.stats.Rejected++
		m.mu.Unlock()
		m.cfg.Logger.Debug("job rejected: too large", slog.String(obs.LogJobID, id), slog.Int64("est_bytes", estBytes))
		return Snapshot{}, fmt.Errorf("%w: estimated %d bytes, budget %d", ErrJobTooLarge, estBytes, m.cfg.MemoryBudgetBytes)
	}
	if m.admitted+estBytes > m.cfg.MemoryBudgetBytes {
		admitted := m.admitted
		m.stats.Shed++
		m.mu.Unlock()
		m.cfg.Logger.Debug("job shed: over budget", slog.String(obs.LogJobID, id), slog.Int64("est_bytes", estBytes), slog.Int64("admitted_bytes", admitted))
		return Snapshot{}, fmt.Errorf("%w: %d bytes admitted, job needs %d, budget %d", ErrOverBudget, admitted, estBytes, m.cfg.MemoryBudgetBytes)
	}
	// Record the queued event before the job becomes visible to a worker, so
	// the event order is strict even when a worker pops it immediately.
	j.emit("queued")
	select {
	case m.queue <- j:
	default:
		m.stats.Shed++
		m.mu.Unlock()
		m.cfg.Logger.Debug("job shed: queue full", slog.String(obs.LogJobID, id))
		return Snapshot{}, fmt.Errorf("%w: %d jobs queued", ErrQueueFull, m.cfg.QueueDepth)
	}
	m.admitted += estBytes
	m.queued++
	m.stats.Submitted++
	m.jobs[id] = j
	m.mu.Unlock()
	return j.snapshot(), nil
}

// Get returns a job's current state.
func (m *Manager) Get(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	return j.snapshot(), true
}

// Cancel cancels a queued or running job. Cancelling a terminal job is a
// no-op that returns its snapshot.
func (m *Manager) Cancel(id string) (Snapshot, bool) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return Snapshot{}, false
	}
	j.mu.Lock()
	switch j.status {
	case StatusQueued:
		// The worker that eventually pops it observes the status and skips.
		j.finishLocked(StatusCancelled, "cancelled while queued")
		j.mu.Unlock()
		m.finalize(j, StatusCancelled, true)
		if m.cfg.OnFinish != nil {
			m.cfg.OnFinish(j.snapshot(), nil)
		}
	case StatusRunning:
		cancel := j.cancelRun
		j.mu.Unlock()
		if cancel != nil {
			cancel() // the worker finalizes with StatusCancelled
		}
	default:
		j.mu.Unlock()
	}
	return j.snapshot(), true
}

// FetchStatus is the outcome of FetchResult.
type FetchStatus int

const (
	// FetchOK: the result is returned and is now evicted (fetch-once).
	FetchOK FetchStatus = iota
	// FetchNotFound: unknown or already evicted job id.
	FetchNotFound
	// FetchNotDone: the job has not reached a terminal status yet.
	FetchNotDone
	// FetchGone: the job finished but its result was already fetched, the
	// job failed or was cancelled, or the TTL evicted the result.
	FetchGone
)

// FetchResult returns a finished job's result exactly once.
func (m *Manager) FetchResult(id string) (any, Snapshot, FetchStatus) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, Snapshot{}, FetchNotFound
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	snap := j.snapshotLocked()
	if !j.status.Terminal() {
		return nil, snap, FetchNotDone
	}
	if j.status != StatusDone || j.fetched {
		return nil, snap, FetchGone
	}
	res := j.result
	j.result = nil
	j.fetched = true
	return res, snap, FetchOK
}

// Subscribe returns the job's event history so far plus a channel of future
// events. The channel is closed after the terminal event; closing is the
// only way it ends, so a subscriber to a finished job gets the full history
// and an already-closed channel. unsubscribe is idempotent and must be
// called when the subscriber stops reading early.
func (m *Manager) Subscribe(id string) (history []Event, ch <-chan Event, unsubscribe func(), ok bool) {
	m.mu.Lock()
	j, exists := m.jobs[id]
	m.mu.Unlock()
	if !exists {
		return nil, nil, nil, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	history = append([]Event(nil), j.events...)
	// Future events per job are bounded (batches + running + terminal), so a
	// channel with that capacity can never block the worker.
	c := make(chan Event, j.batches+4)
	if j.status.Terminal() {
		close(c)
		return history, c, func() {}, true
	}
	j.subs[c] = struct{}{}
	var once sync.Once
	unsubscribe = func() {
		once.Do(func() {
			j.mu.Lock()
			if _, live := j.subs[c]; live {
				delete(j.subs, c)
				close(c)
			}
			j.mu.Unlock()
		})
	}
	return history, c, unsubscribe, true
}

// Stats snapshots the aggregate counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.QueueDepth = m.queued
	s.Running = m.running
	s.AdmittedBytes = m.admitted
	s.BudgetBytes = m.cfg.MemoryBudgetBytes
	s.Workers = m.cfg.Workers
	return s
}

// worker drains the queue until the manager closes.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.root.Done():
			return
		case j := <-m.queue:
			m.runJob(j)
		}
	}
}

// runJob executes one popped job end to end.
func (m *Manager) runJob(j *job) {
	// The worker's select may pick a queued job over the closed root
	// context; a job popped after shutdown began must not start.
	if m.root.Err() != nil {
		m.cancelPopped(j, "manager closed while job was queued")
		return
	}
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while queued; accounting was already released.
		j.mu.Unlock()
		m.mu.Lock()
		m.queued--
		m.mu.Unlock()
		return
	}
	jctx, cancel := context.WithCancel(m.root)
	defer cancel()
	j.status = StatusRunning
	j.started = time.Now()
	j.cancelRun = cancel
	wait := j.started.Sub(j.created)
	j.mu.Unlock()

	m.mu.Lock()
	m.queued--
	m.running++
	m.stats.TotalWaitMillis += float64(wait) / float64(time.Millisecond)
	m.mu.Unlock()
	j.emit("running")

	result, err := j.safeRun(jctx, func(batch int) {
		j.mu.Lock()
		j.batchesDone++
		j.mu.Unlock()
		j.emitBatch(batch + 1)
	})

	status := StatusDone
	msg := ""
	switch {
	case jctx.Err() != nil:
		status, msg = StatusCancelled, jctx.Err().Error()
	case err != nil:
		status, msg = StatusFailed, err.Error()
	}
	if status != StatusDone {
		result = nil
	}
	// Run the finish hook before the status turns terminal: a poller that
	// observes "done" (and immediately fetches the result) is then
	// guaranteed the hook's side effects — e.g. the durable copy of the
	// result — already happened. A fetch racing ahead of the transition
	// gets FetchNotDone and retries.
	if m.cfg.OnFinish != nil {
		snap := j.snapshot()
		snap.Status, snap.Error, snap.Finished = status, msg, time.Now()
		m.cfg.OnFinish(snap, result)
	}
	j.mu.Lock()
	j.cancelRun = nil
	j.result = result
	j.finishLocked(status, msg)
	run := j.finished.Sub(j.started)
	j.mu.Unlock()
	m.finalize(j, status, false)
	attrs := []any{
		slog.String(obs.LogJobID, j.id),
		slog.String("status", string(status)),
		slog.Duration("wait", wait),
		slog.Duration("run", run),
	}
	if status == StatusFailed {
		m.cfg.Logger.Warn("job failed", append(attrs, slog.String("error", msg))...)
	} else {
		m.cfg.Logger.Debug("job finished", attrs...)
	}
}

// safeRun invokes the job's RunFunc, converting a panic into an ordinary
// job failure: the worker goroutine has no net/http-style recovery above
// it, so an escaping panic would kill the whole process and drop every
// other queued and running job.
func (j *job) safeRun(ctx context.Context, batchDone func(int)) (result any, err error) {
	defer func() {
		if r := recover(); r != nil {
			result, err = nil, fmt.Errorf("jobs: job panicked: %v", r)
		}
	}()
	return j.run(ctx, batchDone)
}

// finalize releases a finished job's admission accounting, bumps the outcome
// counters, and schedules the TTL eviction of the whole record.
func (m *Manager) finalize(j *job, status Status, wasQueued bool) {
	m.mu.Lock()
	m.admitted -= j.est
	if wasQueued {
		// Queue-cancelled jobs leave m.queued to the worker that pops the
		// stale entry, so depth keeps matching the channel.
	} else {
		m.running--
	}
	switch status {
	case StatusDone:
		m.stats.Completed++
	case StatusFailed:
		m.stats.Failed++
	case StatusCancelled:
		m.stats.Cancelled++
	}
	m.mu.Unlock()
	time.AfterFunc(m.cfg.resultTTL, func() {
		m.mu.Lock()
		delete(m.jobs, j.id)
		m.mu.Unlock()
	})
}

// finishLocked moves the job to a terminal status, emits the terminal event,
// and closes every subscriber. Caller holds j.mu.
func (j *job) finishLocked(status Status, errMsg string) {
	j.status = status
	j.err = errMsg
	j.run = nil // release everything the closure pinned (inputs, contexts)
	j.finished = time.Now()
	j.appendEventLocked(Event{Type: string(status), Error: errMsg})
	for c := range j.subs {
		delete(j.subs, c)
		close(c)
	}
}

func (j *job) emit(typ string) {
	j.mu.Lock()
	j.appendEventLocked(Event{Type: typ})
	j.mu.Unlock()
}

func (j *job) emitBatch(batch int) {
	j.mu.Lock()
	j.appendEventLocked(Event{Type: "batch", Batch: batch})
	j.mu.Unlock()
}

// appendEventLocked stamps the event, records it in the history, and fans it
// out to subscribers. Caller holds j.mu; subscriber channels are sized so the
// sends can never block.
func (j *job) appendEventLocked(e Event) {
	e.Job = j.id
	e.Batches = j.batches
	e.BatchesDone = j.batchesDone
	e.ElapsedMillis = float64(time.Since(j.created)) / float64(time.Millisecond)
	j.events = append(j.events, e)
	for c := range j.subs {
		select {
		case c <- e:
		default: // unreachable by construction; never block the worker
		}
	}
}

func (j *job) snapshot() Snapshot {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *job) snapshotLocked() Snapshot {
	return Snapshot{
		ID:          j.id,
		Status:      j.status,
		Batches:     j.batches,
		BatchesDone: j.batchesDone,
		EstBytes:    j.est,
		Error:       j.err,
		Created:     j.created,
		Started:     j.started,
		Finished:    j.finished,
	}
}

// NewID mints a job id. Exported so callers that must know the id before
// the job becomes visible (see SubmitWithID) can pre-mint it.
func NewID() (string, error) {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("jobs: generating id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}
