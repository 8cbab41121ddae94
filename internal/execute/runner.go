package execute

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
)

// Scheduler selects how the instruction DAG is scheduled onto worker threads.
type Scheduler int

const (
	// SchedulerParallel is EVA's scheduler: instructions are dispatched
	// asynchronously as soon as their operands are available, exploiting
	// parallelism across kernels.
	SchedulerParallel Scheduler = iota
	// SchedulerBulkSynchronous models the CHET baseline: instructions are
	// executed kernel by kernel, with a barrier between waves, limiting
	// parallelism to what is available inside a single kernel.
	SchedulerBulkSynchronous
	// SchedulerSequential executes instructions one at a time (used for the
	// single-thread measurements of Table 8 and Figure 7).
	SchedulerSequential
)

// RunOptions configures one execution.
type RunOptions struct {
	// Workers is the number of worker goroutines (0 means GOMAXPROCS).
	Workers   int
	Scheduler Scheduler
	// DisableHoisting turns off hoisted rotation batching: every rotation is
	// then an independent key switch, as in the sequential baseline.
	DisableHoisting bool
	// OnInstruction, when non-nil, is called once per instruction of the
	// compiled program (len(res.Instrs) calls in all) as it completes, with
	// the term and its measured record — the run's only observer, so a
	// counter in it is the run's progress. Calls are serialized under the
	// run's lock but may come from any worker goroutine; the callback must be
	// fast and must not call back into the executor. Hoisted batches are
	// counted in the Outputs' RunStats.
	OnInstruction func(t *core.Term, rec InstrRecord)

	// withoutPlanMechanisms is the differential tests' switch: the run goes
	// through the same program and scheduler but encodes every constant itself,
	// allocates every result fresh and evaluates fused chains one member at
	// a time — what every run did before plans carried those mechanisms.
	withoutPlanMechanisms bool
}

// InstrRecord is the per-instruction measurement handed to
// RunOptions.OnInstruction: what actually happened when the instruction ran,
// for the profiler to compare against the compiler's static expectations.
type InstrRecord struct {
	// ID is the instruction's index into the compiled program's Instrs, the
	// key to everything the compiler knows about it.
	ID int32
	// Wall is the instruction's evaluation wall time (backend call only, not
	// queueing). For the first-scheduled member of a hoisted rotation batch it
	// includes the whole batch's key-switch work, which the cost model
	// (compile.Result.InstrUnits) charges instead to the members that do it:
	// the decomposition to the first member, a key application to the first
	// taking each step. For a member of a fused chain it is the chain's wall
	// time apportioned by the cost model's units (CostModel.OpUnits).
	Wall time.Duration
	// Cipher reports whether the result is a ciphertext. Level and Scale are
	// the result ciphertext's post-op level and raw scale (Level is -1 and
	// Scale 0 for plain results).
	Cipher bool
	Level  int
	Scale  float64
	// OutBytes is the result's memory footprint; OperandBytes sums the live
	// footprints of the instruction's operands at completion time.
	OutBytes     int
	OperandBytes int
	Operands     int
	// Hoisted reports membership in a hoisted rotation batch.
	Hoisted bool
	// Fused reports that the instruction was evaluated as part of a fused
	// multiply-accumulate chain rather than on its own. Level, Scale and
	// OutBytes are then those of the chain's result, which every
	// intermediate of the chain would have shared.
	Fused bool
}

// value is the run-time value of a term: either a ciphertext or a plain
// vector of the program's vector size.
type value struct {
	ct    *ckks.Ciphertext
	plain []float64
	// owned marks a ciphertext this run's evaluator produced and nothing else
	// references, so its buffers go back to the evaluator's pool at its last
	// use. Caller-owned ciphertexts — the run's inputs — never are, and a
	// program output is never released in the first place.
	owned bool
}

func (v value) bytes() int {
	if v.ct != nil {
		return v.ct.MemoryBytes()
	}
	return 8 * len(v.plain)
}

// runState carries the shared mutable state of one execution of a compiled
// program.
type runState struct {
	stdctx context.Context
	ctx    *Context
	res    *compile.Result
	in     *EncryptedInputs

	onInstr func(t *core.Term, rec InstrRecord)

	// The three plan mechanisms, each of which a run may have to do without:
	// cache (the context's parameters match the cached encodings), recycle
	// and fuse (off only under the tests' switch).
	cache, recycle, fuse bool
	// hoists holds the per-run state of the program's hoistable rotation
	// sets; nil when hoisting is disabled.
	hoists []hoistRun

	cacheHits, cacheMisses atomic.Int64
	modDowns               atomic.Int64
	fusedRescales          atomic.Int64

	mu sync.Mutex
	// values, refs and pending are indexed by instruction id. A worker reads
	// the values of its operands without the lock: each was stored under mu
	// before the worker's unit was made ready under mu, and is released only
	// once every consumer has completed.
	values     []value
	refs       []int32
	pending    []int32
	ready      chan int32 // parallel scheduler's queue of dispatchable units; nil otherwise
	remaining  int        // units not yet complete
	liveBytes  int
	liveValues int
	stats      RunStats
	firstErr   error
}

// hoistRun carries the shared state of one hoistable rotation set during a
// run: whichever member is scheduled first computes the whole batch with one
// shared decomposition (Evaluator.RotateHoisted) and parks the results; the
// remaining members pick theirs up without touching the backend.
type hoistRun struct {
	mu      sync.Mutex
	results map[int]*ckks.Ciphertext // by step; nil until the batch has run
}

// hoistedRotation returns the batch result for the rotation in, computing the
// batch on first use.
func (st *runState) hoistedRotation(in *compile.Instr, src *ckks.Ciphertext) (value, error) {
	set := &st.res.Hoists[in.Hoist]
	g := &st.hoists[in.Hoist]
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.results == nil {
		var deferred []bool
		if st.fuse {
			deferred = set.Deferred
		}
		batch, err := st.ctx.Evaluator.RotateHoisted(src, set.Steps, deferred)
		if err != nil {
			return value{}, err
		}
		g.results = batch
		for _, ct := range batch {
			st.countModDowns(ct)
		}
		st.mu.Lock()
		st.stats.HoistedBatches++
		st.stats.HoistedRotations += len(batch)
		st.mu.Unlock()
	}
	return value{ct: g.results[in.Rot], owned: !set.Shared[in.HoistPos]}, nil
}

// rotate is a rotation outside a hoisted batch: a batch of one when the
// compiler deferred its mod-down to its consumer (and the run fuses),
// Evaluator.RotateLeft otherwise.
func (st *runState) rotate(in *compile.Instr, src *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	ev := st.ctx.Evaluator
	if !st.fuse || !in.DeferModDown {
		ct, err := ev.RotateLeft(src, in.Rot)
		if err == nil {
			st.countModDowns(ct)
		}
		return ct, err
	}
	batch, err := ev.RotateHoisted(src, []int{in.Rot}, []bool{true})
	if err != nil {
		return nil, err
	}
	return batch[in.Rot], nil
}

// countModDowns counts the two mod-downs of a key switch that produced ct,
// unless ct defers them to its consumer.
func (st *runState) countModDowns(ct *ckks.Ciphertext) {
	if !ct.Deferred() {
		st.modDowns.Add(2)
	}
}

// finish mods down a result left over Q∪P unless the compiler left it there
// for its consumer (Instr.DeferModDown). It returns ct itself otherwise.
func (st *runState) finish(in *compile.Instr, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if !ct.Deferred() || in.DeferModDown {
		return ct, nil
	}
	ev := st.ctx.Evaluator
	out, err := ev.ModDown(ct)
	if err != nil {
		return nil, err
	}
	st.modDowns.Add(2)
	if st.recycle {
		ev.Recycle(ct)
	}
	return out, nil
}

// Run executes a compiled program on encrypted inputs using the CKKS backend.
// It is RunContext with a background context (no cancellation).
func Run(ctx *Context, res *compile.Result, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	return RunContext(context.Background(), ctx, res, in, opts)
}

// RunContext executes a compiled program on encrypted inputs using the CKKS
// backend. Cancelling stdctx stops the run promptly: workers finish the
// instruction they are evaluating (CKKS kernels are not interruptible
// mid-operation), start no new ones, and RunContext returns the context's
// error.
//
// The run executes res's instructions as compiled (see compile.Lower); the
// only state it shares with other runs of res is the plaintext cache. Input
// ciphertexts that break the program's input contract (compile.Result.Bind)
// are rejected with the first compile.Mismatch before anything runs.
func RunContext(stdctx context.Context, ctx *Context, res *compile.Result, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	args := make(map[string]compile.CipherArg, len(in.Cipher))
	for name, ct := range in.Cipher {
		args[name] = compile.CipherArg{Level: ct.Level, LogScale: math.Log2(ct.Scale), Width: res.Program.VecSize}
	}
	if _, mismatches := res.Bind(ctx.Params, args); len(mismatches) > 0 {
		return nil, fmt.Errorf("execute: %w", mismatches[0])
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Scheduler == SchedulerSequential {
		opts.Workers = 1
	}
	start := time.Now()
	n := len(res.Instrs)

	on := !opts.withoutPlanMechanisms
	// Every run offers its parameters to the cache, so the first one adopts
	// them whether or not it uses the cache (compile.PlanStatsOf's "has run").
	st := &runState{
		stdctx:    stdctx,
		ctx:       ctx,
		res:       res,
		in:        in,
		onInstr:   opts.OnInstruction,
		cache:     res.Cache.UsableWith(ctx.Params) && on,
		recycle:   on,
		fuse:      on,
		values:    make([]value, n),
		refs:      make([]int32, n),
		pending:   make([]int32, n),
		remaining: len(res.Units),
	}
	for i := range res.Instrs {
		st.refs[i], st.pending[i] = res.Instrs[i].Refs, res.Instrs[i].Pending
	}
	if !opts.DisableHoisting && len(res.Hoists) > 0 {
		st.hoists = make([]hoistRun, len(res.Hoists))
	}

	err := stdctx.Err()
	if err == nil {
		st.completeInvariants()
		switch opts.Scheduler {
		case SchedulerParallel, SchedulerSequential:
			err = runParallel(st, opts.Workers)
		case SchedulerBulkSynchronous:
			err = runBulkSynchronous(st, opts.Workers)
		default:
			err = fmt.Errorf("execute: unknown scheduler %d", opts.Scheduler)
		}
	}
	if err != nil {
		return nil, err
	}

	out := &Outputs{Cipher: map[string]*ckks.Ciphertext{}, Plain: map[string][]float64{}}
	for _, o := range res.Outputs {
		if res.Instrs[o.ID].Invariant {
			v, err := invariantValue(res, o.ID)
			if err != nil {
				return nil, err
			}
			// The cached copy is shared between runs; the caller gets its own.
			out.Plain[o.Name] = append([]float64(nil), v...)
			continue
		}
		switch v := st.values[o.ID]; {
		case v.ct != nil:
			out.Cipher[o.Name] = v.ct
		case v.plain != nil:
			out.Plain[o.Name] = v.plain
		default:
			return nil, fmt.Errorf("execute: output %q was never computed", o.Name)
		}
	}
	st.stats.PlainCacheHits, st.stats.PlainCacheMisses = int(st.cacheHits.Load()), int(st.cacheMisses.Load())
	st.stats.ModDowns = int(st.modDowns.Load())
	st.stats.FusedRescales = int(st.fusedRescales.Load())
	st.stats.Instructions = n
	st.stats.Workers = opts.Workers
	st.stats.WallTime = time.Since(start)
	out.Stats = st.stats
	return out, nil
}

// completeInvariants is the run's prologue: the run-invariant instructions
// need no evaluation — consumers read their values and encodings from the
// cache — so they complete here, before anything is dispatched, each with its
// profiler record like any other instruction.
func (st *runState) completeInvariants() {
	st.mu.Lock()
	defer st.mu.Unlock()
	vb := 8 * st.res.Program.VecSize
	for _, id := range st.res.Invariants {
		in := &st.res.Instrs[id]
		if st.onInstr != nil {
			st.onInstr(in.Term, InstrRecord{
				ID:           id,
				Level:        -1,
				OutBytes:     vb,
				OperandBytes: vb * len(in.Parms),
				Operands:     len(in.Parms),
			})
		}
	}
}

// invariantValue returns the value of a run-invariant instruction. It is
// shared between runs: callers must not modify it.
func invariantValue(res *compile.Result, id int32) ([]float64, error) {
	in := &res.Instrs[id]
	if in.Term.Op == core.OpConstant {
		// Replicating a constant is cheaper than remembering it.
		return Replicate(in.Term.Value, res.Program.VecSize), nil
	}
	if v := res.Cache.Value(id); v != nil {
		return v, nil
	}
	var args [2][]float64
	for slot, q := range in.Parms {
		a, err := invariantValue(res, q)
		if err != nil {
			return nil, err
		}
		args[slot] = a
	}
	v, err := plainOp(in.Term, args[0], args[1])
	if err != nil {
		return nil, err
	}
	res.Cache.KeepValue(id, v)
	return v, nil
}

// runParallel is EVA's asynchronous DAG scheduler: a pool of workers consumes
// a ready queue; finishing a unit may make its dependants ready.
func runParallel(st *runState, workers int) error {
	units := st.res.Units
	if len(units) == 0 {
		return nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	// Every unit is enqueued exactly once, so the queue never blocks a sender.
	st.ready = make(chan int32, len(units))
	for _, id := range units {
		if st.pending[id] == 0 {
			st.ready <- id
		}
	}

	done := make(chan struct{})
	var closeDone sync.Once
	fail := func(err error) {
		st.setErr(err)
		closeDone.Do(func() { close(done) })
	}
	var wg sync.WaitGroup
	cancelled := st.stdctx.Done()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-cancelled:
					fail(st.stdctx.Err())
					return
				case id, ok := <-st.ready:
					if !ok {
						return
					}
					// Re-check cancellation before starting work: the ready
					// branch may win the select race after cancellation.
					select {
					case <-cancelled:
						fail(st.stdctx.Err())
						return
					default:
					}
					if err := st.runUnit(id); err != nil {
						fail(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	return st.firstErr
}

// runBulkSynchronous executes the program kernel by kernel: the units of each
// kernel are processed in waves of ready instructions with a barrier after
// every wave, which is how a statically parallelized kernel library behaves.
func runBulkSynchronous(st *runState, workers int) error {
	for _, group := range st.res.Kernels {
		remaining := group
		for len(remaining) > 0 {
			if err := st.stdctx.Err(); err != nil {
				return err
			}
			var wave, next []int32
			for _, id := range remaining {
				if st.pending[id] == 0 {
					wave = append(wave, id)
				} else {
					next = append(next, id)
				}
			}
			if len(wave) == 0 {
				return fmt.Errorf("execute: bulk-synchronous scheduler is stuck (cross-kernel dependency cycle)")
			}
			if err := parallelFor(wave, workers, func(id int32) error {
				if err := st.stdctx.Err(); err != nil {
					return err
				}
				return st.runUnit(id)
			}); err != nil {
				return err
			}
			remaining = next
		}
	}
	return st.firstErr
}

func parallelFor(items []int32, workers int, f func(int32) error) error {
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for _, id := range items {
			if err := f(id); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	work := make(chan int32, len(items))
	for _, id := range items {
		work <- id
	}
	close(work)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := range work {
				if err := f(id); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

func (st *runState) setErr(err error) {
	st.mu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.mu.Unlock()
}

// runUnit evaluates one dispatched unit: a single instruction, or a whole
// fused chain when id is a chain's root.
func (st *runState) runUnit(id int32) (err error) {
	// The backend assumes well-shaped operands; inputs from untrusted wire
	// formats are validated before they get here, but a panic in a worker
	// goroutine would otherwise kill the whole process, so convert any slip
	// into an ordinary execution error (defense in depth for evaserve).
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("execute: panic evaluating %s: %v", st.res.Instrs[id].Term, r)
		}
	}()
	ch := st.res.Instrs[id].Chain
	if ch == nil {
		return st.evalAndStore(id)
	}
	if st.fuse {
		start := time.Now()
		if ct := st.evalChain(ch); ct != nil {
			st.completeChain(ch, ct, time.Since(start))
			return nil
		}
	}
	// Unfused (the tests' switch), or the fused kernel refused the operands:
	// evaluate the members one at a time, which also reproduces exactly the
	// error an unfused run reports.
	for _, m := range ch.Members {
		if err := st.evalAndStore(m); err != nil {
			return err
		}
	}
	return nil
}

// evalAndStore computes the value of one instruction, stores it, and releases
// operand values whose last use this was (the executor's memory reuse).
func (st *runState) evalAndStore(id int32) error {
	in := &st.res.Instrs[id]
	start := time.Now()
	v, err := st.eval(in)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	st.mu.Lock()
	st.storeLocked(id, v)
	st.recordLocked(id, elapsed, v, v.bytes(), false)
	st.finishLocked(in)
	st.mu.Unlock()
	return nil
}

// completeChain completes every member of a chain that evaluated fused to ct:
// only the root has a value, but each member still gets its profiler record
// and operand release, so a fused run reports the same instructions as an
// unfused one.
func (st *runState) completeChain(ch *compile.FusedChain, ct *ckks.Ciphertext, elapsed time.Duration) {
	v := value{ct: ct, owned: true}
	vb := v.bytes()
	root := ch.Members[len(ch.Members)-1]
	st.mu.Lock()
	st.storeLocked(root, v)
	for k, m := range ch.Members {
		st.recordLocked(m, time.Duration(float64(elapsed)*ch.Weights[k]), v, vb, true)
		st.finishLocked(&st.res.Instrs[m])
	}
	st.stats.FusedChains++
	st.stats.FusedTerms += len(ch.Members)
	st.mu.Unlock()
}

func (st *runState) storeLocked(id int32, v value) {
	st.values[id] = v
	st.liveBytes += v.bytes()
	st.liveValues++
	if st.liveBytes > st.stats.PeakLiveBytes {
		st.stats.PeakLiveBytes = st.liveBytes
	}
	if st.liveValues > st.stats.PeakLiveValues {
		st.stats.PeakLiveValues = st.liveValues
	}
}

// recordLocked emits instruction id's record when a profiler is attached. v
// is the instruction's result — for a fused member, its chain's. It must run
// before finishLocked, which releases the operands whose footprints the
// record reads.
func (st *runState) recordLocked(id int32, wall time.Duration, v value, vb int, fused bool) {
	if st.onInstr == nil {
		return
	}
	in := &st.res.Instrs[id]
	rec := InstrRecord{
		ID:       id,
		Wall:     wall,
		Level:    -1,
		OutBytes: vb,
		Operands: len(in.Parms),
		Hoisted:  st.hoists != nil && in.Hoist >= 0,
		Fused:    fused,
	}
	if v.ct != nil {
		rec.Cipher = true
		rec.Level = v.ct.Level
		rec.Scale = v.ct.Scale
	}
	for _, q := range in.Parms {
		switch parm := st.values[q]; {
		case parm.ct != nil || parm.plain != nil:
			rec.OperandBytes += parm.bytes()
		case st.res.Instrs[q].Invariant:
			rec.OperandBytes += 8 * st.res.Program.VecSize
		default:
			// An absorbed member of this fused chain: never materialised,
			// but it would have had the footprint of the chain's result.
			rec.OperandBytes += vb
		}
	}
	// Invoked under st.mu so calls are serialized; the callback contract
	// requires it to be fast.
	st.onInstr(in.Term, rec)
}

// finishLocked retires one completed instruction: it releases the operands
// whose uses are all satisfied (one reference per (child, slot) edge this
// instruction consumed), recycling the ciphertexts the run owns, and — when
// the instruction is a unit of the schedule — tells its dependants.
func (st *runState) finishLocked(in *compile.Instr) {
	for _, q := range in.Parms {
		st.refs[q]--
		if st.refs[q] != 0 {
			continue
		}
		old := st.values[q]
		if old.ct == nil && old.plain == nil {
			continue // run-invariant, or absorbed into a fused chain
		}
		st.liveBytes -= old.bytes()
		st.liveValues--
		st.values[q] = value{}
		st.stats.ReusedValues++
		if old.owned && st.recycle {
			st.stats.RecycledBuffers += len(old.ct.Value) + len(old.ct.ValueP)
			st.ctx.Evaluator.Recycle(old.ct)
		}
	}
	if in.Absorbed {
		return
	}
	for _, c := range in.Children {
		st.pending[c]--
		if st.pending[c] == 0 && st.ready != nil {
			st.ready <- c
		}
	}
	st.remaining--
	if st.remaining == 0 && st.ready != nil {
		close(st.ready)
	}
}

// operand returns the computed value of an instruction's operand.
func (st *runState) operand(in *compile.Instr, slot int) (value, error) {
	q := in.Parms[slot]
	if st.res.Instrs[q].Invariant {
		v, err := invariantValue(st.res, q)
		return value{plain: v}, err
	}
	v := st.values[q]
	if v.ct == nil && v.plain == nil {
		return v, fmt.Errorf("execute: operand %s not available (scheduling bug or released too early)", st.res.Instrs[q].Term)
	}
	return v, nil
}

// plaintext encodes the plain operand q at a level and scale, extended over
// the special primes when it multiplies a deferred ciphertext. A run-invariant
// operand comes from the program's cache when it can — encoded on the first run
// that needs it there, never ahead of time.
func (st *runState) plaintext(q int32, level int, scale float64, extended bool) (*ckks.Plaintext, error) {
	invariant := st.res.Instrs[q].Invariant
	cached := st.cache && invariant
	key := compile.PlainKey{ID: q, Level: level, Scale: scale, Extended: extended}
	if cached {
		if pt := st.res.Cache.Plaintext(key); pt != nil {
			st.cacheHits.Add(1)
			return pt, nil
		}
	}
	plain := st.values[q].plain
	if invariant {
		st.cacheMisses.Add(1)
		var err error
		if plain, err = invariantValue(st.res, q); err != nil {
			return nil, err
		}
	}
	encode := st.ctx.Encoder.Encode
	if extended {
		encode = st.ctx.Encoder.EncodeExtended
	}
	pt, err := encode(plain, scale, level)
	if err != nil {
		return nil, err
	}
	if cached {
		pt = st.res.Cache.KeepPlaintext(key, pt)
	}
	return pt, nil
}

// evalChain evaluates a fused chain as one multiply-accumulate, whose sum
// stays over Q∪P when a leaf is deferred, and mods that sum down unless the
// chain's root defers it too. It returns nil when the backend refuses the
// operands (mixed levels or degrees, mismatched scales); the caller then
// evaluates the chain's members one by one.
func (st *runState) evalChain(ch *compile.FusedChain) *ckks.Ciphertext {
	cts := make([]*ckks.Ciphertext, len(ch.Products))
	pts := make([]*ckks.Plaintext, len(ch.Products))
	for i, pr := range ch.Products {
		ct := st.values[pr.Ct].ct
		if ct == nil {
			return nil
		}
		pt, err := st.plaintext(pr.Plain, ct.Level, math.Exp2(st.res.Instrs[pr.Plain].LogScale), ct.Deferred())
		if err != nil {
			return nil
		}
		cts[i], pts[i] = ct, pt
	}
	out, err := st.ctx.Evaluator.MulPlainAccumulate(cts, pts)
	if err != nil {
		return nil
	}
	if out, err = st.finish(&st.res.Instrs[ch.Members[len(ch.Members)-1]], out); err != nil {
		return nil
	}
	return out
}

// eval dispatches one instruction to the CKKS evaluator (for ciphertext
// values) or to plain vector arithmetic (for unencrypted values).
func (st *runState) eval(in *compile.Instr) (value, error) {
	t := in.Term
	if t.Op == core.OpInput {
		if ct, ok := st.in.Cipher[t.Name]; ok {
			return value{ct: ct}, nil
		}
		if pv, ok := st.in.Plain[t.Name]; ok {
			return value{plain: pv}, nil
		}
		return value{}, fmt.Errorf("execute: no value supplied for input %q", t.Name)
	}
	var a, b value
	var err error
	if len(in.Parms) > 0 {
		if a, err = st.operand(in, 0); err != nil {
			return value{}, err
		}
	}
	if len(in.Parms) > 1 {
		if b, err = st.operand(in, 1); err != nil {
			return value{}, err
		}
	}
	if a.ct == nil && b.ct == nil {
		plain, err := plainOp(t, a.plain, b.plain)
		return value{plain: plain}, err
	}

	ev := st.ctx.Evaluator
	var ct *ckks.Ciphertext
	switch t.Op {
	case core.OpNegate:
		ct, err = ev.Negate(a.ct)
	case core.OpAdd, core.OpSub, core.OpMultiply:
		ct, err = st.evalBinary(in, a, b)
	case core.OpRotateLeft, core.OpRotateRight:
		if st.hoists != nil && in.Hoist >= 0 {
			return st.hoistedRotation(in, a.ct)
		}
		ct, err = st.rotate(in, a.ct)
	case core.OpRelinearize:
		if in.DeferModDown && st.fuse {
			ct, err = ev.RelinearizeDeferred(a.ct)
		} else if ct, err = ev.Relinearize(a.ct); err == nil && a.ct.Degree() == 2 {
			st.modDowns.Add(2)
		}
	case core.OpModSwitch:
		ct, err = ev.ModSwitch(a.ct)
	case core.OpRescale:
		ct, err = ev.Rescale(a.ct)
		if err == nil && a.ct.Deferred() {
			st.fusedRescales.Add(1)
		}
	default:
		err = fmt.Errorf("execute: unsupported opcode %s", t.Op)
	}
	if err != nil {
		return value{}, err
	}
	return value{ct: ct, owned: true}, nil
}

// evalBinary evaluates ADD, SUB or MULTIPLY with at least one ciphertext
// operand.
func (st *runState) evalBinary(in *compile.Instr, a, b value) (*ckks.Ciphertext, error) {
	t := in.Term
	ev := st.ctx.Evaluator

	// Cipher-cipher uses the homomorphic evaluator directly. A sum with an
	// operand left over Q∪P stays there too, until finish mods it down.
	if a.ct != nil && b.ct != nil {
		switch t.Op {
		case core.OpAdd, core.OpSub:
			op := ev.Add
			if t.Op == core.OpSub {
				op = ev.Sub
			}
			ct, err := op(a.ct, b.ct)
			if err != nil {
				return nil, err
			}
			return st.finish(in, ct)
		default:
			return ev.Mul(a.ct, b.ct)
		}
	}

	// Mixed cipher-plain: encode the plain operand at the ciphertext's level,
	// at the scale the compiler assigned to the plain term (for products) or
	// at the ciphertext's own scale (for sums, to satisfy Constraint 2 exactly).
	ct, plainSlot := a.ct, 1
	if ct == nil {
		ct, plainSlot = b.ct, 0
	}
	q := in.Parms[plainSlot]
	scale := ct.Scale
	if t.Op == core.OpMultiply {
		scale = math.Exp2(st.res.Instrs[q].LogScale)
	}
	pt, err := st.plaintext(q, ct.Level, scale, false)
	if err != nil {
		return nil, fmt.Errorf("execute: encoding plain operand of %s: %w", t, err)
	}
	var out *ckks.Ciphertext
	switch {
	case t.Op == core.OpAdd:
		out, err = ev.AddPlain(ct, pt)
	case t.Op == core.OpMultiply:
		out, err = ev.MulPlain(ct, pt)
	case plainSlot == 1:
		out, err = ev.SubPlain(ct, pt)
	default:
		// plain - cipher = -(cipher) + plain.
		var neg *ckks.Ciphertext
		if neg, err = ev.Negate(ct); err != nil {
			return nil, err
		}
		out, err = ev.AddPlain(neg, pt)
		if st.recycle {
			ev.Recycle(neg)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("execute: %s: %w", t, err)
	}
	return out, nil
}
