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
	// OnInstruction, when non-nil, is called once per instruction of the
	// compiled program (len(res.Instrs) calls in all) as it completes, with
	// the term and its measured record — the run's only observer, so a
	// counter in it is the run's progress. Calls are serialized under the
	// run's lock but may come from any worker goroutine; the callback must be
	// fast and must not call back into the executor. Hoisted batches are
	// counted in the Outputs' RunStats.
	OnInstruction func(t *core.Term, rec InstrRecord)

	// withoutPlanMechanisms is the differential tests' switch, for running
	// compile.Result.Reference: the run encodes every constant itself and
	// allocates every result fresh.
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
	// queueing). The members of a unit that runs as one backend call — a
	// hoisted rotation batch, a fused chain — split the unit's wall in
	// proportion to their compile.Result.InstrUnits, so their walls sum to
	// the unit's.
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

	// The run's two mechanisms, each of which it may have to do without:
	// cache (the context's parameters match the cached encodings) and
	// recycle (off only under the tests' switch).
	cache, recycle bool

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
}

// finish mods down a result left over Q∪P unless the compiler left it there
// for its consumer (compile.BasisQP). It returns ct itself otherwise.
func (st *runState) finish(in *compile.Instr, ct *ckks.Ciphertext) (*ckks.Ciphertext, error) {
	if !ct.Deferred() || in.Basis == compile.BasisQP {
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
		args[name] = compile.CipherArg{Level: ct.Level, LogScale: math.Log2(ct.Scale), Width: res.VecSize}
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
		values:    make([]value, n),
		refs:      make([]int32, n),
		pending:   make([]int32, n),
		remaining: len(res.Units),
	}
	for i := range res.Instrs {
		st.refs[i], st.pending[i] = res.Instrs[i].Refs, res.Instrs[i].Pending
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
			v, err := st.invariant(o.ID)
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
	if st.onInstr == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	vb := 8 * st.res.VecSize
	for _, id := range st.res.Invariants {
		in := &st.res.Instrs[id]
		st.onInstr(in.Term, InstrRecord{ID: id, Level: -1, OutBytes: vb, OperandBytes: vb * len(in.Parms), Operands: len(in.Parms)})
	}
}

// invariant returns the value of a run-invariant instruction: computed once
// for every run of the program when the run uses the cache, and at each use
// otherwise. It may be shared between runs: callers must not modify it.
func (st *runState) invariant(id int32) ([]float64, error) {
	res := st.res
	in := &res.Instrs[id]
	if in.Value != nil {
		// Replicating a constant is cheaper than remembering it.
		return Replicate(in.Value, res.VecSize), nil
	}
	if st.cache {
		if v := res.Cache.Value(id); v != nil {
			return v, nil
		}
	}
	var args [2][]float64
	for slot, q := range in.Parms {
		a, err := st.invariant(q)
		if err != nil {
			return nil, err
		}
		args[slot] = a
	}
	v, err := plainOp(in.Op, in.Rot, args[0], args[1])
	if err != nil {
		return nil, err
	}
	if st.cache {
		res.Cache.KeepValue(id, v)
	}
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
	var failed sync.Once
	var firstErr error
	fail := func(err error) {
		failed.Do(func() { firstErr = err; close(done) })
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
	return firstErr
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
	return nil
}

// parallelFor calls f on every item from up to workers goroutines, each
// taking the next item until one fails; it returns the first error.
func parallelFor(items []int32, workers int, f func(int32) error) error {
	var next atomic.Int64
	var failed sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for range min(workers, len(items)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(items)); i = next.Add(1) - 1 {
				if err := f(items[i]); err != nil {
					failed.Do(func() { firstErr = err })
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// runUnit evaluates one dispatched unit: a single instruction, a whole fused
// chain at its root or a whole hoist set at its first member.
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
	in := &st.res.Instrs[id]
	switch {
	case in.Chain != nil:
		return st.runChain(in.Chain)
	case in.Hoist >= 0:
		return st.runHoist(&st.res.Hoists[in.Hoist])
	}
	return st.evalAndStore(id)
}

// runHoist evaluates a hoist set as one batch sharing one decomposition
// (Evaluator.RotateHoisted) and stores every member's value.
func (st *runState) runHoist(set *compile.HoistSet) error {
	src, err := st.operand(st.res.Instrs[set.Members[0]].Parms[0])
	if err != nil {
		return err
	}
	start := time.Now()
	batch, err := st.ctx.Evaluator.RotateHoisted(src.ct, set.Steps, set.Deferred)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	for _, ct := range batch {
		if !ct.Deferred() {
			st.modDowns.Add(2) // one per component
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	// Every member's value is stored before the first member, the unit,
	// releases its dependants.
	for k, m := range set.Members {
		st.storeLocked(m, value{ct: batch[set.Steps[k]], owned: !set.Shared[k]})
	}
	st.retireUnitLocked(set.Members, wall, nil)
	st.stats.HoistedBatches++
	st.stats.HoistedRotations += len(batch)
	return nil
}

// runChain evaluates a fused chain as one multiply-accumulate and completes
// every member: only the root has a value, but each member still gets its
// profiler record and operand release, so a fused run reports the same
// instructions as an unfused one.
func (st *runState) runChain(ch *compile.FusedChain) error {
	start := time.Now()
	ct, err := st.evalChain(ch)
	if err != nil {
		return err
	}
	wall := time.Since(start)
	v := value{ct: ct, owned: true}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.storeLocked(ch.Members[len(ch.Members)-1], v)
	st.retireUnitLocked(ch.Members, wall, &v)
	st.stats.FusedChains++
	st.stats.FusedTerms += len(ch.Members)
	return nil
}

// retireUnitLocked records and retires the members of a unit that ran as one
// backend call. The records split the unit's wall in proportion to the
// members' InstrUnits, the last member taking the rounding, so they sum to
// wall; a fused chain's members all report its result, chain.
func (st *runState) retireUnitLocked(members []int32, wall time.Duration, chain *value) {
	if st.onInstr != nil {
		units := make([]float64, len(members))
		total := 0.0
		for k, m := range members {
			units[k] = st.res.InstrUnits(m)
			total += units[k]
		}
		rest := wall
		for k, m := range members {
			share := rest
			if k < len(members)-1 {
				share = time.Duration(float64(wall) * units[k] / total)
				rest -= share
			}
			v := st.values[m]
			if chain != nil {
				v = *chain
			}
			st.recordLocked(m, share, v, chain != nil)
		}
	}
	for _, m := range members {
		st.finishLocked(&st.res.Instrs[m])
	}
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
	st.recordLocked(id, elapsed, v, false)
	st.finishLocked(in)
	st.mu.Unlock()
	return nil
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
func (st *runState) recordLocked(id int32, wall time.Duration, v value, fused bool) {
	if st.onInstr == nil {
		return
	}
	in := &st.res.Instrs[id]
	vb := v.bytes()
	rec := InstrRecord{
		ID:       id,
		Wall:     wall,
		Level:    -1,
		OutBytes: vb,
		Operands: len(in.Parms),
		Hoisted:  in.Hoist >= 0,
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
			rec.OperandBytes += 8 * st.res.VecSize
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

// operand returns the computed value of instruction q, an operand.
func (st *runState) operand(q int32) (value, error) {
	if st.res.Instrs[q].Invariant {
		v, err := st.invariant(q)
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
		if plain, err = st.invariant(q); err != nil {
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
// chain's root defers it too.
func (st *runState) evalChain(ch *compile.FusedChain) (*ckks.Ciphertext, error) {
	root := &st.res.Instrs[ch.Members[len(ch.Members)-1]]
	cts := make([]*ckks.Ciphertext, len(ch.Products))
	pts := make([]*ckks.Plaintext, len(ch.Products))
	for i, pr := range ch.Products {
		v, err := st.operand(pr.Ct)
		if err != nil {
			return nil, err
		}
		ct := v.ct
		pt, err := st.plaintext(pr.Plain, ct.Level, math.Exp2(st.res.Instrs[pr.Plain].LogScale), ct.Deferred())
		if err != nil {
			return nil, fmt.Errorf("execute: encoding plain operand of %s: %w", root.Term, err)
		}
		cts[i], pts[i] = ct, pt
	}
	out, err := st.ctx.Evaluator.MulPlainAccumulate(cts, pts)
	if err != nil {
		return nil, fmt.Errorf("execute: %s: %w", root.Term, err)
	}
	return st.finish(root, out)
}

// eval makes the backend call of one instruction (compile.Kind): a CKKS
// evaluator call for a ciphertext, plain vector arithmetic otherwise.
func (st *runState) eval(in *compile.Instr) (value, error) {
	if in.Kind == compile.KindInput {
		if ct, ok := st.in.Cipher[in.Name]; ok {
			return value{ct: ct}, nil
		}
		if pv, ok := st.in.Plain[in.Name]; ok {
			return value{plain: pv}, nil
		}
		return value{}, fmt.Errorf("execute: no value supplied for input %q", in.Name)
	}
	var ops [2]value
	var err error
	for slot, q := range in.Parms {
		if ops[slot], err = st.operand(q); err != nil {
			return value{}, err
		}
	}
	a, b := ops[0], ops[1]

	ev := st.ctx.Evaluator
	var ct *ckks.Ciphertext
	switch in.Kind {
	case compile.KindPlain:
		plain, err := plainOp(in.Op, in.Rot, a.plain, b.plain)
		return value{plain: plain}, err
	case compile.KindNegate:
		ct, err = ev.Negate(a.ct)
	case compile.KindAdd, compile.KindSub:
		// A sum with an operand left over Q∪P stays there too, until finish
		// mods it down.
		op := ev.Add
		if in.Kind == compile.KindSub {
			op = ev.Sub
		}
		if ct, err = op(a.ct, b.ct); err == nil {
			ct, err = st.finish(in, ct)
		}
	case compile.KindMul:
		ct, err = ev.Mul(a.ct, b.ct)
	case compile.KindAddPlain, compile.KindPlainAdd, compile.KindSubPlain, compile.KindPlainSub, compile.KindMulPlain, compile.KindPlainMul:
		ct, err = st.evalPlain(in, a, b)
	case compile.KindRotate:
		if ct, err = ev.RotateLeft(a.ct, in.Rot); err == nil && !ct.Deferred() {
			st.modDowns.Add(2)
		}
	case compile.KindRotateQP:
		var batch map[int]*ckks.Ciphertext
		if batch, err = ev.RotateHoisted(a.ct, []int{in.Rot}, []bool{true}); err == nil {
			ct = batch[in.Rot]
		}
	case compile.KindRelinearize:
		if ct, err = ev.Relinearize(a.ct); err == nil && a.ct.Degree() == 2 {
			st.modDowns.Add(2)
		}
	case compile.KindRelinearizeQP:
		ct, err = ev.RelinearizeDeferred(a.ct)
	case compile.KindModSwitch:
		ct, err = ev.ModSwitch(a.ct)
	case compile.KindRescale, compile.KindRescaleQP:
		ct, err = ev.Rescale(a.ct)
		if err == nil && a.ct.Deferred() {
			st.fusedRescales.Add(1)
		}
	default:
		err = fmt.Errorf("execute: %s has kind %d, which no run evaluates", in.Term, in.Kind)
	}
	if err != nil {
		return value{}, err
	}
	return value{ct: ct, owned: true}, nil
}

// evalPlain evaluates a cipher-plain kind: it encodes the plain operand at
// the ciphertext's level, at the scale the compiler assigned to the plain
// term for a product or at the ciphertext's own scale for a sum (to satisfy
// Constraint 2 exactly).
func (st *runState) evalPlain(in *compile.Instr, a, b value) (*ckks.Ciphertext, error) {
	ct, q := a.ct, in.Parms[1]
	if in.Kind.PlainSlot() == 0 {
		ct, q = b.ct, in.Parms[0]
	}
	ev := st.ctx.Evaluator
	mul := in.Kind == compile.KindMulPlain || in.Kind == compile.KindPlainMul
	scale := ct.Scale
	if mul {
		scale = math.Exp2(st.res.Instrs[q].LogScale)
	}
	pt, err := st.plaintext(q, ct.Level, scale, false)
	if err != nil {
		return nil, fmt.Errorf("execute: encoding plain operand of %s: %w", in.Term, err)
	}
	var out *ckks.Ciphertext
	switch {
	case mul:
		out, err = ev.MulPlain(ct, pt)
	case in.Kind == compile.KindSubPlain:
		out, err = ev.SubPlain(ct, pt)
	case in.Kind == compile.KindPlainSub:
		// plain - cipher = -(cipher) + plain.
		var neg *ckks.Ciphertext
		if neg, err = ev.Negate(ct); err != nil {
			return nil, err
		}
		out, err = ev.AddPlain(neg, pt)
		if st.recycle {
			ev.Recycle(neg)
		}
	default:
		out, err = ev.AddPlain(ct, pt)
	}
	if err != nil {
		return nil, fmt.Errorf("execute: %s: %w", in.Term, err)
	}
	return out, nil
}
