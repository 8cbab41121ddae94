package ring

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file implements the package-level bounded worker pool that every
// limb-parallel ring operation fans out on. The RNS representation makes the
// limbs of a polynomial fully independent, so the NTT, the element-wise
// operations, and the automorphisms all decompose into per-limb tasks; the
// CKKS layer additionally fans the per-Galois-element inner products of a
// hoisted rotation batch, and the switching-key digits of key generation
// (each drawn from its own seed), across the same pool.
//
// The pool is a semaphore, not a set of persistent goroutines: Parallel
// spawns up to Workers()-1 helpers per call, but only when a slot is free.
// When the pool is saturated — including when calls nest, as they do when a
// hoisted batch's per-element tasks or a key's digits run limb-parallel
// transforms — the caller simply executes the remaining work inline.
// Acquisition never blocks, so nesting cannot deadlock and the total helper
// count stays bounded no matter how many evaluator goroutines call in
// concurrently.

var (
	poolMu   sync.RWMutex
	poolSize int
	poolSem  chan struct{}
)

func init() {
	setWorkersLocked(runtime.GOMAXPROCS(0))
}

func setWorkersLocked(n int) {
	poolSize = n
	poolSem = make(chan struct{}, n-1)
}

// Workers returns the current size of the ring worker pool.
func Workers() int {
	size, _ := pool()
	return size
}

// SetWorkers bounds the number of goroutines the ring layer may run
// concurrently. n <= 0 resets the pool to GOMAXPROCS, the size evaserve
// runs with. Safe to call at any time: operations already in flight keep
// the semaphore they started with and drain into it.
func SetWorkers(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	poolMu.Lock()
	setWorkersLocked(n)
	poolMu.Unlock()
}

// Parallel runs f(0), ..., f(n-1), fanning the indices across up to
// Workers() goroutines (the caller counts as one and always participates).
// Indices are handed out by an atomic counter, so uneven task costs balance
// across workers. A panic in any task is re-raised on the calling goroutine
// after all tasks finish, preserving the recover-based error handling of
// callers like the executor.
func Parallel(n int, f func(int)) {
	if n <= 0 {
		return
	}
	size, sem := pool()
	if n == 1 || size <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}

	var (
		next atomic.Int64
		wg   sync.WaitGroup
		p    panicSlot
	)
	run := func() {
		defer p.catch()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	spawn(sem, min(size-1, n-1), &wg, run)
	run()
	wg.Wait()
	p.raise()
}

// pool returns the current pool size and semaphore.
func pool() (int, chan struct{}) {
	poolMu.RLock()
	defer poolMu.RUnlock()
	return poolSize, poolSem
}

// spawn starts up to want helper goroutines running body, one per free pool
// slot. Acquisition never blocks: when the pool is saturated (typically a
// nested call) the caller absorbs the work.
func spawn(sem chan struct{}, want int, wg *sync.WaitGroup, body func()) {
	for range want {
		select {
		case sem <- struct{}{}:
			wg.Add(1)
			go func() {
				defer func() {
					<-sem
					wg.Done()
				}()
				body()
			}()
		default:
			return
		}
	}
}

// panicSlot keeps the first panic raised by any of a call's goroutines.
type panicSlot struct {
	once sync.Once
	val  any
}

// catch must be deferred directly; it records a panic instead of unwinding.
func (p *panicSlot) catch() {
	if r := recover(); r != nil {
		p.once.Do(func() { p.val = r })
	}
}

// raise re-raises the recorded panic, if any. Call it after every goroutine
// that may record one has returned.
func (p *panicSlot) raise() {
	if p.val != nil {
		panic(p.val)
	}
}

// parallelMinDegree gates per-limb parallelism: rings below this degree do
// too little work per limb to amortize a goroutine handoff, so they run
// serial (which also keeps the steady-state allocation profile of small test
// rings flat).
const parallelMinDegree = 1 << 12

// limbsParallel reports whether an operation over this many limbs should fan
// out on the worker pool. Callers branch on it *before* building the closure
// they would hand to Parallel, so the serial small-ring path stays
// allocation-free (escaping closures are heap-allocated even if never run in
// parallel).
func (r *Ring) limbsParallel(limbs int) bool { return parallelLimbs(r.N, limbs) }

// parallelLimbs is limbsParallel for code that works on raw limbs of length n
// rather than on a Ring's polynomials.
func parallelLimbs(n, limbs int) bool {
	return limbs > 1 && n >= parallelMinDegree && Workers() > 1
}
