package compile

import (
	"runtime"
	"sync"
	"sync/atomic"

	"eva/internal/ckks"
)

// planCacheBudget bounds the bytes the plaintext caches of all compiled
// programs of the process may hold together. A cache that cannot reserve room
// for an entry simply does not keep it — the constant is encoded again on the
// next run — so a full budget costs time, never correctness, and nothing is
// ever evicted to make room.
var planCacheBudget struct {
	limit, used atomic.Int64
}

// defaultPlanCacheBudget is the budget until SetPlanCacheBudget changes it.
const defaultPlanCacheBudget = 512 << 20

func init() { planCacheBudget.limit.Store(defaultPlanCacheBudget) }

// SetPlanCacheBudget sets the process-wide byte budget of the compiled
// programs' plaintext caches; 0 turns caching off. Entries already cached stay
// until their program is released.
func SetPlanCacheBudget(bytes int64) { planCacheBudget.limit.Store(max(bytes, 0)) }

// PlanCacheBudget returns the bytes the caches hold and may hold.
func PlanCacheBudget() (used, limit int64) {
	return planCacheBudget.used.Load(), planCacheBudget.limit.Load()
}

func reservePlanBytes(n int64) bool {
	limit := planCacheBudget.limit.Load()
	for {
		used := planCacheBudget.used.Load()
		if used+n > limit {
			return false
		}
		if planCacheBudget.used.CompareAndSwap(used, used+n) {
			return true
		}
	}
}

// PlainCache memoises the encodings of a compiled program's run-invariant
// plain values, keyed by the (level, scale) a consumer needs them at, and the
// values themselves where they are not bare constants. It is the one part of
// a Result that changes after compilation, and it starts empty: entries are
// made by the runs that need them. An encoding depends only on the public
// encryption parameters — never on a key — and those are a deterministic
// function of the Result, so one cache serves every context of the program. It
// holds program constants only (which the server already sees in the clear);
// request inputs never enter it.
type PlainCache struct {
	mu sync.RWMutex
	// params are the parameters the held encodings were made under: those of
	// the first context that ran the program. A context with different ones
	// bypasses the cache.
	params   *ckks.Parameters
	pts      map[PlainKey]*ckks.Plaintext
	values   map[int32][]float64
	held     *atomic.Int64 // bytes reserved from the budget for pts and values
	released bool
}

// PlainKey identifies one encoding of an invariant instruction's value.
// Extended encodings (ckks.Encoder.EncodeExtended) also hold the special
// primes, for products with a value left over Q∪P (BasisQP).
type PlainKey struct {
	ID       int32
	Level    int
	Scale    float64
	Extended bool
}

func newPlainCache() *PlainCache {
	c := &PlainCache{held: new(atomic.Int64)}
	// A program dropped without ReleasePlan (nothing outside a server
	// releases) must not leave its cached bytes counted against the budget
	// for good. The counter is its own allocation because a cleanup's
	// argument may not keep the object it watches reachable.
	runtime.AddCleanup(c, func(held *atomic.Int64) { planCacheBudget.used.Add(-held.Swap(0)) }, c.held)
	return c
}

// UsableWith reports whether a context with these parameters may use the
// cache, adopting them if the cache is still empty-handed.
func (c *PlainCache) UsableWith(params *ckks.Parameters) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.released {
		return false
	}
	if c.params == nil {
		c.params = params
	}
	return c.params == params || c.params.Equal(params)
}

// Plaintext returns the cached encoding for key, or nil.
func (c *PlainCache) Plaintext(key PlainKey) *ckks.Plaintext {
	c.mu.RLock()
	pt := c.pts[key]
	c.mu.RUnlock()
	return pt
}

// KeepPlaintext offers an encoding to the cache and returns the one to use:
// pt itself, or the entry a concurrent run stored first.
func (c *PlainCache) KeepPlaintext(key PlainKey, pt *ckks.Plaintext) *ckks.Plaintext {
	size := int64(8 * len(pt.Value.Coeffs) * len(pt.Value.Coeffs[0]))
	if pt.ValueP != nil {
		size += int64(8 * len(pt.ValueP.Coeffs) * len(pt.ValueP.Coeffs[0]))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if held := c.pts[key]; held != nil {
		return held
	}
	if c.released || !reservePlanBytes(size) {
		return pt
	}
	if c.pts == nil {
		c.pts = make(map[PlainKey]*ckks.Plaintext)
	}
	c.pts[key] = pt
	c.held.Add(size)
	return pt
}

// Value returns the cached value of invariant instruction id, or nil. Callers
// must not modify it.
func (c *PlainCache) Value(id int32) []float64 {
	c.mu.RLock()
	v := c.values[id]
	c.mu.RUnlock()
	return v
}

// KeepValue offers the value of invariant instruction id to the cache.
func (c *PlainCache) KeepValue(id int32, v []float64) {
	size := int64(8 * len(v))
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.values[id] != nil || c.released || !reservePlanBytes(size) {
		return
	}
	if c.values == nil {
		c.values = make(map[int32][]float64)
	}
	c.values[id] = v
	c.held.Add(size)
}

// ReleasePlan empties the program's plaintext cache for good and returns its
// bytes to the budget: the serve registry calls it when it evicts the
// program, so the cached bytes of a program nobody can look up any more
// return at once. Contexts that still hold the result keep running it,
// encoding constants per run. It is a no-op for a result that never ran.
func ReleasePlan(res *Result) {
	c := res.Cache
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.params == nil {
		return
	}
	planCacheBudget.used.Add(-c.held.Swap(0))
	c.pts, c.values, c.released = nil, nil, true
}

// PlanStats describes the plaintext cache of one compiled program.
type PlanStats struct {
	// CachedPlaintexts and CachedBytes are the cache's current contents
	// (bytes include the memoised plain values).
	CachedPlaintexts int
	CachedBytes      int64
}

// PlanStatsOf reports on the plaintext cache of res; ok is false when the
// program has not run yet.
func PlanStatsOf(res *Result) (stats PlanStats, ok bool) {
	c := res.Cache
	c.mu.RLock()
	defer c.mu.RUnlock()
	if c.params == nil {
		return PlanStats{}, false
	}
	return PlanStats{CachedPlaintexts: len(c.pts), CachedBytes: c.held.Load()}, true
}
