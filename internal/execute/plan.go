package execute

import (
	"runtime"
	"sync"
	"sync/atomic"

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// A plan is everything about executing one compiled program that does not
// depend on the request: the term graph flattened into a dense instruction
// list (operands, dependants, pending and reference counts as slices indexed
// by instruction id), the hoistable rotation sets, the add chains that fuse
// into one multiply-accumulate, and a cache of the program's constants
// encoded as plaintexts. It is built once per compile.Result, on the first
// run, and found from the result by every later run (compile.Result.Prepared),
// so it is shared by every context and tenant executing the program and lives
// exactly as long as the result does.
type plan struct {
	vecSize int
	instrs  []instr

	// invariants lists the run-invariant instructions (Plain terms with no
	// INPUT ancestor) in topological order. A run completes them in a
	// prologue without evaluating anything; their values come from the cache.
	invariants []int32
	// units lists what the schedulers dispatch, in topological order: every
	// other instruction except the absorbed members of fused chains, which run
	// as part of their chain's root.
	units []int32
	// kernels groups units by kernel label for the bulk-synchronous scheduler.
	kernels [][]int32
	hoists  []hoistSet
	outputs []planOutput

	cache plainCache
}

type planOutput struct {
	name string
	id   int32
}

// instr is one term of the program in the plan's dense form.
type instr struct {
	term   *core.Term
	parms  []int32 // operand instruction ids, one per parameter slot
	cipher bool
	// invariant marks a Plain term with no INPUT ancestor: its value is the
	// same in every run of the program.
	invariant bool
	// refs counts the references that keep the value alive: one per (live
	// child, slot) use plus one per program output naming the term.
	refs int32
	// logScale is the compiler-assigned log2 scale of the term; a product
	// encodes its plain operand at it.
	logScale float64
	// rot is the effective left-rotation step of a rotation instruction.
	rot int

	// hoist and hoistPos locate a rotation in its hoistable set (hoist is -1
	// for everything else).
	hoist, hoistPos int32

	// chain is set on the root of a fused chain; absorbed on its other
	// members, which are never dispatched on their own.
	chain    *fusedChain
	absorbed bool

	// children are the distinct units that consume this instruction's value
	// and pending the number of distinct run-dependent instructions a unit
	// waits for — both on the graph with every fused chain contracted into
	// its root.
	children []int32
	pending  int32
}

// hoistSet is one hoistable rotation set (two or more rotations of one Cipher
// term; see rewrite.RotationSets).
type hoistSet struct {
	// steps holds each member's effective left rotation, in member order.
	steps []int
	// shared marks members whose step another member also takes: the batch
	// evaluates a step once, so those members alias one result ciphertext and
	// none of them may recycle it.
	shared []bool
}

// fusedChain is a maximal tree of ciphertext additions whose interior sums
// are single-use and not program outputs and whose leaves are all single-use,
// non-output products of a ciphertext with a run-invariant plain value. The
// whole tree evaluates as one Σ ctᵢ·ptᵢ (Evaluator.MulPlainAccumulate) when
// its root is dispatched. SUB never joins a chain: it stays an ordinary
// instruction, so the tree it roots or feeds is simply cut there.
type fusedChain struct {
	// members lists every term of the tree — leaf products and sums — in
	// topological order, the root last.
	members []int32
	// products are the leaves left to right, so products[0] is the leftmost
	// leaf, whose scale a chain of Evaluator.Add calls would give the result.
	products []fusedProduct
	// weights apportions the chain's measured wall time over members by the
	// cost model's units (they sum to 1).
	weights []float64
}

type fusedProduct struct {
	ct, plain int32
}

// planFor returns the prepared plan of a compiled program, building it on
// first use.
func planFor(res *compile.Result) *plan {
	return res.Prepared(func() any {
		p := buildPlan(res)
		// A result dropped without ReleasePlan (nothing outside a server
		// releases) must not leave its cached bytes counted against the
		// budget for good. The counter is its own allocation because a
		// cleanup's argument may not keep the object it watches reachable.
		held := new(atomic.Int64)
		p.cache.held = held
		runtime.AddCleanup(res, func(held *atomic.Int64) { planCacheBudget.used.Add(-held.Swap(0)) }, held)
		return p
	}).(*plan)
}

func buildPlan(res *compile.Result) *plan {
	prog := res.Program
	order := prog.TopoSort()
	n := len(order)
	p := &plan{vecSize: prog.VecSize, instrs: make([]instr, n)}
	ids := make(map[*core.Term]int32, n)
	for i, t := range order {
		ids[t] = int32(i)
	}
	// Types are inferred from the program itself rather than read from
	// res.Types, so a Result assembled by hand around another program (the
	// failure-injection tests) still plans correctly.
	types := prog.InferTypes()

	nparms := 0
	for _, t := range order {
		nparms += len(t.Parms())
	}
	parmBacking := make([]int32, nparms)
	isOutput := make([]bool, n)
	user := make([]int32, n) // some consumer of each term; the only one when refs == 1
	for i, t := range order {
		in := &p.instrs[i]
		in.term = t
		in.cipher = types[t] == core.TypeCipher
		in.logScale = res.Scales[t]
		in.hoist = -1
		if t.Op.IsRotation() {
			in.rot = rewrite.EffectiveRotation(t)
		}
		in.parms, parmBacking = parmBacking[:len(t.Parms())], parmBacking[len(t.Parms()):]
		in.invariant = !in.cipher && t.Op != core.OpInput
		for slot, parm := range t.Parms() {
			q := ids[parm]
			in.parms[slot] = q
			p.instrs[q].refs++
			user[q] = int32(i)
			in.invariant = in.invariant && p.instrs[q].invariant
		}
	}
	for _, o := range prog.Outputs() {
		id := ids[o.Term]
		p.instrs[id].refs++
		isOutput[id] = true
		p.outputs = append(p.outputs, planOutput{name: o.Name, id: id})
	}
	for s, set := range rewrite.RotationSets(prog) {
		hs := hoistSet{steps: make([]int, len(set)), shared: make([]bool, len(set))}
		taken := make(map[int]int, len(set))
		for i, m := range set {
			in := &p.instrs[ids[m]]
			in.hoist, in.hoistPos = int32(s), int32(i)
			hs.steps[i] = in.rot
			taken[in.rot]++
		}
		for i, k := range hs.steps {
			hs.shared[i] = taken[k] > 1
		}
		p.hoists = append(p.hoists, hs)
	}

	p.findChains(isOutput, user, res.LogN)

	// The scheduling graph: chains contracted into their roots, invariant
	// terms left out (they are complete before the first unit is dispatched).
	seenBy := make([]int32, n) // seenBy[q] == i+1: q already counted as a producer of unit i
	for i := range p.instrs {
		in := &p.instrs[i]
		switch {
		case in.invariant:
			p.invariants = append(p.invariants, int32(i))
			continue
		case in.absorbed:
			continue
		}
		p.units = append(p.units, int32(i))
		depend := func(q int32) {
			if p.instrs[q].invariant || seenBy[q] == int32(i)+1 {
				return
			}
			seenBy[q] = int32(i) + 1
			in.pending++
			p.instrs[q].children = append(p.instrs[q].children, int32(i))
		}
		if in.chain != nil {
			for _, pr := range in.chain.products {
				depend(pr.ct)
			}
			continue
		}
		for _, q := range in.parms {
			depend(q)
		}
	}
	for _, group := range groupByKernel(order) {
		var units []int32
		for _, t := range group {
			if in := &p.instrs[ids[t]]; !in.invariant && !in.absorbed {
				units = append(units, ids[t])
			}
		}
		if len(units) > 0 {
			p.kernels = append(p.kernels, units)
		}
	}
	return p
}

// findChains marks the fused chains of the program (see fusedChain).
func (p *plan) findChains(isOutput []bool, user []int32, logN int) {
	n := len(p.instrs)
	// product[i] is 1 + the slot of the ciphertext operand when instruction i
	// is a fusable leaf; sum[i] reports a tree of additions over such leaves.
	product := make([]int8, n)
	sum := make([]bool, n)
	absorbable := func(i int32) bool { return p.instrs[i].refs == 1 && !isOutput[i] }
	for i := range p.instrs {
		in := &p.instrs[i]
		if !in.cipher || len(in.parms) != 2 {
			continue
		}
		a, b := &p.instrs[in.parms[0]], &p.instrs[in.parms[1]]
		switch in.term.Op {
		case core.OpMultiply:
			if !absorbable(int32(i)) {
				continue
			}
			if a.cipher && b.invariant {
				product[i] = 1
			} else if b.cipher && a.invariant {
				product[i] = 2
			}
		case core.OpAdd:
			leaf := func(q int32) bool { return absorbable(q) && (product[q] != 0 || sum[q]) }
			sum[i] = leaf(in.parms[0]) && leaf(in.parms[1])
		}
	}
	model := analysis.CostModel{LogN: logN, TotalLevels: 1}
	for i := range p.instrs {
		if !sum[i] || (absorbable(int32(i)) && sum[user[i]]) {
			continue // not a sum, or an interior sum of a larger tree
		}
		ch := &fusedChain{}
		var walk func(id int32)
		walk = func(id int32) {
			in := &p.instrs[id]
			if product[id] != 0 {
				ct := in.parms[product[id]-1]
				ch.products = append(ch.products, fusedProduct{ct: ct, plain: in.parms[2-product[id]]})
			} else {
				walk(in.parms[0])
				walk(in.parms[1])
			}
			ch.members = append(ch.members, id)
		}
		walk(int32(i))
		// Every member works on the same number of limbs, so the cost
		// model's units at any one chain position give the right shares.
		ch.weights = make([]float64, len(ch.members))
		total := 0.0
		for k, m := range ch.members {
			ch.weights[k] = model.OpUnits(p.instrs[m].term.Op, 0, false)
			total += ch.weights[k]
		}
		for k := range ch.weights {
			ch.weights[k] /= total
		}
		for _, m := range ch.members[:len(ch.members)-1] {
			p.instrs[m].absorbed = true
		}
		p.instrs[i].chain = ch
	}
}

// groupByKernel splits the topologically ordered terms into maximal runs
// sharing the same kernel label; unlabeled terms attach to the current run.
func groupByKernel(order []*core.Term) [][]*core.Term {
	var groups [][]*core.Term
	var cur []*core.Term
	curLabel := ""
	for _, t := range order {
		label := t.Kernel
		if label == "" {
			label = curLabel
		}
		if label != curLabel && len(cur) > 0 {
			groups = append(groups, cur)
			cur = nil
		}
		curLabel = label
		cur = append(cur, t)
	}
	if len(cur) > 0 {
		groups = append(groups, cur)
	}
	return groups
}

// --- the run-invariant plaintext cache ---

// planCacheBudget bounds the bytes all plans of the process may hold in their
// caches together. A cache that cannot reserve room for an entry simply does
// not keep it — the constant is encoded again on the next run, as it was
// before plans existed — so a full budget costs time, never correctness, and
// nothing is ever evicted to make room.
var planCacheBudget struct {
	limit, used atomic.Int64
}

// defaultPlanCacheBudget is the budget until SetPlanCacheBudget changes it.
const defaultPlanCacheBudget = 512 << 20

func init() { planCacheBudget.limit.Store(defaultPlanCacheBudget) }

// SetPlanCacheBudget sets the process-wide byte budget of the plans'
// plaintext caches; 0 turns caching off. Entries already cached stay until
// their plan is released.
func SetPlanCacheBudget(bytes int64) { planCacheBudget.limit.Store(max(bytes, 0)) }

// PlanCacheBudget returns the bytes the plans' caches hold and may hold.
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

// plainCache memoises, per plan, the encodings of the program's run-invariant
// plain values, keyed by the (level, scale) a consumer needs them at, and the
// values themselves where they are not bare constants. An encoding depends
// only on the public encryption parameters — never on a key — and those are a
// deterministic function of the compile.Result, so one cache serves every
// context of the program. It holds program constants only (which the server
// already sees in the clear); request inputs never enter it.
type plainCache struct {
	mu sync.RWMutex
	// params are the parameters the held encodings were made under: those of
	// the first context that ran the plan. A context with different ones
	// bypasses the cache.
	params   *ckks.Parameters
	pts      map[plainKey]*ckks.Plaintext
	values   map[int32][]float64
	held     *atomic.Int64 // bytes reserved from the budget for pts and values
	released bool
}

type plainKey struct {
	id    int32
	level int
	scale float64
}

// usableWith reports whether a context with these parameters may use the
// cache, adopting them if the cache is still empty-handed.
func (c *plainCache) usableWith(params *ckks.Parameters) bool {
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

func (c *plainCache) plaintext(key plainKey) *ckks.Plaintext {
	c.mu.RLock()
	pt := c.pts[key]
	c.mu.RUnlock()
	return pt
}

// keepPlaintext offers an encoding to the cache and returns the one to use:
// pt itself, or the entry a concurrent run stored first.
func (c *plainCache) keepPlaintext(key plainKey, pt *ckks.Plaintext) *ckks.Plaintext {
	size := int64(8 * len(pt.Value.Coeffs) * len(pt.Value.Coeffs[0]))
	c.mu.Lock()
	defer c.mu.Unlock()
	if held := c.pts[key]; held != nil {
		return held
	}
	if c.released || !reservePlanBytes(size) {
		return pt
	}
	if c.pts == nil {
		c.pts = make(map[plainKey]*ckks.Plaintext)
	}
	c.pts[key] = pt
	c.held.Add(size)
	return pt
}

func (c *plainCache) value(id int32) []float64 {
	c.mu.RLock()
	v := c.values[id]
	c.mu.RUnlock()
	return v
}

func (c *plainCache) keepValue(id int32, v []float64) {
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

// release empties the cache for good and returns its bytes to the budget;
// later runs of the plan encode their constants per run.
func (c *plainCache) release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	planCacheBudget.used.Add(-c.held.Swap(0))
	c.pts, c.values, c.released = nil, nil, true
}

// invariantValue returns the value of a run-invariant term. It is shared
// between runs: callers must not modify it.
func (p *plan) invariantValue(id int32) ([]float64, error) {
	in := &p.instrs[id]
	if in.term.Op == core.OpConstant {
		// Replicating a constant is cheaper than remembering it.
		return Replicate(in.term.Value, p.vecSize), nil
	}
	if v := p.cache.value(id); v != nil {
		return v, nil
	}
	var args [2][]float64
	for slot, q := range in.parms {
		a, err := p.invariantValue(q)
		if err != nil {
			return nil, err
		}
		args[slot] = a
	}
	v, err := plainOp(in.term, args[0], args[1])
	if err != nil {
		return nil, err
	}
	p.cache.keepValue(id, v)
	return v, nil
}

// ReleasePlan drops everything the program's prepared plan has cached and
// stops it caching: the serve registry calls it when it evicts the program,
// so the cached bytes of a program nobody can look up any more return to the
// budget. Contexts that still hold the result keep running it, encoding
// constants per run. It is a no-op for a result that never ran.
func ReleasePlan(res *compile.Result) {
	if p, ok := res.Prepared(nil).(*plan); ok {
		p.cache.release()
	}
}

// PlanStats describes the prepared plan of one compiled program.
type PlanStats struct {
	// CachedPlaintexts and CachedBytes are the cache's current contents
	// (bytes include the memoised plain values).
	CachedPlaintexts int
	CachedBytes      int64
}

// PlanStatsOf reports on the prepared plan of res; ok is false when the
// program has not run yet (it has no plan).
func PlanStatsOf(res *compile.Result) (stats PlanStats, ok bool) {
	p, ok := res.Prepared(nil).(*plan)
	if !ok {
		return PlanStats{}, false
	}
	c := &p.cache
	c.mu.RLock()
	stats.CachedPlaintexts, stats.CachedBytes = len(c.pts), c.held.Load()
	c.mu.RUnlock()
	return stats, true
}
