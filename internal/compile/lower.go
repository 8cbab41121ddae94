package compile

import (
	"math"
	"slices"

	"eva/internal/analysis"
	"eva/internal/core"
)

// Instr is one term of the compiled program in the executor's dense form.
// Operands, dependants and sets are instruction ids: indices into
// Result.Instrs, which lists the live terms in topological order.
type Instr struct {
	Term  *core.Term
	Parms []int32 // operand ids, one per parameter slot
	// Cipher reports that the term's value is a ciphertext.
	Cipher bool
	// Invariant marks a Plain term with no INPUT ancestor: its value is the
	// same in every run of the program.
	Invariant bool
	// Refs counts the references that keep the value alive: one per (live
	// child, slot) use plus one per program output naming the term.
	Refs int32
	// LogScale is the log2 scale the compiler assigned to the term; a product
	// encodes its plain operand at it.
	LogScale float64
	// Level is the length of the term's rescale chain: the primes consumed
	// below a fresh encryption (0 for plain terms).
	Level int
	// Rot is the effective left-rotation step of a rotation, never a
	// multiple of the vector size (Compile folds those away).
	Rot int

	// Hoist and HoistPos locate a rotation in its hoistable set (Hoist is -1
	// for everything else).
	Hoist, HoistPos int32
	// DeferModDown marks an instruction whose result stays in the extended
	// basis Q∪P until a consumer that needs Q finishes it: a key-switched
	// rotation or relinearization skips its mod-down, and a fused chain or a
	// sum with such an operand leaves its result there too. Its consumers are
	// product leaves of fused chains, which mod down once for the whole sum
	// (double hoisting), or its one consumer is a RESCALE that divides by
	// P·q_ℓ in one step, or an ADD or SUB that saves a mod-down by taking it
	// (Result.deferModDowns).
	DeferModDown bool

	// Chain is set on the root of a fused chain; Absorbed on its other
	// members, which are never dispatched on their own.
	Chain    *FusedChain
	Absorbed bool

	// Children are the distinct units that consume this instruction's value
	// and Pending the number of distinct run-dependent instructions a unit
	// waits for — both on the graph with every fused chain contracted into
	// its root.
	Children []int32
	Pending  int32
}

// HoistSet is one hoistable rotation set: two or more rotations of one
// Cipher term, which share one key-switch decomposition when run as a batch.
type HoistSet struct {
	// Steps holds each member's effective left rotation, in member order.
	Steps []int
	// Shared marks members whose step another member also takes: the batch
	// evaluates a step once, so those members alias one result ciphertext and
	// none of them may recycle it.
	Shared []bool
	// Deferred holds each member's DeferModDown, in member order; nil when no
	// member defers. Members taking one step agree.
	Deferred []bool
}

// FusedChain is a maximal tree of ciphertext additions whose interior sums
// are single-use and not program outputs and whose leaves are all single-use,
// non-output products of a ciphertext with a run-invariant plain value. The
// whole tree evaluates as one Σ ctᵢ·ptᵢ (Evaluator.MulPlainAccumulate) when
// its root is dispatched. SUB never joins a chain: it stays an ordinary
// instruction, so the tree it roots or feeds is simply cut there.
type FusedChain struct {
	// Members lists every term of the tree — leaf products and sums — in
	// topological order, the root last.
	Members []int32
	// Products are the leaves left to right, so Products[0] is the leftmost
	// leaf, whose scale a chain of Evaluator.Add calls would give the result.
	Products []FusedProduct
	// Weights apportions the chain's measured wall time over Members by the
	// cost model's units (they sum to 1).
	Weights []float64
}

// FusedProduct is one leaf of a fused chain: its ciphertext and plain
// operands.
type FusedProduct struct {
	Ct, Plain int32
}

// Input is one declared input of the program.
type Input struct {
	Term *core.Term
	// ID is the input's instruction, or -1 when no output depends on it.
	ID int32
	// Depth is the longest rescale chain among the terms the input reaches:
	// the input's level group must enter at least that many levels up.
	Depth int
	// Group is the input's level group, named by the index in Result.Inputs
	// of its first member; -1 for a Plain input and a Cipher input no output
	// depends on. Two Cipher inputs share a group when they reach a common
	// term: MODSWITCH placement assumes they enter at one level (Result.Bind).
	Group int
}

// Output is one output of the program.
type Output struct {
	Name string
	ID   int32
	// Group is the level group the output depends on (-1 for none).
	Group int
}

// Lower builds the Result of a transformed program in one walk over its
// topological order: the dense instruction list, units, kernels, hoist sets,
// fused chains and invariants the executor runs, the inputs and outputs by
// id with their level groups, CompiledStats and RotationSteps. chains and
// scales are analysis.Validate's per-term results and are not kept. Lower
// checks nothing itself, so a program that fails validation lowers too; the
// other fields of the Result (Plan, LogN, Options, SourceStats) are the
// caller's to fill. The program must hold no rotation by a multiple of its
// vector size (rewrite.FoldIdentityRotations): the backend has no key for
// one.
func Lower(prog *core.Program, chains map[*core.Term]analysis.Chain, scales map[*core.Term]float64) *Result {
	order := prog.TopoSort()
	n := len(order)
	r := &Result{Program: prog, Instrs: make([]Instr, n), Cache: newPlainCache()}
	ids := make(map[*core.Term]int32, n)
	stats := core.Stats{Terms: n, Instructions: map[string]int{}, Inputs: len(prog.Inputs()), Outputs: len(prog.Outputs())}
	steps := map[int]bool{}
	depth := make([]int, n) // multiplicative depth
	rotations := map[int32][]int32{}
	var sources []int32 // rotated Cipher terms, in order of their first rotation
	// Level groups: reached[i] is the index of some Cipher input term i
	// reaches (-1 for none), and union-find over the input indices, rooted at
	// each group's first input, merges the inputs of every term's operands.
	reached := make([]int32, n)
	index := make(map[*core.Term]int32, len(prog.Inputs()))
	root := make([]int32, len(prog.Inputs()))
	for k, t := range prog.Inputs() {
		index[t], root[k] = int32(k), int32(k)
	}
	find := func(x int32) int32 {
		for root[x] != x {
			root[x] = root[root[x]]
			x = root[x]
		}
		return x
	}

	nparms := 0
	for _, t := range order {
		nparms += len(t.Parms())
	}
	parmBacking := make([]int32, nparms)
	user := make([]int32, n) // some consumer of each term; the only one when Refs == 1
	for i, t := range order {
		ids[t] = int32(i)
		in := &r.Instrs[i]
		in.Term = t
		in.LogScale = scales[t]
		in.Level = len(chains[t])
		in.Hoist = -1
		if t.IsLeaf() {
			in.Cipher = t.InType == core.TypeCipher
			r.waterline = max(r.waterline, t.LogScale)
		} else {
			stats.Instructions[t.Op.String()]++
		}
		in.Parms, parmBacking = parmBacking[:len(t.Parms())], parmBacking[len(t.Parms()):]
		invariant := t.Op != core.OpInput
		reached[i] = -1
		if t.Op == core.OpInput && in.Cipher {
			reached[i] = index[t]
		}
		for slot, parm := range t.Parms() {
			q := ids[parm]
			in.Parms[slot] = q
			r.Instrs[q].Refs++
			user[q] = int32(i)
			in.Cipher = in.Cipher || r.Instrs[q].Cipher
			invariant = invariant && r.Instrs[q].Invariant
			depth[i] = max(depth[i], depth[q])
			switch g := reached[q]; {
			case g < 0:
			case reached[i] < 0:
				reached[i] = g
			default:
				a, b := find(g), find(reached[i])
				root[max(a, b)] = min(a, b)
			}
		}
		in.Invariant = invariant && !in.Cipher
		if t.Op == core.OpMultiply {
			depth[i]++
		}
		stats.MultDepth = max(stats.MultDepth, depth[i])
		if t.Op.IsRotation() {
			in.Rot = t.EffectiveRotation()
			steps[in.Rot] = true
			if src := in.Parms[0]; r.Instrs[src].Cipher {
				if len(rotations[src]) == 0 {
					sources = append(sources, src)
				}
				rotations[src] = append(rotations[src], int32(i))
			}
		}
	}
	for step := range steps {
		r.RotationSteps = append(r.RotationSteps, step)
	}
	slices.Sort(r.RotationSteps)
	stats.RotationSteps = len(r.RotationSteps)
	r.CompiledStats = stats

	group := func(id int32) int {
		if reached[id] < 0 {
			return -1
		}
		return int(find(reached[id]))
	}
	isOutput := make([]bool, n)
	for _, o := range prog.Outputs() {
		id := ids[o.Term]
		r.Instrs[id].Refs++
		isOutput[id] = true
		r.Outputs = append(r.Outputs, Output{Name: o.Name, ID: id, Group: group(id)})
	}
	for _, src := range sources {
		set := rotations[src]
		if len(set) < 2 {
			continue
		}
		hs := HoistSet{Steps: make([]int, len(set)), Shared: make([]bool, len(set))}
		taken := make(map[int]int, len(set))
		for i, m := range set {
			in := &r.Instrs[m]
			in.Hoist, in.HoistPos = int32(len(r.Hoists)), int32(i)
			hs.Steps[i] = in.Rot
			taken[in.Rot]++
		}
		for i, k := range hs.Steps {
			hs.Shared[i] = taken[k] > 1
		}
		r.Hoists = append(r.Hoists, hs)
	}

	r.findChains(isOutput, user)
	r.deferModDowns(isOutput, user)
	r.schedule()

	// An input's depth is the longest chain below it: one reverse sweep
	// carries every term's longest reachable chain up to its operands.
	reach := make([]int, n)
	for i := n - 1; i >= 0; i-- {
		reach[i] = max(reach[i], r.Instrs[i].Level)
		for _, q := range r.Instrs[i].Parms {
			reach[q] = max(reach[q], reach[i])
		}
	}
	for _, t := range prog.Inputs() {
		in := Input{Term: t, ID: -1, Group: -1}
		if id, ok := ids[t]; ok {
			in.ID, in.Depth, in.Group = id, reach[id], group(id)
		}
		r.Inputs = append(r.Inputs, in)
	}
	return r
}

// findChains marks the fused chains of the program (see FusedChain).
func (r *Result) findChains(isOutput []bool, user []int32) {
	instrs := r.Instrs
	n := len(instrs)
	// product[i] is 1 + the slot of the ciphertext operand when instruction i
	// is a fusable leaf; sum[i] reports a tree of additions over such leaves.
	product := make([]int8, n)
	sum := make([]bool, n)
	absorbable := func(i int32) bool { return instrs[i].Refs == 1 && !isOutput[i] }
	for i := range instrs {
		in := &instrs[i]
		if !in.Cipher || len(in.Parms) != 2 {
			continue
		}
		a, b := &instrs[in.Parms[0]], &instrs[in.Parms[1]]
		switch in.Term.Op {
		case core.OpMultiply:
			if !absorbable(int32(i)) {
				continue
			}
			if a.Cipher && b.Invariant {
				product[i] = 1
			} else if b.Cipher && a.Invariant {
				product[i] = 2
			}
		case core.OpAdd:
			leaf := func(q int32) bool { return absorbable(q) && (product[q] != 0 || sum[q]) }
			sum[i] = leaf(in.Parms[0]) && leaf(in.Parms[1])
		}
	}
	// Every member of a chain works on the same limbs, so the units at any
	// one chain position and ring degree give the right shares.
	model := analysis.CostModel{TotalLevels: 1}
	for i := range instrs {
		if !sum[i] || (absorbable(int32(i)) && sum[user[i]]) {
			continue // not a sum, or an interior sum of a larger tree
		}
		ch := &FusedChain{}
		var walk func(id int32)
		walk = func(id int32) {
			in := &instrs[id]
			if product[id] != 0 {
				ct := in.Parms[product[id]-1]
				ch.Products = append(ch.Products, FusedProduct{Ct: ct, Plain: in.Parms[2-product[id]]})
			} else {
				walk(in.Parms[0])
				walk(in.Parms[1])
			}
			ch.Members = append(ch.Members, id)
		}
		walk(int32(i))
		ch.Weights = make([]float64, len(ch.Members))
		total := 0.0
		for k, m := range ch.Members {
			ch.Weights[k] = model.OpUnits(instrs[m].Term.Op, 0, false)
			total += ch.Weights[k]
		}
		for k := range ch.Weights {
			ch.Weights[k] /= total
		}
		for _, m := range ch.Members[:len(ch.Members)-1] {
			instrs[m].Absorbed = true
		}
		instrs[i].Chain = ch
	}
}

// deferModDowns marks the instructions whose results stay over Q∪P
// (Instr.DeferModDown). Four kinds can hold such a result: a key-switched
// rotation, a RELINEARIZE of a ciphertext-ciphertext product, the root of a
// fused chain with a deferred leaf, and a degree-1 ciphertext ADD or SUB with
// a deferred operand. One of them defers when it is not an output and its
// consumers save a mod-down by taking the value over Q∪P: every reference is
// a product leaf of a statically fusable chain — all its products at one
// level and one scale, so the fused kernel never refuses them — or its one
// reference is a RESCALE, which then divides by P·q_ℓ in one step, or an ADD
// or SUB that merges it with a second deferred operand or defers in turn. A
// value that would only move its mod-down to a sum, paying the lift of the
// sum's other operand on top, mods down its own result. In a hoist set a step
// defers only if every member taking it does, since those members share one
// result. user is some consumer of each instruction, its only one when Refs
// is 1.
func (r *Result) deferModDowns(isOutput []bool, user []int32) {
	instrs := r.Instrs
	n := len(instrs)
	leafUses := make([]int32, n)
	for i := range instrs {
		ch := instrs[i].Chain
		if ch == nil {
			continue
		}
		first := &instrs[ch.Members[0]]
		fusable := true
		for _, m := range ch.Members {
			in := &instrs[m]
			if in.Term.Op == core.OpMultiply && (in.Level != first.Level || math.Abs(in.LogScale-first.LogScale) > 1e-9) {
				fusable = false
			}
		}
		if fusable {
			for _, pr := range ch.Products {
				leafUses[pr.Ct]++
			}
		}
	}
	// degree2 marks the ciphertexts of degree 2: a product of two
	// ciphertexts until its RELINEARIZE.
	degree2 := make([]bool, n)
	for i := range instrs {
		in := &instrs[i]
		degree2[i] = r.degree2(in)
		for _, q := range in.Parms {
			degree2[i] = degree2[i] || (degree2[q] && in.Term.Op != core.OpRelinearize)
		}
	}
	// sum reports an ADD or SUB of two degree-1 ciphertexts outside fused
	// chains: it takes deferred operands and its result stays over Q∪P.
	sum := func(c int32) bool {
		in := &instrs[c]
		if in.Absorbed || in.Chain != nil || (in.Term.Op != core.OpAdd && in.Term.Op != core.OpSub) {
			return false
		}
		a, b := in.Parms[0], in.Parms[1]
		return instrs[a].Cipher && instrs[b].Cipher && !degree2[a] && !degree2[b]
	}
	leavesOnly := func(id int32) bool { return leafUses[id] > 0 && instrs[id].Refs == leafUses[id] }
	// held[i] reports that i can hold its result over Q∪P; single reports
	// such a value with one reference.
	held := make([]bool, n)
	single := func(id int32) bool { return held[id] && !isOutput[id] && instrs[id].Refs == 1 }
	for i := range instrs {
		in := &instrs[i]
		switch op := in.Term.Op; {
		case !in.Cipher || in.Term.IsLeaf():
		case op.IsRotation() || (op == core.OpRelinearize && degree2[in.Parms[0]]):
			held[i] = true
		case in.Chain != nil:
			held[i] = slices.ContainsFunc(in.Chain.Products, func(pr FusedProduct) bool {
				return held[pr.Ct] && !isOutput[pr.Ct] && leavesOnly(pr.Ct)
			})
		case sum(int32(i)):
			held[i] = single(in.Parms[0]) || single(in.Parms[1])
		}
	}
	// onward[i] reports that a held i saves its consumers a mod-down by
	// deferring; the reverse sweep has decided every consumer first.
	onward := make([]bool, n)
	for i := n - 1; i >= 0; i-- {
		if !held[i] || isOutput[i] {
			continue
		}
		if leavesOnly(int32(i)) {
			onward[i] = true
			continue
		}
		if instrs[i].Refs != 1 {
			continue
		}
		switch c := user[i]; {
		case instrs[c].Term.Op == core.OpRescale:
			onward[i] = true
		case sum(c):
			other := instrs[c].Parms[0]
			if other == int32(i) {
				other = instrs[c].Parms[1]
			}
			onward[i] = single(other) || onward[c]
		}
	}

	members := make([][]int32, len(r.Hoists))
	for i := range instrs {
		in := &instrs[i]
		if held[i] && in.Chain == nil && !sum(int32(i)) {
			in.DeferModDown = onward[i]
			if in.DeferModDown && in.Hoist >= 0 {
				members[in.Hoist] = append(members[in.Hoist], int32(i))
			}
		}
	}
	for h, deferred := range members {
		if len(deferred) == 0 {
			continue
		}
		set := &r.Hoists[h]
		set.Deferred = make([]bool, len(set.Steps))
		for _, id := range deferred {
			set.Deferred[instrs[id].HoistPos] = true
		}
		// A step some member takes without deferring stays undeferred for all.
		for pos, step := range set.Steps {
			if set.Deferred[pos] {
				continue
			}
			for _, id := range deferred {
				if instrs[id].Rot == step {
					instrs[id].DeferModDown = false
					set.Deferred[instrs[id].HoistPos] = false
				}
			}
		}
		if !slices.Contains(set.Deferred, true) {
			set.Deferred = nil
		}
	}
	// Sums and chain roots follow their operands, which come first in
	// topological order.
	for i := range instrs {
		if in := &instrs[i]; held[i] && (in.Chain != nil || sum(int32(i))) {
			in.DeferModDown = onward[i] && r.deferredOperand(in)
		}
	}
}

// deferredOperand reports that in's operands include a deferred value: for
// the root of a fused chain, one of its leaves' ciphertexts.
func (r *Result) deferredOperand(in *Instr) bool {
	if in.Chain != nil {
		for _, pr := range in.Chain.Products {
			if r.Instrs[pr.Ct].DeferModDown {
				return true
			}
		}
		return false
	}
	for _, q := range in.Parms {
		if r.Instrs[q].DeferModDown {
			return true
		}
	}
	return false
}

// schedule builds the scheduling graph — fused chains contracted into their
// roots, invariant terms left out (they are complete before the first unit is
// dispatched) — and the kernel groups of the bulk-synchronous scheduler.
func (r *Result) schedule() {
	instrs := r.Instrs
	seenBy := make([]int32, len(instrs)) // seenBy[q] == i+1: q already counted as a producer of unit i
	for i := range instrs {
		in := &instrs[i]
		switch {
		case in.Invariant:
			r.Invariants = append(r.Invariants, int32(i))
			continue
		case in.Absorbed:
			continue
		}
		r.Units = append(r.Units, int32(i))
		depend := func(q int32) {
			if instrs[q].Invariant || seenBy[q] == int32(i)+1 {
				return
			}
			seenBy[q] = int32(i) + 1
			in.Pending++
			instrs[q].Children = append(instrs[q].Children, int32(i))
		}
		if in.Chain != nil {
			for _, pr := range in.Chain.Products {
				depend(pr.Ct)
			}
			continue
		}
		for _, q := range in.Parms {
			depend(q)
		}
	}

	// Kernels: maximal runs of the topological order sharing a kernel label
	// (unlabeled terms attach to the current run), each keeping its units.
	var group []int32
	label := ""
	for i := range instrs {
		in := &instrs[i]
		if l := in.Term.Kernel; l != "" && l != label {
			if len(group) > 0 {
				r.Kernels = append(r.Kernels, group)
			}
			group, label = nil, l
		}
		if !in.Invariant && !in.Absorbed {
			group = append(group, int32(i))
		}
	}
	if len(group) > 0 {
		r.Kernels = append(r.Kernels, group)
	}
}
