package compile

import (
	"math"
	"slices"

	"eva/internal/analysis"
	"eva/internal/core"
)

// Instr is one term of the compiled program in the executor's dense form:
// what Lower decided the term does — its backend call, its result basis and
// its key-switching work — so that the executor, the cost model and the
// memory estimate read those decisions instead of re-deriving them. Operands,
// dependants and sets are instruction ids: indices into Result.Instrs, which
// lists the live terms in topological order.
type Instr struct {
	// Term is the source term, for naming the instruction to observers and
	// in errors.
	Term *core.Term
	// Kind is the one backend call that computes the instruction, Op its
	// opcode (the operation of KindPlain and the key of Cost's ByOp).
	Kind  Kind
	Op    core.OpCode
	Parms []int32 // operand ids, one per parameter slot
	// Name is an input's name; Value a constant's value.
	Name  string
	Value []float64
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

	// Basis is the basis the instruction leaves its ciphertext in.
	Basis Basis
	// Work is the key-switching work the instruction does as the executor
	// runs it (analysis.KeySwitch): a relinearization, or a rotation outside
	// any hoist set, decomposes and applies its key; a hoist set decomposes
	// once, for its first member, and takes each step once, for the first
	// member taking it. Either mods down unless its result stays over Q∪P.
	// A value left there is finished by its consumer: the root of a fused
	// chain multiplies its deferred Leaves over the special limbs too, it or
	// a sum with a deferred operand Lifts a Q-only operand as P·x and mods
	// down unless it defers in turn, and a KindRescaleQP divides by P·q_ℓ
	// (Work.Level is then its operand's). The zero value is no work.
	Work analysis.KeySwitch

	// Hoist and HoistPos locate a rotation in its hoist set (Hoist is -1 for
	// everything else); the set's first member is the set's unit.
	Hoist, HoistPos int32
	// Chain is set on the root of a fused chain, the chain's unit. Absorbed
	// marks the other members of units — a chain's members below its root,
	// a hoist set's members after its first — which are never dispatched on
	// their own.
	Chain    *FusedChain
	Absorbed bool

	// Children are the distinct units that consume the values of this
	// unit's members, and Pending the number of distinct run-dependent units
	// it waits for.
	Children []int32
	Pending  int32
}

// Kind is the backend call that computes an instruction, with its operands'
// roles fixed at compile time. A cipher-plain kind names its plain operand's
// slot: KindAddPlain is ct + pt, KindPlainAdd pt + ct. A KindPlainSub negates
// the ciphertext and adds the plaintext. Each QP kind follows its Q kind.
type Kind uint8

const (
	KindInput     Kind = iota // the run's value of the input Name
	KindInvariant             // a constant's Value, or plain arithmetic on such values (the plan cache)
	KindPlain                 // plain vector arithmetic (Op) on run-dependent values
	KindNegate
	KindAdd // ct + ct; either may be over Q∪P, and so is the sum
	KindSub
	KindMul // ct × ct, a degree-2 result
	KindAddPlain
	KindPlainAdd
	KindSubPlain
	KindPlainSub
	KindMulPlain
	KindPlainMul
	KindRotate   // a left rotation by Rot into Q
	KindRotateQP // a left rotation by Rot left over Q∪P
	KindRelinearize
	KindRelinearizeQP
	KindModSwitch
	KindRescale   // division by the last chain prime
	KindRescaleQP // division of a value over Q∪P by P·q_ℓ in one step
)

// kinds lists each opcode's kinds on cipher-cipher, cipher-plain and
// plain-cipher operands; a unary opcode has the first only.
var kinds = [...][3]Kind{
	core.OpNegate:      {KindNegate},
	core.OpAdd:         {KindAdd, KindAddPlain, KindPlainAdd},
	core.OpSub:         {KindSub, KindSubPlain, KindPlainSub},
	core.OpMultiply:    {KindMul, KindMulPlain, KindPlainMul},
	core.OpRotateLeft:  {KindRotate},
	core.OpRotateRight: {KindRotate},
	core.OpRelinearize: {KindRelinearize},
	core.OpModSwitch:   {KindModSwitch},
	core.OpRescale:     {KindRescale},
}

// PlainSlot is the slot of a cipher-plain kind's plain operand.
func (k Kind) PlainSlot() int {
	if k == KindPlainAdd || k == KindPlainSub || k == KindPlainMul {
		return 0
	}
	return 1
}

// Basis is the RNS basis of an instruction's result: the chain primes Q, or
// Q∪P, extended by the special primes. A key-switched rotation or
// relinearization left over Q∪P skips its mod-down, and a fused chain or a
// sum with such an operand leaves its result there too. Its consumers are
// product leaves of fused chains, which mod down once for the whole sum
// (double hoisting), or its one consumer is a RESCALE that divides by P·q_ℓ
// in one step, or an ADD or SUB that saves a mod-down by taking it
// (Result.deferModDowns).
type Basis uint8

const (
	BasisQ Basis = iota
	BasisQP
)

// HoistSet is one hoistable rotation set: two or more rotations of one
// Cipher term, which run as one unit, a batch sharing one key-switch
// decomposition, at their first member.
type HoistSet struct {
	// Members are the rotations, in topological order, and Steps each
	// member's effective left rotation.
	Members []int32
	Steps   []int
	// Shared marks members whose step another member also takes: the batch
	// evaluates a step once, so those members alias one result ciphertext and
	// none of them may recycle it.
	Shared []bool
	// Deferred marks the members left over Q∪P, in member order; nil when no
	// member is. Members taking one step agree.
	Deferred []bool
}

// FusedChain is a maximal tree of ciphertext additions whose interior sums
// are single-use and not program outputs and whose leaves are all single-use,
// non-output products of a degree-1 ciphertext with a run-invariant plain
// value, all at one level and one scale — the operands the fused kernel
// accepts. The whole tree evaluates as one Σ ctᵢ·ptᵢ
// (Evaluator.MulPlainAccumulate) when its root, the chain's unit, is
// dispatched. SUB never joins a chain: it stays an ordinary instruction, so
// the tree it roots or feeds is simply cut there.
type FusedChain struct {
	// Members lists every term of the tree — leaf products and sums — in
	// topological order, the root last.
	Members []int32
	// Products are the leaves left to right, so Products[0] is the leftmost
	// leaf, whose scale a chain of Evaluator.Add calls would give the result.
	Products []FusedProduct
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
// topological order: the dense instruction list with each instruction's kind,
// basis and key-switching work, the units, kernels, hoist sets, fused chains
// and invariants the executor runs, the inputs and outputs by id with their
// level groups, CompiledStats and RotationSteps. facts are analysis.Check's
// for the program as it stands: Lower walks their Order and reads each term's
// level (its chain's length) and scale from their tables, and keeps none of
// them. Lower checks nothing itself, so a program that fails validation
// lowers too, from facts built by hand; the other fields of the Result (Plan,
// LogN, Options, SourceStats) are the caller's to fill. The program must hold
// no rotation by a multiple of its vector size
// (rewrite.FoldIdentityRotations): the backend has no key for one.
func Lower(prog *core.Program, facts *analysis.Facts) *Result {
	return lower(prog, facts.Order, func(t *core.Term) int { return len(facts.Chains.Get(t)) }, facts.Scales.Get, true)
}

// Reference lowers r's program again, for r's parameters, without fused
// chains or results left over Q∪P: the program the differential tests run,
// with the plan cache and buffer recycling off, as the reference that the
// lowering's mechanisms must reproduce — byte for byte unless a value stays
// over Q∪P, which changes the rounding.
func (r *Result) Reference() *Result {
	order := make([]*core.Term, len(r.Instrs))
	levels, scales := core.NewTermMap[int](r.Program), core.NewTermMap[float64](r.Program)
	for i, in := range r.Instrs {
		order[i] = in.Term
		levels.Set(in.Term, in.Level)
		scales.Set(in.Term, in.LogScale)
	}
	ref := lower(r.Program, order, levels.Get, scales.Get, false)
	ref.Plan, ref.LogN, ref.Options, ref.SourceStats = r.Plan, r.LogN, r.Options, r.SourceStats
	return ref
}

// lower is Lower over order, the program's TopoSort, finding fused chains and
// deferring mod-downs only when mechanisms is set.
func lower(prog *core.Program, order []*core.Term, level func(*core.Term) int, scale func(*core.Term) float64, mechanisms bool) *Result {
	n := len(order)
	r := &Result{Program: prog, VecSize: prog.VecSize, Instrs: make([]Instr, n), Cache: newPlainCache()}
	ids := core.NewTermMap[int32](prog) // each live term's index in order
	stats := core.Stats{Terms: n, Instructions: map[string]int{}, Inputs: len(prog.Inputs()), Outputs: len(prog.Outputs())}
	steps := map[int]bool{}
	depth := make([]int, n) // multiplicative depth
	rotations := map[int32][]int32{}
	var sources []int32 // rotated Cipher terms, in order of their first rotation
	// Level groups: reached[i] is the index of some Cipher input term i
	// reaches (-1 for none), and union-find over the input indices, rooted at
	// each group's first input, merges the inputs of every term's operands.
	reached := make([]int32, n)
	index := core.NewTermMap[int32](prog)
	root := make([]int32, len(prog.Inputs()))
	for k, t := range prog.Inputs() {
		index.Set(t, int32(k))
		root[k] = int32(k)
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
		ids.Set(t, int32(i))
		in := &r.Instrs[i]
		in.Term, in.Op = t, t.Op
		in.LogScale = scale(t)
		in.Level = level(t)
		in.Hoist = -1
		in.Name, in.Value = t.Name, t.Value
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
			reached[i] = index.Get(t)
		}
		for slot, parm := range t.Parms() {
			q := ids.Get(parm)
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
		in.Kind = r.kind(in)
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
		id := ids.Get(o.Term)
		r.Instrs[id].Refs++
		isOutput[id] = true
		r.Outputs = append(r.Outputs, Output{Name: o.Name, ID: id, Group: group(id)})
	}
	for _, src := range sources {
		set := rotations[src]
		if len(set) < 2 {
			continue
		}
		hs := HoistSet{Members: set, Steps: make([]int, len(set)), Shared: make([]bool, len(set))}
		taken := make(map[int]int, len(set))
		for i, m := range set {
			in := &r.Instrs[m]
			in.Hoist, in.HoistPos, in.Absorbed = int32(len(r.Hoists)), int32(i), i > 0
			hs.Steps[i] = in.Rot
			taken[in.Rot]++
		}
		for i, k := range hs.Steps {
			hs.Shared[i] = taken[k] > 1
		}
		r.Hoists = append(r.Hoists, hs)
	}

	var deferred []bool
	if mechanisms {
		degree2 := r.degree2()
		r.findChains(isOutput, user, degree2)
		deferred = r.deferModDowns(isOutput, user, degree2)
	}
	r.settle(deferred)
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
		// A dead input is not in order: its id reads 0, another term's.
		if id := ids.Get(t); r.Instrs[id].Term == t {
			in.ID, in.Depth, in.Group = id, reach[id], group(id)
		}
		r.Inputs = append(r.Inputs, in)
	}
	return r
}

// kind is the backend call of an instruction whose operands are lowered; a
// rotation, relinearization or rescale is over Q until settle finds
// otherwise.
func (r *Result) kind(in *Instr) Kind {
	switch {
	case in.Op == core.OpInput:
		return KindInput
	case in.Invariant:
		return KindInvariant
	case !in.Cipher:
		return KindPlain
	case len(in.Parms) == 2 && !r.Instrs[in.Parms[1]].Cipher:
		return kinds[in.Op][1]
	case len(in.Parms) == 2 && !r.Instrs[in.Parms[0]].Cipher:
		return kinds[in.Op][2]
	}
	return kinds[in.Op][0]
}

// degree2 marks the ciphertexts of degree 2: a product of two ciphertexts
// until its RELINEARIZE.
func (r *Result) degree2() []bool {
	instrs := r.Instrs
	degree2 := make([]bool, len(instrs))
	for i := range instrs {
		in := &instrs[i]
		degree2[i] = in.Kind == KindMul
		for _, q := range in.Parms {
			degree2[i] = degree2[i] || (degree2[q] && in.Kind != KindRelinearize)
		}
	}
	return degree2
}

// findChains marks the fused chains of the program (see FusedChain). It
// admits only trees the fused kernel accepts — every leaf ciphertext of
// degree 1 and every product at one level and one scale — so the executor
// runs each chain as one kernel call; degree2 marks the degree-2 ciphertexts.
func (r *Result) findChains(isOutput []bool, user []int32, degree2 []bool) {
	instrs := r.Instrs
	n := len(instrs)
	// product[i] is 1 + the slot of the ciphertext operand when instruction i
	// is a fusable leaf; sum[i] reports a tree of additions over such leaves.
	product := make([]int8, n)
	sum := make([]bool, n)
	absorbable := func(i int32) bool { return instrs[i].Refs == 1 && !isOutput[i] }
	for i := range instrs {
		in := &instrs[i]
		switch in.Kind {
		case KindMulPlain, KindPlainMul:
			slot := in.Kind.PlainSlot()
			if absorbable(int32(i)) && instrs[in.Parms[slot]].Invariant && !degree2[in.Parms[1-slot]] {
				product[i] = int8(2 - slot)
			}
		case KindAdd:
			leaf := func(q int32) bool { return absorbable(q) && (product[q] != 0 || sum[q]) }
			sum[i] = leaf(in.Parms[0]) && leaf(in.Parms[1])
		}
	}
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
		first := &instrs[ch.Members[0]]
		if slices.ContainsFunc(ch.Members, func(m int32) bool {
			in := &instrs[m]
			return product[m] != 0 && (in.Level != first.Level || math.Abs(in.LogScale-first.LogScale) > 1e-9)
		}) {
			continue
		}
		for _, m := range ch.Members[:len(ch.Members)-1] {
			instrs[m].Absorbed = true
		}
		instrs[i].Chain = ch
	}
}

// deferModDowns decides which instructions leave their results over Q∪P
// (BasisQP), returning the decision by instruction id; settle applies it.
// Four kinds can hold such a result: a key-switched rotation, a RELINEARIZE
// of a ciphertext-ciphertext product, the root of a fused chain with a
// deferred leaf, and a degree-1 ciphertext ADD or SUB with a deferred
// operand. One of them defers when it is not an output and its consumers save
// a mod-down by taking the value over Q∪P: every reference is a product leaf
// of a fused chain, or its one reference is a RESCALE, which then divides by
// P·q_ℓ in one step, or an ADD or SUB that merges it with a second deferred
// operand or defers in turn. A value that would only move its mod-down to a
// sum, paying the lift of the sum's other operand on top, mods down its own
// result. In a hoist set a step defers only if every member taking it does,
// since those members share one result. user is some consumer of each
// instruction, its only one when Refs is 1; degree2 marks the degree-2
// ciphertexts.
func (r *Result) deferModDowns(isOutput []bool, user []int32, degree2 []bool) []bool {
	instrs := r.Instrs
	n := len(instrs)
	leafUses := make([]int32, n)
	for i := range instrs {
		if ch := instrs[i].Chain; ch != nil {
			for _, pr := range ch.Products {
				leafUses[pr.Ct]++
			}
		}
	}
	// sum reports an ADD or SUB of two degree-1 ciphertexts outside fused
	// chains: it takes deferred operands and its result stays over Q∪P.
	sum := func(c int32) bool {
		in := &instrs[c]
		return !in.Absorbed && in.Chain == nil && (in.Kind == KindAdd || in.Kind == KindSub) &&
			!degree2[in.Parms[0]] && !degree2[in.Parms[1]]
	}
	leavesOnly := func(id int32) bool { return leafUses[id] > 0 && instrs[id].Refs == leafUses[id] }
	// held[i] reports that i can hold its result over Q∪P; single reports
	// such a value with one reference.
	held := make([]bool, n)
	single := func(id int32) bool { return held[id] && !isOutput[id] && instrs[id].Refs == 1 }
	for i := range instrs {
		in := &instrs[i]
		switch {
		case in.Kind == KindRotate || (in.Kind == KindRelinearize && degree2[in.Parms[0]]):
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
		case instrs[c].Kind == KindRescale:
			onward[i] = true
		case sum(c):
			other := instrs[c].Parms[0]
			if other == int32(i) {
				other = instrs[c].Parms[1]
			}
			onward[i] = single(other) || onward[c]
		}
	}
	// A step some member of a hoist set takes without deferring stays
	// undeferred for all.
	for _, set := range r.Hoists {
		for _, m := range set.Members {
			for _, o := range set.Members {
				if !onward[m] && instrs[o].Rot == instrs[m].Rot {
					onward[o] = false
				}
			}
		}
	}
	return onward
}

// settle gives every instruction its basis, its key-switching work and the
// kind they imply, in topological order: deferred[i] (nil for none) leaves a
// rotation or relinearization over Q∪P, and a chain root or sum too when one
// of its operands is.
func (r *Result) settle(deferred []bool) {
	instrs := r.Instrs
	qp := func(id int32) bool { return instrs[id].Basis == BasisQP }
	for i := range instrs {
		in := &instrs[i]
		if deferred != nil && deferred[i] {
			in.Basis = BasisQP
		}
		switch in.Kind {
		case KindRotate, KindRelinearize:
			if in.Basis == BasisQP {
				in.Kind++ // KindRotateQP, KindRelinearizeQP
			}
			if in.Hoist >= 0 {
				set := &r.Hoists[in.Hoist]
				if in.Basis == BasisQP {
					if set.Deferred == nil {
						set.Deferred = make([]bool, len(set.Steps))
					}
					set.Deferred[in.HoistPos] = true
				}
				if slices.Index(set.Steps, in.Rot) < int(in.HoistPos) {
					continue // a repeated step reuses the first's result
				}
			}
			in.Work = analysis.KeySwitch{Level: in.Level, Decompose: in.HoistPos == 0, ApplyKey: true, ModDown: in.Basis == BasisQ}
		case KindRescale:
			if qp(in.Parms[0]) {
				in.Kind, in.Work = KindRescaleQP, analysis.KeySwitch{Level: instrs[in.Parms[0]].Level, Rescale: true}
			}
		case KindAdd, KindSub:
			leaves, operands := 0, 0
			count := func(q int32) {
				if operands++; qp(q) {
					leaves++
				}
			}
			if in.Chain == nil {
				count(in.Parms[0])
				count(in.Parms[1])
			} else {
				for _, pr := range in.Chain.Products {
					count(pr.Ct)
				}
			}
			if leaves == 0 {
				in.Basis = BasisQ
				continue
			}
			in.Work = analysis.KeySwitch{Level: in.Level, ModDown: in.Basis == BasisQ, Lift: leaves < operands}
			if in.Chain != nil {
				in.Work.Leaves = leaves
			}
		}
	}
}

// schedule builds the scheduling graph — each fused chain contracted into its
// root and each hoist set into its first member, invariant terms left out
// (they are complete before the first unit is dispatched) — and the kernel
// groups of the bulk-synchronous scheduler.
func (r *Result) schedule() {
	instrs := r.Instrs
	seenBy := make([]int32, len(instrs)) // seenBy[u] == i+1: unit u already counted as a producer of unit i
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
			if h := instrs[q].Hoist; h >= 0 {
				q = r.Hoists[h].Members[0]
			}
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
