package compile

import (
	"math"
	"testing"

	"eva/internal/analysis"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// The reference* walks are the estimators as they were written over the term
// graph, before they read the dense form: per-term levels, types and use
// counts re-derived from the program. checkLowering holds the dense walks to
// them.

// referenceLevels is each live term's rescale-chain length: the number of
// RESCALE and MOD_SWITCH instructions on a path from a root to the term,
// maximized over paths.
func referenceLevels(p *core.Program) map[*core.Term]int {
	levels := make(map[*core.Term]int, p.NumTerms())
	for _, t := range p.TopoSort() {
		l := 0
		for _, parm := range t.Parms() {
			l = max(l, levels[parm])
		}
		if t.Op.IsModulusChanging() {
			l++
		}
		levels[t] = l
	}
	return levels
}

// referenceDeferred re-derives the lazy mod-downs over the term graph. The
// fused chains are the maximal ADD trees whose sums and leaves are used once
// and are not outputs, a leaf being a product of a Cipher term with a Plain
// term that no INPUT reaches; a chain is statically fusable when its leaves
// share one level and one scale. A Cipher rotation, a relinearization of a
// degree-2 term, a chain root with a deferred leaf, and a Cipher ADD or SUB
// with a deferred operand leave their result over Q∪P when they are not
// outputs and either every use is a leaf of a fusable chain or their one use
// is a RESCALE or an ADD or SUB of two degree-1 Cipher terms — except a
// rotation some member of its rotation set taking the same step does not
// defer with, and a term whose sum would mod down the one deferred operand
// it has (found by refusing such sums and marking again). It returns the
// deferring terms, per chain root how many of its leaves multiply a deferring
// term, and the chain roots with a leaf that multiplies no deferring term.
func referenceDeferred(p *core.Program) (deferred map[*core.Term]bool, finished map[*core.Term]int, lifted map[*core.Term]bool) {
	order := p.TopoSort()
	types := core.InferTypes(order)
	levels, scales := referenceLevels(p), rewrite.ComputeLogScales(p)
	uses, output := map[*core.Term]int{}, map[*core.Term]bool{}
	for _, o := range p.Outputs() {
		uses[o.Term]++
		output[o.Term] = true
	}
	invariant, user := map[*core.Term]bool{}, map[*core.Term]*core.Term{}
	leafCt, tree := map[*core.Term]*core.Term{}, map[*core.Term]bool{}
	once := func(t *core.Term) bool { return uses[t] == 1 && !output[t] }
	for _, t := range order {
		inv := t.Op != core.OpInput
		for _, q := range t.Parms() {
			uses[q]++
			user[q] = t
			inv = inv && invariant[q]
		}
		invariant[t] = inv && types.Get(t) != core.TypeCipher
	}
	for _, t := range order {
		if types.Get(t) != core.TypeCipher || len(t.Parms()) != 2 {
			continue
		}
		a, b := t.Parm(0), t.Parm(1)
		switch {
		case t.Op == core.OpMultiply && once(t) && types.Get(a) == core.TypeCipher && invariant[b]:
			leafCt[t] = a
		case t.Op == core.OpMultiply && once(t) && types.Get(b) == core.TypeCipher && invariant[a]:
			leafCt[t] = b
		case t.Op == core.OpAdd:
			fusable := func(q *core.Term) bool { return once(q) && (leafCt[q] != nil || tree[q]) }
			tree[t] = fusable(a) && fusable(b)
		}
	}
	leaves := func(root *core.Term) []*core.Term {
		var out []*core.Term
		var walk func(t *core.Term)
		walk = func(t *core.Term) {
			if leafCt[t] != nil {
				out = append(out, t)
				return
			}
			walk(t.Parm(0))
			walk(t.Parm(1))
		}
		walk(root)
		return out
	}
	var roots []*core.Term
	leafUses := map[*core.Term]int{}
	for _, t := range order {
		if !tree[t] || (once(t) && tree[user[t]]) {
			continue
		}
		roots = append(roots, t)
		ls := leaves(t)
		fusable := true
		for _, l := range ls {
			fusable = fusable && levels[l] == levels[ls[0]] && math.Abs(scales[l]-scales[ls[0]]) <= 1e-9
		}
		for _, l := range ls {
			if fusable {
				leafUses[leafCt[l]]++
			}
		}
	}
	degree2 := map[*core.Term]bool{}
	for _, t := range order {
		degree2[t] = t.Op == core.OpMultiply && len(t.Parms()) == 2 &&
			types.Get(t.Parm(0)) == core.TypeCipher && types.Get(t.Parm(1)) == core.TypeCipher
		for _, q := range t.Parms() {
			degree2[t] = degree2[t] || (degree2[q] && t.Op != core.OpRelinearize)
		}
	}
	isRoot := map[*core.Term]bool{}
	for _, root := range roots {
		isRoot[root] = true
	}
	summand := func(u *core.Term) bool {
		a, b := u.Parm(0), u.Parm(1)
		return !isRoot[u] && types.Get(a) == core.TypeCipher && types.Get(b) == core.TypeCipher && !degree2[a] && !degree2[b]
	}
	// mark defers greedily: every sum takes deferred operands unless refused.
	mark := func(refused map[*core.Term]bool) (map[*core.Term]bool, map[*core.Term]int, map[*core.Term]bool) {
		mayDefer := func(t *core.Term) bool {
			if output[t] {
				return false
			}
			if leafUses[t] > 0 && uses[t] == leafUses[t] {
				return true
			}
			if uses[t] != 1 {
				return false
			}
			switch u := user[t]; u.Op {
			case core.OpRescale:
				return true
			case core.OpAdd, core.OpSub:
				return summand(u) && !refused[u]
			}
			return false
		}
		deferred := map[*core.Term]bool{}
		for _, t := range order {
			if types.Get(t) == core.TypeCipher && !t.IsLeaf() &&
				(t.Op.IsRotation() || (t.Op == core.OpRelinearize && degree2[t.Parm(0)])) {
				deferred[t] = mayDefer(t)
			}
		}
		for _, set := range rewrite.RotationSets(p) {
			undeferred := map[int]bool{}
			for _, r := range set {
				undeferred[r.EffectiveRotation()] = undeferred[r.EffectiveRotation()] || !deferred[r]
			}
			for _, r := range set {
				deferred[r] = deferred[r] && !undeferred[r.EffectiveRotation()]
			}
		}
		finished, lifted := map[*core.Term]int{}, map[*core.Term]bool{}
		for _, t := range order {
			if isRoot[t] {
				for _, l := range leaves(t) {
					if deferred[leafCt[l]] {
						finished[t]++
					} else {
						lifted[t] = true
					}
				}
				deferred[t] = finished[t] > 0 && mayDefer(t)
				continue
			}
			if types.Get(t) == core.TypeCipher && (t.Op == core.OpAdd || t.Op == core.OpSub) {
				deferred[t] = (deferred[t.Parm(0)] || deferred[t.Parm(1)]) && mayDefer(t)
			}
		}
		return deferred, finished, lifted
	}
	// A sum that mods down the one deferred operand it has saves nothing:
	// refuse it deferred operands until no such sum is left.
	refused := map[*core.Term]bool{}
	for {
		deferred, finished, lifted := mark(refused)
		done := true
		for _, t := range order {
			if types.Get(t) == core.TypeCipher && (t.Op == core.OpAdd || t.Op == core.OpSub) && !isRoot[t] &&
				!deferred[t] && deferred[t.Parm(0)] != deferred[t.Parm(1)] {
				refused[t], done = true, false
			}
		}
		if done {
			return deferred, finished, lifted
		}
	}
}

// referenceCost prices every Cipher term of the topological order by OpUnits
// at its chain length, except the key switching relinearizations and
// rotations do, priced by KeySwitchPrice: rewrite.RotationSets are the
// hoisted batches, each decomposing once (for its first member) and applying
// one key per distinct step, a repeated step reusing the batch's result at no
// cost; any other relinearization or rotation does all three parts. A term
// referenceDeferred finds deferring skips its mod-down. The root of a chain
// with deferred leaves pays their special-limb products on top of its sum,
// and it or a sum with a deferred operand pays the lift of its Q-only
// operands, if any, and the mod-down unless it defers too; a rescale of a deferred term pays the division by P·q_ℓ in one step
// instead of its OpUnits. It tracks the dearest dependence chain.
func referenceCost(m analysis.CostModel, p *core.Program) analysis.CostEstimate {
	levels := referenceLevels(p)
	order := p.TopoSort()
	types := core.InferTypes(order)
	deferred, finished, lifted := referenceDeferred(p)
	// batched holds what each hoisted rotation does.
	batched := map[*core.Term]*analysis.KeySwitch{}
	for _, set := range rewrite.RotationSets(p) {
		taken := map[int]bool{}
		for i, t := range set {
			ks, step := &analysis.KeySwitch{Level: levels[t]}, t.EffectiveRotation()
			if !taken[step] {
				ks.Decompose, ks.ApplyKey, ks.ModDown = i == 0, true, !deferred[t]
			}
			taken[step] = true
			batched[t] = ks
		}
	}
	est := analysis.CostEstimate{ByOp: map[string]float64{}}
	pathCost := map[*core.Term]float64{}
	for _, t := range order {
		var cost float64
		if !t.IsLeaf() && types.Get(t) == core.TypeCipher {
			ks, inSet := batched[t]
			if !inSet && (t.Op == core.OpRelinearize || t.Op.IsRotation()) {
				ks = &analysis.KeySwitch{Level: levels[t], Decompose: true, ApplyKey: true, ModDown: !deferred[t]}
			}
			ctct := t.Op == core.OpMultiply &&
				types.Get(t.Parm(0)) == core.TypeCipher && types.Get(t.Parm(1)) == core.TypeCipher
			sum := func() float64 { return m.OpUnits(t.Op, levels[t], false) }
			switch {
			case finished[t] > 0:
				cost = sum() + m.KeySwitchPrice(analysis.KeySwitch{Level: levels[t], ModDown: !deferred[t],
					Lift: lifted[t], Leaves: finished[t]})
			case ks != nil:
				cost = m.KeySwitchPrice(*ks)
			case (t.Op == core.OpAdd || t.Op == core.OpSub) && (deferred[t.Parm(0)] || deferred[t.Parm(1)]):
				cost = sum() + m.KeySwitchPrice(analysis.KeySwitch{Level: levels[t], ModDown: !deferred[t],
					Lift: deferred[t.Parm(0)] != deferred[t.Parm(1)]})
			case t.Op == core.OpRescale && deferred[t.Parm(0)]:
				cost = m.FusedRescaleUnits(levels[t.Parm(0)])
			default:
				cost = m.OpUnits(t.Op, levels[t], ctct)
			}
		}
		est.Total += cost
		est.ByOp[t.Op.String()] += cost
		longest := 0.0
		for _, parm := range t.Parms() {
			longest = max(longest, pathCost[parm])
		}
		pathCost[t] = longest + cost
		est.CriticalPath = max(est.CriticalPath, pathCost[t])
	}
	return est
}

// referencePeak replays liveness over the topological order with refcounts
// from Term.UseEdges, which counts the uses of dead terms too: after
// FoldIdentityRotations a value some dead rotation still names is never freed,
// so it agrees with PeakMemoryBytes only on programs without dead terms. A term that
// defers its mod-down (referenceDeferred) also holds two polynomials over the
// α special primes.
func referencePeak(m analysis.CostModel, p *core.Program) int64 {
	levels := referenceLevels(p)
	order := p.TopoSort()
	types := core.InferTypes(order)
	n := int64(1) << uint(m.LogN)
	deferred, _, _ := referenceDeferred(p)
	bytesOf := func(t *core.Term) int64 {
		if types.Get(t) != core.TypeCipher {
			return 8 * n
		}
		limbs := int64(max(m.TotalLevels-levels[t], 1))
		polys := int64(2)
		if t.Op == core.OpMultiply &&
			types.Get(t.Parm(0)) == core.TypeCipher && types.Get(t.Parm(1)) == core.TypeCipher {
			polys = 3
		}
		if deferred[t] {
			limbs += int64(max(m.DigitSize, 1))
		}
		return 8 * n * limbs * polys
	}
	refcounts := make(map[*core.Term]int, len(order))
	for _, o := range p.Outputs() {
		refcounts[o.Term]++
	}
	for _, t := range order {
		refcounts[t] += len(t.UseEdges())
	}
	var live, peak int64
	alive := make(map[*core.Term]int64, len(order))
	for _, t := range order {
		alive[t] = bytesOf(t)
		live += alive[t]
		peak = max(peak, live)
		for _, parm := range t.Parms() {
			if refcounts[parm]--; refcounts[parm] == 0 {
				live -= alive[parm]
				delete(alive, parm)
			}
		}
	}
	return peak
}

// lowerAt lowers a program as it stands, without transforming or validating
// it (each term's level is referenceLevels'), and prices it at ring degree
// 2^logN on a chain of the given length with per-prime key switching.
func lowerAt(p *core.Program, logN, chainLength int) *Result {
	chains := map[*core.Term]analysis.Chain{}
	for t, l := range referenceLevels(p) {
		chains[t] = make(analysis.Chain, l)
	}
	res := Lower(p, chains, rewrite.ComputeLogScales(p))
	res.LogN, res.Plan = logN, &analysis.ParameterPlan{BitSizes: make([]int, chainLength)}
	return res
}

// maxChain is the longest chain of a program's terms.
func maxChain(p *core.Program) int {
	longest := 0
	for _, l := range referenceLevels(p) {
		longest = max(longest, l)
	}
	return longest
}

func TestCostModelBasicProperties(t *testing.T) {
	p := buildExample(t, 8, 60, 30)
	if err := rewrite.Transform(p, rewrite.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	est := lowerAt(p, 13, maxChain(p)+2).Cost()
	if est.Total <= 0 || est.CriticalPath <= 0 {
		t.Fatal("cost estimate should be positive")
	}
	if est.CriticalPath > est.Total {
		t.Error("critical path cannot exceed total work")
	}
	if est.ParallelSpeedupBound() < 1 {
		t.Error("parallel speedup bound below 1")
	}
	// Key switching must dominate this multiplication-heavy program.
	if est.ByOp["RELINEARIZE"] <= est.ByOp["ADD"] {
		t.Errorf("expected relinearization to dominate: %v", est.ByOp)
	}
}

// TestCostModelRewardsShorterChains checks the model captures the paper's
// core performance argument: the same program compiled with a longer modulus
// chain (the CHET-style fixed rescaling) costs more than with the waterline
// pipeline.
func TestCostModelRewardsShorterChains(t *testing.T) {
	// Scales of 2^30 make waterline rescaling skip every other level, which is
	// exactly where EVA saves chain primes over the per-multiply discipline.
	build := func() *core.Program {
		p := core.MustNewProgram("chain", 8)
		x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
		y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
		cur, _ := p.NewBinary(core.OpMultiply, x, y)
		for i := 0; i < 3; i++ {
			sq, _ := p.NewBinary(core.OpMultiply, cur, cur)
			cur = sq
		}
		p.AddOutput("out", cur, 30)
		return p
	}

	waterline := build()
	if err := rewrite.Transform(waterline, rewrite.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	fixed := build()
	opts := rewrite.DefaultOptions()
	opts.Rescale = rewrite.RescaleFixedMax
	opts.ModSwitch = rewrite.ModSwitchLazy
	if err := rewrite.Transform(fixed, opts); err != nil {
		t.Fatal(err)
	}

	wlCost := lowerAt(waterline, 14, maxChain(waterline)+2).Cost()
	fxCost := lowerAt(fixed, 14, maxChain(fixed)+2).Cost()
	if wlCost.Total >= fxCost.Total {
		t.Errorf("waterline cost %.3g should be below fixed-rescale cost %.3g", wlCost.Total, fxCost.Total)
	}
}

func memProgram(t *testing.T, chain int) *core.Program {
	t.Helper()
	p := core.MustNewProgram("mem", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	acc := x
	for i := 0; i < chain; i++ {
		acc, _ = p.NewBinary(core.OpMultiply, acc, x)
	}
	if err := p.AddOutput("out", acc, 30); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimatePeakMemoryBytes(t *testing.T) {
	small := lowerAt(memProgram(t, 1), 12, 4).PeakMemoryBytes()
	large := lowerAt(memProgram(t, 3), 12, 4).PeakMemoryBytes()
	if small <= 0 {
		t.Fatalf("estimate not positive: %d", small)
	}
	// A fresh input ciphertext is 2 polys x 4 limbs x 4096 coeffs x 8 bytes.
	if minInput := int64(2 * 4 * 4096 * 8); small < minInput {
		t.Errorf("estimate %d smaller than one input ciphertext (%d)", small, minInput)
	}
	if large <= small {
		t.Errorf("deeper program estimated at %d bytes, shallow one at %d; want growth", large, small)
	}
}

func TestEstimatePeakMemoryPlainProgram(t *testing.T) {
	p := core.MustNewProgram("plain", 8)
	x, _ := p.NewInput("x", core.TypeVector, 8, 30)
	y, _ := p.NewBinary(core.OpAdd, x, x)
	if err := p.AddOutput("out", y, 30); err != nil {
		t.Fatal(err)
	}
	// Two live plain vectors of 2^12 float64s.
	if est, want := lowerAt(p, 12, 4).PeakMemoryBytes(), int64(2*8*4096); est != want {
		t.Errorf("plain-only estimate = %d; want %d", est, want)
	}
}

// TestEstimatePeakAccountsDegree3Products: an unrelinearized cipher-cipher
// product is charged three polynomials.
func TestEstimatePeakAccountsDegree3Products(t *testing.T) {
	// Live set peaks with the input (2 polys) plus the product (3 polys),
	// all at 1 limb of 4096 coefficients.
	if est, want := lowerAt(memProgram(t, 1), 12, 1).PeakMemoryBytes(), int64((2+3)*1*4096*8); est != want {
		t.Errorf("estimate = %d; want %d", est, want)
	}
}
