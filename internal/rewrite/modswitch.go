package rewrite

import (
	"sort"

	"eva/internal/core"
)

// InsertModSwitchLazy applies the LAZY-MODSWITCH rule: walking forward, when
// the operands of an ADD, SUB or MULTIPLY are at different levels, insert the
// appropriate number of MOD_SWITCH instructions directly before the
// instruction, on the edge of the higher-modulus (lower-level) operand.
func InsertModSwitchLazy(p *core.Program) {
	levels := core.NewTermMap[int](p)
	for _, t := range p.TopoSort() {
		// Compute this term's level from its (possibly rewritten) operands.
		l := 0
		for _, parm := range t.Parms() {
			l = max(l, levels.Get(parm))
		}
		if t.Op.IsModulusChanging() {
			l++
		}
		levels.Set(t, l)

		if !t.Op.IsBinary() {
			continue
		}
		la, lb := levels.Get(t.Parm(0)), levels.Get(t.Parm(1))
		if la == lb {
			continue
		}
		lowSlot := 0
		diff := lb - la
		if la > lb {
			lowSlot = 1
			diff = la - lb
		}
		cur := t.Parm(lowSlot)
		for i := 0; i < diff; i++ {
			ms, err := p.NewUnary(core.OpModSwitch, cur)
			if err != nil {
				panic(err) // cannot happen: MOD_SWITCH is a valid unary op
			}
			levels.Set(ms, levels.Get(cur)+1)
			cur = ms
		}
		p.SetParm(t, lowSlot, cur)
	}
}

// InsertModSwitchEager applies the EAGER-MODSWITCH rule: walking backward,
// whenever the uses of a term require different rescale-chain lengths below
// it, a shared chain of MOD_SWITCH instructions is inserted immediately after
// the term and the lower-requirement uses are attached to it, so that every
// use of every term sees the same chain length. Finally, Cipher roots whose
// chains are shorter than the longest root chain are padded right below the
// root (the paper's omitted root rule).
func InsertModSwitchEager(p *core.Program) {
	rlevels := core.NewTermMap[int](p)
	order := p.TopoSort()
	types := core.InferTypes(order)
	// Only the term being equalized is ever redirected away from an output,
	// so the set of output terms can be taken once, before the walk.
	outputs := core.NewTermMap[bool](p)
	for _, o := range p.Outputs() {
		outputs.Set(o.Term, true)
	}

	for i := len(order) - 1; i >= 0; i-- {
		t := order[i]
		equalizeUses(p, t, rlevels, outputs.Get(t))
		r := 0
		for j := range t.NumUses() {
			r = max(r, rlevels.Get(t.UseAt(j).Child))
		}
		if t.Op.IsModulusChanging() {
			r++
		}
		rlevels.Set(t, r)
	}

	// Root rule: all Cipher inputs are freshly encrypted under the same
	// modulus, so their chains must have equal length; pad the shorter ones
	// immediately below the root.
	rmax := 0
	for _, in := range p.Inputs() {
		if types.Get(in) == core.TypeCipher {
			rmax = max(rmax, rlevels.Get(in))
		}
	}
	for _, in := range p.Inputs() {
		if types.Get(in) != core.TypeCipher || rlevels.Get(in) >= rmax {
			continue
		}
		needed := rmax - rlevels.Get(in)
		cur := in
		for i := 0; i < needed; i++ {
			ms := p.InsertUnaryAfter(cur, core.OpModSwitch, nil)
			p.RedirectOutputs(cur, ms)
			rlevels.Set(ms, rlevels.Get(cur))
			cur = ms
		}
		rlevels.Set(in, rmax)
	}
}

// equalizeUses groups the uses of t by the rescale-chain length they require
// below t and, when they disagree, inserts a shared chain of MOD_SWITCH nodes
// after t so that lower-requirement uses are fed through additional drops.
// An output (isOutput) requires level 0.
func equalizeUses(p *core.Program, t *core.Term, rlevels *core.TermMap[int], isOutput bool) {
	// Most terms' uses agree: check that before snapshotting anything.
	want, agree := -1, true
	if isOutput {
		want = 0
	}
	for i := 0; agree && i < t.NumUses(); i++ {
		l := rlevels.Get(t.UseAt(i).Child)
		if want < 0 {
			want = l
		}
		agree = l == want
	}
	if agree {
		return
	}
	edges := t.UseEdges()
	// Distinct required levels among uses (outputs require level 0).
	levelSet := map[int]bool{}
	for _, e := range edges {
		levelSet[rlevels.Get(e.Child)] = true
	}
	if isOutput {
		levelSet[0] = true
	}
	levels := make([]int, 0, len(levelSet))
	for l := range levelSet {
		levels = append(levels, l)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))

	rmax := levels[0]
	cur := t
	curLevel := rmax
	for _, lv := range levels[1:] {
		// Extend the shared chain down to level lv.
		for curLevel > lv {
			ms, err := p.NewUnary(core.OpModSwitch, cur)
			if err != nil {
				panic(err)
			}
			rlevels.Set(ms, curLevel) // a drop node at requirement curLevel has rlevel curLevel
			cur = ms
			curLevel--
		}
		// Attach every use requiring exactly lv to the end of the chain.
		for _, e := range edges {
			if rlevels.Get(e.Child) == lv && e.Child.Parm(e.Slot) == t {
				p.SetParm(e.Child, e.Slot, cur)
			}
		}
		if isOutput && lv == 0 {
			p.RedirectOutputs(t, cur)
		}
	}
}
