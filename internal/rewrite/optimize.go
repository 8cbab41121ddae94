package rewrite

import (
	"fmt"
	"strings"

	"eva/internal/core"
)

// This file contains frontend-level optimizations that are not required for
// correctness but reduce the number of homomorphic operations the executor
// must perform: common-subexpression elimination and folding of plain
// constant arithmetic. They operate on input programs (before the
// FHE-specific passes) and preserve the reference semantics exactly.

// EliminateCommonSubexpressions merges structurally identical terms: two
// instructions with the same opcode, the same attributes and the same
// parameters compute the same value, so all uses of the duplicate are
// redirected to a single representative. Identical constants are merged too.
// It returns the number of terms eliminated.
func EliminateCommonSubexpressions(p *core.Program) int {
	canonical := map[string]*core.Term{}
	rewritten := map[*core.Term]*core.Term{}
	removed := 0

	resolve := func(t *core.Term) *core.Term {
		if r, ok := rewritten[t]; ok {
			return r
		}
		return t
	}

	for _, t := range p.TopoSort() {
		// Rewire parameters to their representatives first.
		for slot, parm := range t.Parms() {
			if rep := resolve(parm); rep != parm {
				p.SetParm(t, slot, rep)
			}
		}
		key := cseKey(t)
		if key == "" {
			continue // inputs are never merged
		}
		if rep, ok := canonical[key]; ok {
			rewritten[t] = rep
			// Redirect every use and output of the duplicate to the representative.
			for _, e := range t.UseEdges() {
				p.SetParm(e.Child, e.Slot, rep)
			}
			p.RedirectOutputs(t, rep)
			removed++
			continue
		}
		canonical[key] = t
	}
	return removed
}

// cseKey returns a structural identity key for a term, or "" if the term must
// never be merged (run-time inputs).
func cseKey(t *core.Term) string {
	switch t.Op {
	case core.OpInput:
		return ""
	case core.OpConstant:
		var sb strings.Builder
		fmt.Fprintf(&sb, "const/%g/%d:", t.LogScale, t.VecWidth)
		for _, v := range t.Value {
			fmt.Fprintf(&sb, "%g,", v)
		}
		return sb.String()
	default:
		var sb strings.Builder
		fmt.Fprintf(&sb, "%d/%d/%g:", int(t.Op), t.RotateBy, t.LogScale)
		for _, parm := range t.Parms() {
			fmt.Fprintf(&sb, "t%d,", parm.ID)
		}
		return sb.String()
	}
}

// FoldPlainConstants evaluates instructions whose operands are all
// compile-time constants and replaces them with a single constant term,
// removing work that would otherwise be executed (as plaintext vector
// arithmetic) at run time. It returns the number of folded instructions.
func FoldPlainConstants(p *core.Program) int {
	folded := 0
	for _, t := range p.TopoSort() {
		if t.IsLeaf() || t.Op.IsCompilerOp() {
			continue
		}
		allConst := true
		for _, parm := range t.Parms() {
			if parm.Op != core.OpConstant {
				allConst = false
				break
			}
		}
		if !allConst {
			continue
		}
		values, logScale, ok := foldTerm(t)
		if !ok {
			continue
		}
		c, err := p.NewConstant(values, logScale)
		if err != nil {
			continue
		}
		for _, e := range t.UseEdges() {
			p.SetParm(e.Child, e.Slot, c)
		}
		p.RedirectOutputs(t, c)
		folded++
	}
	return folded
}

// foldTerm computes the constant value of an instruction over constant
// operands, with the scale the scale analysis would assign.
func foldTerm(t *core.Term) ([]float64, float64, bool) {
	width := 1
	for _, parm := range t.Parms() {
		if parm.VecWidth > width {
			width = parm.VecWidth
		}
	}
	at := func(parm *core.Term, i int) float64 { return parm.Value[i%len(parm.Value)] }
	out := make([]float64, width)
	var logScale float64
	switch t.Op {
	case core.OpNegate:
		for i := range out {
			out[i] = -at(t.Parm(0), i)
		}
		logScale = t.Parm(0).LogScale
	case core.OpAdd, core.OpSub:
		sign := 1.0
		if t.Op == core.OpSub {
			sign = -1
		}
		for i := range out {
			out[i] = at(t.Parm(0), i) + sign*at(t.Parm(1), i)
		}
		logScale = maxFloat(t.Parm(0).LogScale, t.Parm(1).LogScale)
	case core.OpMultiply:
		for i := range out {
			out[i] = at(t.Parm(0), i) * at(t.Parm(1), i)
		}
		logScale = t.Parm(0).LogScale + t.Parm(1).LogScale
	case core.OpRotateLeft, core.OpRotateRight:
		k := t.EffectiveRotation()
		for i := range out {
			out[i] = at(t.Parm(0), ((i+k)%width+width)%width)
		}
		logScale = t.Parm(0).LogScale
	default:
		return nil, 0, false
	}
	return out, logScale, true
}

func maxFloat(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Optimize applies the frontend optimizations until they reach a fixed point
// and returns the total number of terms removed or folded.
func Optimize(p *core.Program) int {
	total := 0
	for {
		changed := FoldPlainConstants(p) + EliminateCommonSubexpressions(p)
		total += changed
		if changed == 0 {
			return total
		}
	}
}
