package rewrite

import "eva/internal/core"

// RotationSets returns the hoistable rotation groups of a program: maximal
// sets of two or more rotation instructions (ROTATE_LEFT / ROTATE_RIGHT) that
// rotate the same Cipher term. Rotations in one set can share a single RNS
// digit decomposition of their common operand (Halevi–Shoup hoisting), so the
// executor dispatches each set as one hoisted batch instead of N independent
// key switches.
//
// Grouping is by the direct parameter term, which is exactly the sharing the
// backend can exploit: if the compiler interposed a MOD_SWITCH or RESCALE
// between two rotations of what was originally one value, their operands are
// different ciphertexts and they land in different sets. Rotations of plain
// (Vector/Scalar) values never reach the key-switching backend and are
// excluded. Duplicate steps within a set are kept — the batch computes the
// step once and every duplicate reuses the result.
//
// Sets are returned in program (topological) order of their source terms, and
// members within a set in topological order, so callers get deterministic
// output for a given program.
func RotationSets(p *core.Program) [][]*core.Term {
	order := p.TopoSort()
	types := core.InferTypes(order)
	groups := core.NewTermMap[[]*core.Term](p)
	var sources []*core.Term
	for _, t := range order {
		if !t.Op.IsRotation() {
			continue
		}
		src := t.Parm(0)
		if types.Get(src) != core.TypeCipher {
			continue
		}
		if len(groups.Get(src)) == 0 {
			sources = append(sources, src)
		}
		groups.Set(src, append(groups.Get(src), t))
	}
	var sets [][]*core.Term
	for _, src := range sources {
		if members := groups.Get(src); len(members) >= 2 {
			sets = append(sets, members)
		}
	}
	return sets
}

// FoldIdentityRotations bypasses every rotation by a multiple of the vector
// size, which is the identity on EVA's cyclic vectors: each use and output of
// such a rotation is rewired to its operand, leaving the rotation dead. Slot
// counts are multiples of the vector size, so after this pass no rotation
// reaching the backend has a step ≡ 0 modulo the slot count. It returns the
// number of identity rotations it found.
func FoldIdentityRotations(p *core.Program) int {
	folded := 0
	for _, t := range p.Terms() {
		if !p.IsIdentityRotation(t) {
			continue
		}
		for _, e := range t.UseEdges() {
			p.SetParm(e.Child, e.Slot, t.Parm(0))
		}
		p.RedirectOutputs(t, t.Parm(0))
		folded++
	}
	return folded
}
