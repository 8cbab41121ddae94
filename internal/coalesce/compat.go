package coalesce

import (
	"fmt"

	"eva/internal/compile"
)

// Compatible decides whether a compiled program can host coalesced
// execution, and at what stride. The rules:
//
//   - No instruction of the compiled program may rotate. A rotation moves
//     data across slot-range boundaries, so caller j's slots would read
//     caller j±1's data; the unbatched replicated encoding is immune
//     (rotating a w-periodic vector is a per-period rotation) but a packed
//     one is not. Both compiler-era and source rotations count — a rotation
//     on an all-plain operand needs no Galois key yet still crosses ranges —
//     but not one by a multiple of the vector size, which Compile folds away.
//
//   - The stride is the widest leaf of the program (inputs and constants;
//     widths are powers of two, so the max is also the least common
//     multiple). Constants narrower than the stride tile identically into
//     every stride-aligned range, which keeps packed slots equal to the
//     unbatched cleartext.
//
//   - At least two callers must fit (stride·2 ≤ VecSize); a full-width
//     program has nothing to amortize.
func Compatible(res *compile.Result) (stride int, err error) {
	for _, in := range res.Instrs {
		if in.Op.IsRotation() {
			return 0, fmt.Errorf("coalesce: the program rotates (op %s); rotations cross slot-range boundaries", in.Op)
		}
		if in.Value != nil {
			stride = max(stride, len(in.Value))
		}
	}
	for _, in := range res.Inputs {
		stride = max(stride, in.Term.VecWidth)
	}
	if stride <= 0 {
		stride = 1
	}
	if stride*2 > res.VecSize {
		return 0, fmt.Errorf("coalesce: the program has width %d of %d slots; nothing to coalesce", stride, res.VecSize)
	}
	return stride, nil
}
