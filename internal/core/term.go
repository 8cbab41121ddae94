package core

import "fmt"

// Term is a node of the program graph. Terms with parameters are
// instructions; terms without parameters are inputs or constants. The graph
// is an abstract semantic graph: every term can reach both its parameters
// (parents) and its uses (children), which is what the rewriting framework
// requires.
type Term struct {
	// ID is the term's position in creation order, counted from 1: a
	// program's Terms()[i].ID is i+1. Terms are only ever appended and Clone
	// keeps IDs, so per-term tables (TermMap) index a slice by ID-1.
	ID uint64
	Op OpCode

	parms []*Term // ordered parameters (parents)
	uses  []use   // children together with the parameter slot they use this term in

	// Attributes of leaf terms. A constant's Value is immutable once the
	// term is built: NewConstant takes its own copy, and Clone and the
	// compiled program share it.
	Name     string    // input name (OpInput)
	Value    []float64 // constant value (OpConstant); length 1 for scalars
	InType   Type      // declared type of an OpInput / OpConstant leaf
	VecWidth int       // original vector width of the leaf (power of two, ≤ program vector size)

	// LogScale is the log2 fixed-point scale. For OpInput and OpConstant it
	// is the encoding scale; for OpRescale it is the log2 of the divisor.
	LogScale float64

	// RotateBy is the step count of rotation instructions.
	RotateBy int

	// Kernel optionally labels the high-level kernel (e.g. a tensor
	// operation) that generated this term. The CHET baseline uses it for
	// per-kernel scheduling and instruction insertion.
	Kernel string
}

// use records that `child` refers to the term through parameter slot `slot`.
type use struct {
	child *Term
	slot  int
}

// Parms returns the ordered parameter list (do not mutate; use Program edit
// methods instead).
func (t *Term) Parms() []*Term { return t.parms }

// Parm returns the i-th parameter.
func (t *Term) Parm(i int) *Term { return t.parms[i] }

// NumUses returns the number of (child, slot) references to this term: a
// child counts once per parameter slot through which it uses the term.
func (t *Term) NumUses() int { return len(t.uses) }

// UseAt returns the i-th (child, slot) reference to this term without
// copying the use list; a graph edit may reorder it.
func (t *Term) UseAt(i int) UseEdge {
	u := t.uses[i]
	return UseEdge{Child: u.child, Slot: u.slot}
}

// UseEdge identifies one reference to a term: the child instruction and the
// parameter slot through which it uses the term.
type UseEdge struct {
	Child *Term
	Slot  int
}

// UseEdges returns all (child, slot) references to this term. The slice is a
// copy and safe to retain across graph edits.
func (t *Term) UseEdges() []UseEdge {
	out := make([]UseEdge, len(t.uses))
	for i, u := range t.uses {
		out[i] = UseEdge{Child: u.child, Slot: u.slot}
	}
	return out
}

// EffectiveRotation returns the left-rotation step a rotation instruction
// performs: RotateBy for ROTATE_LEFT, -RotateBy for ROTATE_RIGHT.
func (t *Term) EffectiveRotation() int {
	if t.Op == OpRotateRight {
		return -t.RotateBy
	}
	return t.RotateBy
}

// IsLeaf reports whether the term has no parameters.
func (t *Term) IsLeaf() bool { return t.Op.IsLeaf() }

func (t *Term) String() string {
	switch t.Op {
	case OpInput:
		return fmt.Sprintf("t%d:%s(%q,%s)", t.ID, t.Op, t.Name, t.InType)
	case OpConstant:
		return fmt.Sprintf("t%d:%s(width=%d)", t.ID, t.Op, t.VecWidth)
	case OpRotateLeft, OpRotateRight:
		return fmt.Sprintf("t%d:%s(by=%d)", t.ID, t.Op, t.RotateBy)
	case OpRescale:
		return fmt.Sprintf("t%d:%s(2^%g)", t.ID, t.Op, t.LogScale)
	default:
		return fmt.Sprintf("t%d:%s", t.ID, t.Op)
	}
}
