package core

import "fmt"

// Output names a term whose value the program returns, together with the
// desired fixed-point scale (log2) of the result.
type Output struct {
	Name     string
	Term     *Term
	LogScale float64
}

// Program is an EVA program: a DAG of terms over fixed-width vectors,
// together with its named inputs and outputs. The zero value is not usable;
// construct programs with NewProgram.
type Program struct {
	Name    string
	VecSize int // the fixed power-of-two width of every Cipher/Vector value

	nextID  uint64
	terms   []*Term
	inputs  []*Term
	outputs []*Output
	byName  map[string]*Term
}

// NewProgram creates an empty program whose vectors have the given
// power-of-two size.
func NewProgram(name string, vecSize int) (*Program, error) {
	if vecSize <= 0 || vecSize&(vecSize-1) != 0 {
		return nil, fmt.Errorf("core: vector size %d is not a positive power of two", vecSize)
	}
	return &Program{Name: name, VecSize: vecSize, byName: map[string]*Term{}}, nil
}

// MustNewProgram is NewProgram but panics on error; intended for tests and
// statically-known sizes.
func MustNewProgram(name string, vecSize int) *Program {
	p, err := NewProgram(name, vecSize)
	if err != nil {
		panic(err)
	}
	return p
}

// Terms returns all terms in creation order. Creation order is a topological
// order for programs built through the public API, but transformation passes
// should use TopoSort, which is robust to rewrites.
func (p *Program) Terms() []*Term { return p.terms }

// Inputs returns the input terms in declaration order.
func (p *Program) Inputs() []*Term { return p.inputs }

// Outputs returns the program outputs in declaration order.
func (p *Program) Outputs() []*Output { return p.outputs }

// InputByName returns the input term with the given name, or nil.
func (p *Program) InputByName(name string) *Term { return p.byName[name] }

// NumTerms returns the number of terms in the program.
func (p *Program) NumTerms() int { return len(p.terms) }

func (p *Program) newTerm(op OpCode, parms ...*Term) *Term {
	p.nextID++
	t := &Term{ID: p.nextID, Op: op, parms: append([]*Term(nil), parms...)}
	for slot, parm := range parms {
		parm.uses = append(parm.uses, use{child: t, slot: slot})
	}
	p.terms = append(p.terms, t)
	return t
}

// NewInput declares a named run-time input of the given type and vector
// width, encoded at the given log2 scale.
func (p *Program) NewInput(name string, typ Type, width int, logScale float64) (*Term, error) {
	if typ == TypeInvalid {
		return nil, fmt.Errorf("core: input %q has invalid type", name)
	}
	if _, dup := p.byName[name]; dup {
		return nil, fmt.Errorf("core: duplicate input name %q", name)
	}
	if err := p.checkWidth(typ, width); err != nil {
		return nil, fmt.Errorf("core: input %q: %w", name, err)
	}
	t := p.newTerm(OpInput)
	t.Name = name
	t.InType = typ
	t.VecWidth = width
	t.LogScale = logScale
	p.inputs = append(p.inputs, t)
	p.byName[name] = t
	return t, nil
}

// NewConstant declares a compile-time constant vector encoded at the given
// log2 scale. Constants can never be Cipher.
func (p *Program) NewConstant(values []float64, logScale float64) (*Term, error) {
	width := len(values)
	typ := TypeVector
	if width == 1 {
		typ = TypeScalar
	}
	if err := p.checkWidth(typ, width); err != nil {
		return nil, fmt.Errorf("core: constant: %w", err)
	}
	t := p.newTerm(OpConstant)
	t.InType = typ
	t.Value = append([]float64(nil), values...)
	t.VecWidth = width
	t.LogScale = logScale
	return t, nil
}

// NewScalarConstant declares a constant holding a single value replicated
// across all slots.
func (p *Program) NewScalarConstant(value float64, logScale float64) (*Term, error) {
	return p.NewConstant([]float64{value}, logScale)
}

func (p *Program) checkWidth(typ Type, width int) error {
	if typ == TypeScalar {
		if width != 1 {
			return fmt.Errorf("scalar values must have width 1, got %d", width)
		}
		return nil
	}
	if width <= 0 || width&(width-1) != 0 {
		return fmt.Errorf("vector width %d is not a positive power of two", width)
	}
	if width > p.VecSize {
		return fmt.Errorf("vector width %d exceeds program vector size %d", width, p.VecSize)
	}
	return nil
}

// NewUnary appends a unary instruction (NEGATE, RELINEARIZE, MOD_SWITCH).
func (p *Program) NewUnary(op OpCode, a *Term) (*Term, error) {
	if op.Arity() != 1 || op.IsRotation() || op == OpRescale {
		return nil, fmt.Errorf("core: %s is not a plain unary instruction", op)
	}
	if a == nil {
		return nil, fmt.Errorf("core: nil operand for %s", op)
	}
	return p.newTerm(op, a), nil
}

// NewBinary appends a binary instruction (ADD, SUB, MULTIPLY).
func (p *Program) NewBinary(op OpCode, a, b *Term) (*Term, error) {
	if !op.IsBinary() {
		return nil, fmt.Errorf("core: %s is not a binary instruction", op)
	}
	if a == nil || b == nil {
		return nil, fmt.Errorf("core: nil operand for %s", op)
	}
	return p.newTerm(op, a, b), nil
}

// NewRotation appends a rotation instruction by the given step count.
func (p *Program) NewRotation(op OpCode, a *Term, by int) (*Term, error) {
	if !op.IsRotation() {
		return nil, fmt.Errorf("core: %s is not a rotation", op)
	}
	if a == nil {
		return nil, fmt.Errorf("core: nil operand for %s", op)
	}
	t := p.newTerm(op, a)
	t.RotateBy = by
	return t, nil
}

// NewRescale appends a RESCALE instruction dividing the scale by 2^logScale.
func (p *Program) NewRescale(a *Term, logScale float64) (*Term, error) {
	if a == nil {
		return nil, fmt.Errorf("core: nil operand for RESCALE")
	}
	if logScale <= 0 {
		return nil, fmt.Errorf("core: rescale divisor 2^%g is not greater than one", logScale)
	}
	t := p.newTerm(OpRescale, a)
	t.LogScale = logScale
	return t, nil
}

// AddOutput marks a term as a program output with the desired log2 scale.
func (p *Program) AddOutput(name string, t *Term, logScale float64) error {
	if t == nil {
		return fmt.Errorf("core: nil output term")
	}
	for _, o := range p.outputs {
		if o.Name == name {
			return fmt.Errorf("core: duplicate output name %q", name)
		}
	}
	p.outputs = append(p.outputs, &Output{Name: name, Term: t, LogScale: logScale})
	return nil
}

// --- Graph editing used by the rewriting framework ---

// SetParm rewires parameter slot `slot` of child to point at newParm,
// maintaining the use lists of both the old and the new parameter.
func (p *Program) SetParm(child *Term, slot int, newParm *Term) {
	old := child.parms[slot]
	if old == newParm {
		return
	}
	// Remove the (child, slot) use from the old parameter.
	for i, u := range old.uses {
		if u.child == child && u.slot == slot {
			old.uses = append(old.uses[:i], old.uses[i+1:]...)
			break
		}
	}
	child.parms[slot] = newParm
	newParm.uses = append(newParm.uses, use{child: child, slot: slot})
}

// InsertUnaryAfter creates a new instruction op(t) and redirects every use of
// t selected by keep (nil means all uses, excluding the new node itself) to
// the new instruction. It returns the inserted term. This implements the
// common "insert node between n and its children" step of the rewrite rules.
func (p *Program) InsertUnaryAfter(t *Term, op OpCode, keep func(child *Term, slot int) bool) *Term {
	// Snapshot uses before adding the new node (which itself becomes a use).
	existing := append([]use(nil), t.uses...)
	n := p.newTerm(op, t)
	for _, u := range existing {
		if keep == nil || keep(u.child, u.slot) {
			p.SetParm(u.child, u.slot, n)
		}
	}
	return n
}

// RedirectOutputs makes every output currently referring to old refer to new
// instead. Rewrite passes call this together with use rewiring when the
// rewritten term is itself an output.
func (p *Program) RedirectOutputs(old, new *Term) {
	for _, o := range p.outputs {
		if o.Term == old {
			o.Term = new
		}
	}
}

// --- Traversal helpers ---

// TopoSort returns the live terms of the program in topological order
// (parameters before uses). Terms that can no longer reach an output are
// omitted. Ready terms are emitted in creation order, which keeps pass
// output deterministic.
func (p *Program) TopoSort() []*Term {
	live, n := p.liveTerms()
	indeg := make([]int32, len(p.terms))
	// out is also the queue: a term is emitted in the order it became ready.
	out := make([]*Term, 0, n)
	for _, t := range p.terms {
		if !live[t.ID-1] {
			continue
		}
		k := int32(0)
		for _, parm := range t.parms {
			if live[parm.ID-1] {
				k++
			}
		}
		indeg[t.ID-1] = k
		if k == 0 {
			out = append(out, t)
		}
	}
	for next := 0; next < len(out); next++ {
		t := out[next]
		for _, u := range t.uses {
			c := u.child
			if !live[c.ID-1] {
				continue
			}
			// Retire every parameter edge from t to c at c's first use, so c
			// is queued in the order of its first use; a second use of t by
			// c (x+x) drives c's count below zero and queues nothing.
			edges := int32(0)
			for _, parm := range c.parms {
				if parm == t {
					edges++
				}
			}
			if indeg[c.ID-1] -= edges; indeg[c.ID-1] == 0 {
				out = append(out, c)
			}
		}
	}
	if len(out) != n {
		panic("core: cycle detected in program graph")
	}
	return out
}

// liveTerms marks, by ID-1, the terms reachable from the outputs (or all
// terms, if the program has no outputs yet) and counts them.
func (p *Program) liveTerms() ([]bool, int) {
	live := make([]bool, len(p.terms))
	if len(p.outputs) == 0 {
		for i := range live {
			live[i] = true
		}
		return live, len(live)
	}
	n := 0
	stack := make([]*Term, 0, len(p.outputs))
	for _, o := range p.outputs {
		stack = append(stack, o.Term)
	}
	for len(stack) > 0 {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if live[t.ID-1] {
			continue
		}
		live[t.ID-1] = true
		n++
		stack = append(stack, t.parms...)
	}
	return live, n
}

// InferTypes computes the value type of every term of order, a topological
// order of live terms such as TopoSort returns: a term is Cipher if any of its
// parameters is Cipher, otherwise it keeps the plain vector type.
func InferTypes(order []*Term) *TermMap[Type] {
	types := &TermMap[Type]{vals: make([]Type, 0, len(order))}
	for _, t := range order {
		if t.IsLeaf() {
			types.Set(t, t.InType)
			continue
		}
		typ := TypeScalar
		for _, parm := range t.parms {
			switch types.Get(parm) {
			case TypeCipher:
				typ = TypeCipher
			case TypeVector:
				if typ != TypeCipher {
					typ = TypeVector
				}
			}
		}
		types.Set(t, typ)
	}
	return types
}

// ValidateStructure checks the structural well-formedness of the program:
// arities, leaf attributes, output presence, and (for input programs) the
// absence of compiler-only instructions. It returns the TopoSort it checked.
func (p *Program) ValidateStructure(asInput bool) ([]*Term, error) {
	if len(p.outputs) == 0 {
		return nil, fmt.Errorf("core: program %q has no outputs", p.Name)
	}
	order := p.TopoSort()
	for _, t := range order {
		if len(t.parms) != t.Op.Arity() {
			return nil, fmt.Errorf("core: %s has %d parameters, want %d", t, len(t.parms), t.Op.Arity())
		}
		if asInput && t.Op.IsCompilerOp() {
			return nil, fmt.Errorf("core: input programs may not contain %s instructions", t.Op)
		}
		switch t.Op {
		case OpInput:
			if t.Name == "" {
				return nil, fmt.Errorf("core: input term t%d has no name", t.ID)
			}
		case OpConstant:
			if t.InType == TypeCipher {
				return nil, fmt.Errorf("core: constant t%d cannot have Cipher type", t.ID)
			}
			if len(t.Value) != t.VecWidth {
				return nil, fmt.Errorf("core: constant t%d has %d values for width %d", t.ID, len(t.Value), t.VecWidth)
			}
		case OpRescale:
			if t.LogScale <= 0 {
				return nil, fmt.Errorf("core: %s has non-positive divisor", t)
			}
		}
	}
	for _, o := range p.outputs {
		if o.Term == nil {
			return nil, fmt.Errorf("core: output %q has no term", o.Name)
		}
	}
	return order, nil
}

// Clone returns a deep copy of the program with the same term IDs.
// Compilation operates on a clone so the caller's input program is never
// mutated.
func (p *Program) Clone() *Program {
	cp := &Program{
		Name:    p.Name,
		VecSize: p.VecSize,
		nextID:  p.nextID,
		terms:   make([]*Term, len(p.terms)),
		byName:  make(map[string]*Term, len(p.byName)),
	}
	// Terms()[i].ID == i+1, so a term's copy is cp.terms[ID-1]. The copies
	// and their edge lists are carved out of three blocks.
	block := make([]Term, len(p.terms))
	nparms, nuses := 0, 0
	for _, t := range p.terms {
		nparms += len(t.parms)
		nuses += len(t.uses)
	}
	parms, uses := make([]*Term, nparms), make([]use, nuses)
	for i, t := range p.terms {
		nt := &block[i]
		*nt = Term{
			ID:       t.ID,
			Op:       t.Op,
			Name:     t.Name,
			Value:    append([]float64(nil), t.Value...),
			InType:   t.InType,
			VecWidth: t.VecWidth,
			LogScale: t.LogScale,
			RotateBy: t.RotateBy,
			Kernel:   t.Kernel,
		}
		cp.terms[i] = nt
	}
	for i, t := range p.terms {
		nt := cp.terms[i]
		k := len(t.parms)
		nt.parms, parms = parms[:k:k], parms[k:]
		for j, parm := range t.parms {
			nt.parms[j] = cp.terms[parm.ID-1]
		}
		k = len(t.uses)
		nt.uses, uses = uses[:k:k], uses[k:]
		for j, u := range t.uses {
			nt.uses[j] = use{child: cp.terms[u.child.ID-1], slot: u.slot}
		}
	}
	for _, in := range p.inputs {
		nt := cp.terms[in.ID-1]
		cp.inputs = append(cp.inputs, nt)
		cp.byName[in.Name] = nt
	}
	for _, o := range p.outputs {
		cp.outputs = append(cp.outputs, &Output{Name: o.Name, Term: cp.terms[o.Term.ID-1], LogScale: o.LogScale})
	}
	return cp
}

// IsIdentityRotation reports a rotation by a multiple of the program's vector
// size: the identity on its cyclic vectors.
func (p *Program) IsIdentityRotation(t *Term) bool {
	return t.Op.IsRotation() && t.EffectiveRotation()%p.VecSize == 0
}

// Stats summarizes a program for reporting.
type Stats struct {
	Terms         int
	Instructions  map[string]int
	Inputs        int
	Outputs       int
	MultDepth     int
	RotationSteps int
}

// ComputeStats gathers instruction counts, the multiplicative depth (the
// most MULTIPLY instructions on any input-to-output path) and the number of
// distinct rotation steps (a right rotation by k is a left rotation by -k) of
// the live graph, not counting identity rotations by a multiple of VecSize.
func (p *Program) ComputeStats() Stats { return p.StatsOf(p.TopoSort()) }

// StatsOf is ComputeStats over order, a TopoSort of p that the caller already
// holds.
func (p *Program) StatsOf(order []*Term) Stats {
	s := Stats{Terms: len(order), Instructions: map[string]int{}, Inputs: len(p.inputs), Outputs: len(p.outputs)}
	depth := NewTermMap[int](p)
	steps := map[int]bool{}
	for _, t := range order {
		if !t.IsLeaf() {
			s.Instructions[t.Op.String()]++
		}
		d := 0
		for _, parm := range t.parms {
			d = max(d, depth.Get(parm))
		}
		if t.Op == OpMultiply {
			d++
		}
		depth.Set(t, d)
		s.MultDepth = max(s.MultDepth, d)
		if t.Op.IsRotation() && !p.IsIdentityRotation(t) {
			steps[t.EffectiveRotation()] = true
		}
	}
	s.RotationSteps = len(steps)
	return s
}
