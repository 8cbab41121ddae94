package lang

import (
	"fmt"
	"math"
	"strconv"

	"eva/internal/core"
)

// Reserved words of the language. They cannot be used as input, binding, or
// output names.
var keywords = map[string]bool{
	"program": true, "vec": true, "input": true, "output": true, "width": true,
	"cipher": true, "vector": true, "scalar": true,
	"neg": true, "rotl": true, "rotr": true,
	"relin": true, "modswitch": true, "rescale": true,
}

// builtins maps the instruction-call keywords to their opcodes.
var builtins = map[string]core.OpCode{
	"neg":       core.OpNegate,
	"rotl":      core.OpRotateLeft,
	"rotr":      core.OpRotateRight,
	"relin":     core.OpRelinearize,
	"modswitch": core.OpModSwitch,
	"rescale":   core.OpRescale,
}

// IsReserved reports whether name is a keyword of the language and therefore
// unusable as an input, binding, or output name.
func IsReserved(name string) bool { return keywords[name] }

// IsIdent reports whether name is a valid (non-reserved) identifier.
func IsIdent(name string) bool {
	if name == "" || IsReserved(name) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if i == 0 && !isIdentStart(c) {
			return false
		}
		if !isIdentPart(c) {
			return false
		}
	}
	return true
}

// maxExprDepth bounds the depth of a single expression's AST so pathological
// inputs (fuzzing, a hostile /compile body) fail with a diagnostic instead
// of exhausting the stack in the recursive checker, lowerer, or printer.
// Flat operator chains count too — `x + x + x + ...` builds a left-leaning
// tree whose depth is the chain length — so the binary-operator loops charge
// one level per operator, not just per nesting level. The limit is far above
// anything the tensor frontend generates (a full conv reduction is a few
// thousand operators) while keeping the worst-case recursion a few
// megabytes of stack.
const maxExprDepth = 10000

type parser struct {
	lex   *lexer
	toks  []token
	i     int
	errs  ErrorList
	depth int
}

// ParseFile parses EVA source into an AST. The returned ErrorList is nil on
// success. The AST is returned even when there are errors (it holds whatever
// parsed cleanly), but only an error-free AST is safe to lower.
func ParseFile(src string) (*File, ErrorList) {
	lex := newLexer(src)
	p := &parser{lex: lex, toks: lex.tokens(), errs: lex.errs}
	f := p.parseFile()
	f.lines = lex.lines
	return f, p.errs
}

func (p *parser) cur() token { return p.toks[p.i] }

func (p *parser) bump() {
	if p.i < len(p.toks)-1 {
		p.i++
	}
}

func (p *parser) at(lit string) bool {
	t := p.cur()
	return (t.kind == tokPunct || t.kind == tokIdent) && t.lit == lit
}

func (p *parser) accept(lit string) bool {
	if p.at(lit) {
		p.bump()
		return true
	}
	return false
}

func (p *parser) errorf(pos Position, format string, args ...any) {
	if len(p.errs) < maxErrors {
		p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...), Snippet: p.lex.snippet(pos.Line)})
	}
}

func (p *parser) bailedOut() bool { return len(p.errs) >= maxErrors }

// expect consumes a token with the given literal or reports an error.
func (p *parser) expect(lit, context string) bool {
	if p.accept(lit) {
		return true
	}
	p.errorf(p.cur().pos, "expected %q %s, found %s", lit, context, p.cur().describe())
	return false
}

// sync skips to just past the next ';' (or to EOF) after a statement-level
// error, so one bad statement yields one diagnostic rather than a cascade.
func (p *parser) sync() {
	for p.cur().kind != tokEOF {
		if p.cur().kind == tokPunct && p.cur().lit == ";" {
			p.bump()
			return
		}
		p.bump()
	}
}

func (p *parser) parseFile() *File {
	f := &File{}
	// Header: program <name> vec=<N>;
	if !p.accept("program") {
		p.errorf(p.cur().pos, "source must start with a program header: program <name> vec=<size>;")
		p.sync()
	} else {
		f.NamePos = p.cur().pos
		switch t := p.cur(); t.kind {
		case tokIdent:
			if IsReserved(t.lit) {
				p.errorf(t.pos, "%q is a reserved word; quote it to use it as a program name", t.lit)
			}
			f.Name = t.lit
			p.bump()
		case tokString:
			name, err := strconv.Unquote(t.lit)
			if err != nil {
				p.errorf(t.pos, "invalid program name literal %s", t.lit)
			}
			f.Name = name
			p.bump()
		default:
			p.errorf(t.pos, "expected a program name, found %s", t.describe())
		}
		p.expect("vec", "in program header")
		p.expect("=", "after vec")
		f.VecPos = p.cur().pos
		f.VecSize, _ = p.parseInt("vector size")
		p.expect(";", "after program header")
	}

	for p.cur().kind != tokEOF && !p.bailedOut() {
		if stmt := p.parseStmt(); stmt != nil {
			f.Stmts = append(f.Stmts, stmt)
		}
	}
	return f
}

func (p *parser) parseStmt() Stmt {
	t := p.cur()
	switch {
	case p.at("input"):
		return p.parseInput()
	case p.at("output"):
		return p.parseOutput()
	case t.kind == tokIdent && !IsReserved(t.lit):
		return p.parseLet()
	default:
		p.errorf(t.pos, "expected a statement (input, output, or a binding), found %s", t.describe())
		p.sync()
		return nil
	}
}

// parseName consumes a non-reserved identifier used as a binding name.
func (p *parser) parseName(context string) (string, Position, bool) {
	t := p.cur()
	if t.kind != tokIdent {
		p.errorf(t.pos, "expected a name %s, found %s", context, t.describe())
		return "", t.pos, false
	}
	if IsReserved(t.lit) {
		p.errorf(t.pos, "%q is a reserved word and cannot be used as a name", t.lit)
		p.bump()
		return "", t.pos, false
	}
	p.bump()
	return t.lit, t.pos, true
}

func (p *parser) parseInput() Stmt {
	s := &InputStmt{Pos: p.cur().pos, Type: core.TypeCipher}
	p.bump() // input
	var ok bool
	if s.Name, s.NamePos, ok = p.parseName("after input"); !ok {
		p.sync()
		return nil
	}
	if p.accept(":") {
		t := p.cur()
		switch t.lit {
		case "cipher":
			s.Type = core.TypeCipher
		case "vector":
			s.Type = core.TypeVector
		case "scalar":
			s.Type = core.TypeScalar
		default:
			p.errorf(t.pos, "expected an input type (cipher, vector, or scalar), found %s", t.describe())
			p.sync()
			return nil
		}
		p.bump()
	}
	if p.at("width") {
		p.bump()
		if !p.expect("=", "after width") {
			p.sync()
			return nil
		}
		s.WidthPos = p.cur().pos
		if s.Width, ok = p.parseInt("input width"); !ok {
			p.sync()
			return nil
		}
	}
	if s.Scale, s.ScalePos, ok = p.parseScale(); !ok {
		p.sync()
		return nil
	}
	p.expect(";", "after input declaration")
	return s
}

func (p *parser) parseOutput() Stmt {
	s := &OutputStmt{Pos: p.cur().pos}
	p.bump() // output
	var ok bool
	if s.Name, s.NamePos, ok = p.parseName("after output"); !ok {
		p.sync()
		return nil
	}
	if p.accept("=") {
		if s.Expr = p.parseExpr(); s.Expr == nil {
			p.sync()
			return nil
		}
	}
	if s.Scale, s.ScalePos, ok = p.parseScale(); !ok {
		p.sync()
		return nil
	}
	p.expect(";", "after output declaration")
	return s
}

func (p *parser) parseLet() Stmt {
	s := &LetStmt{}
	var ok bool
	if s.Name, s.NamePos, ok = p.parseName("on the left of ="); !ok {
		p.sync()
		return nil
	}
	if !p.expect("=", "in binding") {
		p.sync()
		return nil
	}
	if s.Expr = p.parseExpr(); s.Expr == nil {
		p.sync()
		return nil
	}
	p.expect(";", "after binding")
	return s
}

// parseScale consumes `@ <number>` (optionally negative).
func (p *parser) parseScale() (float64, Position, bool) {
	if !p.expect("@", "before the scale (scales are written @30)") {
		return 0, p.cur().pos, false
	}
	pos := p.cur().pos
	v, ok := p.parseSignedNumber("scale")
	return v, pos, ok
}

func (p *parser) parseSignedNumber(what string) (float64, bool) {
	neg := p.accept("-")
	t := p.cur()
	if t.kind != tokNumber {
		p.errorf(t.pos, "expected a %s, found %s", what, t.describe())
		return 0, false
	}
	p.bump()
	v, err := strconv.ParseFloat(t.lit, 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		p.errorf(t.pos, "%s %q is not a finite number", what, t.lit)
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

func (p *parser) parseInt(what string) (int, bool) {
	pos := p.cur().pos
	v, ok := p.parseSignedNumber(what)
	if !ok {
		return 0, false
	}
	if v != math.Trunc(v) || math.Abs(v) > 1<<53 {
		p.errorf(pos, "%s must be an integer, got %g", what, v)
		return 0, false
	}
	return int(v), true
}

// --- Expressions ---

// enter charges one level of expression depth; callers must pair it with
// leave. It reports false (with a diagnostic) once the limit is reached.
func (p *parser) enter(pos Position) bool {
	if p.depth >= maxExprDepth {
		p.errorf(pos, "expression nested too deeply (more than %d levels)", maxExprDepth)
		return false
	}
	p.depth++
	return true
}

func (p *parser) leave(levels int) { p.depth -= levels }

func (p *parser) parseExpr() Expr {
	if !p.enter(p.cur().pos) {
		return nil
	}
	levels := 1
	defer func() { p.leave(levels) }()

	x := p.parseTerm()
	if x == nil {
		return nil
	}
	for {
		t := p.cur()
		var op core.OpCode
		switch {
		case p.at("+"):
			op = core.OpAdd
		case p.at("-"):
			op = core.OpSub
		default:
			return x
		}
		p.bump()
		// Each chained operator deepens the left-leaning tree by one.
		if !p.enter(t.pos) {
			return nil
		}
		levels++
		y := p.parseTerm()
		if y == nil {
			return nil
		}
		x = &Binary{OpPos: t.pos, Op: op, X: x, Y: y}
	}
}

func (p *parser) parseTerm() Expr {
	x := p.parseUnary()
	if x == nil {
		return nil
	}
	levels := 0
	defer func() { p.leave(levels) }()
	for p.at("*") {
		pos := p.cur().pos
		p.bump()
		if !p.enter(pos) {
			return nil
		}
		levels++
		y := p.parseUnary()
		if y == nil {
			return nil
		}
		x = &Binary{OpPos: pos, Op: core.OpMultiply, X: x, Y: y}
	}
	return x
}

func (p *parser) parseUnary() Expr {
	if !p.at("-") {
		return p.parsePrimary()
	}
	pos := p.cur().pos
	p.bump()
	if !p.enter(pos) {
		return nil
	}
	x := p.parseUnary()
	p.leave(1)
	if x == nil {
		return nil
	}
	// A minus in front of a constant literal folds into the constant, so
	// `-2@30` is a single negative constant, not a NEGATE instruction.
	if c, ok := x.(*Const); ok {
		neg := &Const{Pos: pos, Values: make([]float64, len(c.Values)), IsVector: c.IsVector, Scale: c.Scale, ScalePos: c.ScalePos}
		for i, v := range c.Values {
			neg.Values[i] = -v
		}
		return neg
	}
	return &Call{Pos: pos, Op: core.OpNegate, X: x}
}

func (p *parser) parsePrimary() Expr {
	t := p.cur()
	switch {
	case t.kind == tokNumber:
		p.bump()
		v, err := strconv.ParseFloat(t.lit, 64)
		if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
			p.errorf(t.pos, "constant %q is not a finite number", t.lit)
			return nil
		}
		c := &Const{Pos: t.pos, Values: []float64{v}}
		var ok bool
		if c.Scale, c.ScalePos, ok = p.parseScale(); !ok {
			return nil
		}
		return c
	case p.at("["):
		return p.parseVectorConst()
	case p.at("("):
		p.bump()
		x := p.parseExpr()
		if x == nil {
			return nil
		}
		if !p.expect(")", "to close the parenthesized expression") {
			return nil
		}
		return x
	case t.kind == tokIdent:
		if op, isBuiltin := builtins[t.lit]; isBuiltin {
			return p.parseCall(t, op)
		}
		if IsReserved(t.lit) {
			p.errorf(t.pos, "unexpected keyword %q in expression", t.lit)
			return nil
		}
		p.bump()
		if p.at("(") {
			p.errorf(t.pos, "unknown function %q (available: neg, rotl, rotr, relin, modswitch, rescale)", t.lit)
			return nil
		}
		return &Ident{Pos: t.pos, Name: t.lit}
	default:
		p.errorf(t.pos, "expected an expression, found %s", t.describe())
		return nil
	}
}

func (p *parser) parseVectorConst() Expr {
	c := &Const{Pos: p.cur().pos, IsVector: true}
	p.bump() // [
	if p.at("]") {
		p.errorf(p.cur().pos, "vector literal cannot be empty")
		return nil
	}
	for {
		v, ok := p.parseSignedNumber("vector element")
		if !ok {
			return nil
		}
		c.Values = append(c.Values, v)
		if p.accept(",") {
			continue
		}
		break
	}
	if !p.expect("]", "to close the vector literal") {
		return nil
	}
	var ok bool
	if c.Scale, c.ScalePos, ok = p.parseScale(); !ok {
		return nil
	}
	return c
}

func (p *parser) parseCall(name token, op core.OpCode) Expr {
	p.bump() // the builtin name
	call := &Call{Pos: name.pos, Op: op}
	if !p.expect("(", fmt.Sprintf("after %s", name.lit)) {
		return nil
	}
	if call.X = p.parseExpr(); call.X == nil {
		return nil
	}
	switch op {
	case core.OpRotateLeft, core.OpRotateRight:
		if !p.expect(",", "before the rotation step") {
			return nil
		}
		var ok bool
		if call.By, ok = p.parseInt("rotation step"); !ok {
			return nil
		}
	case core.OpRescale:
		if !p.expect(",", "before the rescale divisor") {
			return nil
		}
		call.ScalePos = p.cur().pos
		var ok bool
		if call.Scale, ok = p.parseSignedNumber("rescale divisor (log2)"); !ok {
			return nil
		}
	}
	if !p.expect(")", fmt.Sprintf("to close the %s call", name.lit)) {
		return nil
	}
	return call
}
