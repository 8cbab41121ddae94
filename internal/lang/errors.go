package lang

import (
	"fmt"
	"strings"
)

// Position locates a token in EVA source text. Lines are 1-based; columns are
// 1-based byte offsets within the line.
type Position struct {
	Line int
	Col  int
}

func (p Position) String() string { return fmt.Sprintf("%d:%d", p.Line, p.Col) }

// Error is one positioned diagnostic: where it happened, what went wrong, and
// the offending source line so callers (the evac CLI, the evaserve API) can
// show a caret snippet without re-reading the source.
type Error struct {
	Pos     Position
	Msg     string
	Snippet string // the source line Pos points into, without its newline
}

func (e *Error) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s", e.Pos, e.Msg)
	if e.Snippet != "" {
		fmt.Fprintf(&b, "\n  %s\n  %s^", e.Snippet, strings.Repeat(" ", caretOffset(e.Snippet, e.Pos.Col)))
	}
	return b.String()
}

// caretOffset turns the 1-based byte column into a rune offset so the caret
// lines up under the snippet even when it contains multi-byte runes.
func caretOffset(line string, col int) int {
	if col < 1 {
		return 0
	}
	byteOff := col - 1
	if byteOff > len(line) {
		byteOff = len(line)
	}
	return len([]rune(line[:byteOff]))
}

// ErrorList is an ordered collection of diagnostics; it implements error.
type ErrorList []*Error

func (l ErrorList) Error() string {
	switch len(l) {
	case 0:
		return "no errors"
	case 1:
		return l[0].Error()
	}
	parts := make([]string, len(l))
	for i, e := range l {
		parts[i] = e.Error()
	}
	return fmt.Sprintf("%d errors:\n%s", len(l), strings.Join(parts, "\n"))
}

// AsErrorList extracts the positioned diagnostics from an error returned by
// this package, if any.
func AsErrorList(err error) (ErrorList, bool) {
	if err == nil {
		return nil, false
	}
	if l, ok := err.(ErrorList); ok {
		return l, true
	}
	if e, ok := err.(*Error); ok {
		return ErrorList{e}, true
	}
	return nil, false
}

// maxErrors caps how many diagnostics are collected before parsing or
// checking bails out; beyond this, later errors are usually cascades.
const maxErrors = 50
