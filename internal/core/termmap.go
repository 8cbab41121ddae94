package core

// TermMap is a table of per-term facts indexed by Term.ID-1: the dense form of
// a map[*Term]T, which the compiler's passes use because term IDs are dense.
// Get of a term never Set returns T's zero value, as a map would; Set grows
// the table for terms created after it was made. The zero value is an empty
// table.
type TermMap[T any] struct {
	vals []T
}

// NewTermMap returns an empty table with room for every term p holds.
func NewTermMap[T any](p *Program) *TermMap[T] {
	return &TermMap[T]{vals: make([]T, len(p.terms))}
}

// Get returns the fact recorded for t.
func (m *TermMap[T]) Get(t *Term) T {
	if i := t.ID - 1; i < uint64(len(m.vals)) {
		return m.vals[i]
	}
	var zero T
	return zero
}

// Set records v for t.
func (m *TermMap[T]) Set(t *Term, v T) {
	i := t.ID - 1
	if i >= uint64(len(m.vals)) {
		m.vals = append(m.vals, make([]T, i+1-uint64(len(m.vals)))...)
	}
	m.vals[i] = v
}
