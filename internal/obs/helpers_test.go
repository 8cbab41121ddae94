package obs

// Get returns the JSON form of a trace by id, searching active traces first
// and then the finished ring.
func (tr *Tracer) Get(id string) (TraceJSON, bool) {
	if tr == nil {
		return TraceJSON{}, false
	}
	tr.mu.Lock()
	t := tr.active[id]
	if t == nil {
		for _, fin := range tr.ring {
			if fin != nil && fin.id == id {
				t = fin
				break
			}
		}
	}
	tr.mu.Unlock()
	if t == nil {
		return TraceJSON{}, false
	}
	return t.JSON(), true
}
