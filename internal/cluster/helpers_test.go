package cluster

// owner returns the member that owns the key.
func (r *ring) owner(key string) string { return r.successors(key, 1)[0] }
