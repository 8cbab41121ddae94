package ckks

import (
	"sync"

	"eva/internal/ring"
)

// polyPool recycles ring.Poly scratch buffers, keyed by level, so the
// per-instruction hot paths (key switching, rescaling, rotations) do not
// allocate multi-megabyte backing arrays on every homomorphic operation.
// Pooled polynomials come back with undefined coefficients and IsNTT
// cleared; callers must overwrite every slot.
type polyPool struct {
	pools []sync.Pool // index = level
}

func newPolyPool(r *ring.Ring) *polyPool {
	pp := &polyPool{pools: make([]sync.Pool, r.MaxLevel()+1)}
	for level := range pp.pools {
		pp.pools[level].New = func() any { return r.NewPoly(level) }
	}
	return pp
}

// Get returns a polynomial at the given level with undefined coefficients.
func (pp *polyPool) Get(level int) *ring.Poly {
	p := pp.pools[level].Get().(*ring.Poly)
	p.IsNTT = false
	return p
}

// Put returns a polynomial to the pool. The caller must not use p afterward.
func (pp *polyPool) Put(p *ring.Poly) {
	if p != nil {
		pp.pools[p.Level()].Put(p)
	}
}
