package serve

import (
	"eva/internal/ckks"
	"eva/internal/coalesce"
)

// Conversions and accessors only the tests use.

// Literal converts the wire form back to a parameters literal.
func (p ParamsJSON) Literal() ckks.ParametersLiteral {
	return ckks.ParametersLiteral{
		LogN:          p.LogN,
		LogQi:         p.LogQi,
		LogPi:         p.LogPi,
		Scale:         p.Scale,
		AllowInsecure: p.AllowInsecure,
	}
}

// Coalescer exposes the request coalescer (for tests and tooling).
func (s *Server) Coalescer() *coalesce.Coalescer { return s.coalescer }

// Registry exposes the program registry (for tests and tooling).
func (s *Server) Registry() *Registry { return s.registry }
