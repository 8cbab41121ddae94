// Package rewrite implements the graph-rewriting framework and the
// transformation passes of the EVA compiler (Section 5 of the paper): rescale
// insertion, modulus-switch insertion, scale matching, and relinearization
// insertion.
//
// Transform runs one of two pipelines. The zero Options select the paper's:
// WATERLINE-RESCALE, EAGER-MODSWITCH, MATCH-SCALE, RELINEARIZE. The CHET
// baseline (package chet) selects a fixed rescale by the maximum prime after
// every ciphertext multiplication and LAZY-MODSWITCH. Tests that need a
// program violating the scheme's constraints build it from the individual
// passes.
package rewrite

import (
	"fmt"

	"eva/internal/core"
)

// RescaleStrategy selects how RESCALE instructions are inserted. The values
// are stored: compile.Options carries them into program ids and persisted
// program records, so each keeps its number.
type RescaleStrategy int

const (
	// RescaleWaterline is the paper's strategy: always divide by the maximum
	// allowed rescale value, and only when the result stays above the
	// waterline (the maximum input scale).
	RescaleWaterline RescaleStrategy = 0
	// RescaleFixedMax inserts a rescale by the maximum allowed value after
	// every multiplication involving a ciphertext. It models the per-kernel
	// discipline of expert-written kernel libraries (the CHET baseline).
	RescaleFixedMax RescaleStrategy = 3
)

// ModSwitchStrategy selects how MOD_SWITCH instructions are inserted. Its
// values are stored like RescaleStrategy's.
type ModSwitchStrategy int

const (
	// ModSwitchEager inserts modulus switches at the earliest feasible edge
	// (Figure 4, EAGER-MODSWITCH), the paper's default.
	ModSwitchEager ModSwitchStrategy = 0
	// ModSwitchLazy inserts modulus switches immediately before the
	// instruction whose operands disagree (Figure 4, LAZY-MODSWITCH), the
	// CHET baseline's choice.
	ModSwitchLazy ModSwitchStrategy = 1
)

// Options configures the transformation pipeline.
type Options struct {
	// MaxRescaleLog is log2 of the maximum allowed rescale value s_f
	// (Constraint 4). SEAL permits 60.
	MaxRescaleLog float64
	// WaterlineLog is log2 of the waterline s_w. Zero means "use the maximum
	// scale over all inputs and constants", the paper's choice.
	WaterlineLog float64
	Rescale      RescaleStrategy
	ModSwitch    ModSwitchStrategy
}

// DefaultOptions returns the paper's default pipeline configuration.
func DefaultOptions() Options {
	return Options{MaxRescaleLog: 60, Rescale: RescaleWaterline, ModSwitch: ModSwitchEager}
}

// Transform applies the configured transformation passes to the program in
// place, in the order required by the rewrite rules of Figure 4.
func Transform(p *core.Program, opts Options) error {
	if opts.MaxRescaleLog <= 0 {
		opts.MaxRescaleLog = 60
	}
	switch opts.Rescale {
	case RescaleWaterline:
		if err := InsertRescaleWaterline(p, opts.MaxRescaleLog, opts.WaterlineLog); err != nil {
			return err
		}
	case RescaleFixedMax:
		if err := InsertRescaleFixed(p, opts.MaxRescaleLog); err != nil {
			return err
		}
	default:
		return fmt.Errorf("rewrite: unknown rescale strategy %d", opts.Rescale)
	}
	switch opts.ModSwitch {
	case ModSwitchEager:
		InsertModSwitchEager(p)
	case ModSwitchLazy:
		InsertModSwitchLazy(p)
	default:
		return fmt.Errorf("rewrite: unknown modswitch strategy %d", opts.ModSwitch)
	}
	if err := MatchScales(p); err != nil {
		return err
	}
	InsertRelinearize(p)
	return nil
}

// Waterline returns the waterline scale s_w of a program given its
// topological order: the maximum log2 scale over all inputs and constants, as
// the paper prescribes.
func Waterline(order []*core.Term) float64 {
	sw := 0.0
	for _, t := range order {
		if t.IsLeaf() && t.LogScale > sw {
			sw = t.LogScale
		}
	}
	return sw
}

// ComputeLogScales propagates fixed-point scales (as log2 values) through the
// live graph: products add scales, rescales subtract their divisor, and all
// other instructions preserve the maximum operand scale.
func ComputeLogScales(p *core.Program) map[*core.Term]float64 {
	scales := make(map[*core.Term]float64, p.NumTerms())
	scale := func(t *core.Term) float64 { return scales[t] }
	for _, t := range p.TopoSort() {
		scales[t] = ScaleOf(t, scale)
	}
	return scales
}

// ScaleOf computes the scale of t given scale, which looks up the scales of
// its parameters: the one definition of the scale rule, shared by the passes
// (over a core.TermMap) and validation (over a map).
func ScaleOf(t *core.Term, scale func(*core.Term) float64) float64 {
	switch t.Op {
	case core.OpInput, core.OpConstant:
		return t.LogScale
	case core.OpMultiply:
		return scale(t.Parm(0)) + scale(t.Parm(1))
	case core.OpRescale:
		return scale(t.Parm(0)) - t.LogScale
	case core.OpAdd, core.OpSub:
		a, b := scale(t.Parm(0)), scale(t.Parm(1))
		if a > b {
			return a
		}
		return b
	default: // NEGATE, rotations, RELINEARIZE, MOD_SWITCH
		return scale(t.Parm(0))
	}
}

// InsertRescaleWaterline applies the WATERLINE-RESCALE rule: after a
// multiplication whose result scale s_n satisfies s_n / s_f >= s_w, insert a
// RESCALE by s_f (repeatedly, until the condition no longer holds). If
// waterlineLog is zero the waterline is computed from the program's inputs.
func InsertRescaleWaterline(p *core.Program, maxRescaleLog, waterlineLog float64) error {
	if maxRescaleLog <= 0 {
		return fmt.Errorf("rewrite: maximum rescale value must be positive")
	}
	order := p.TopoSort()
	sw := waterlineLog
	if sw == 0 {
		sw = Waterline(order)
	}
	scales := core.NewTermMap[float64](p)
	for _, t := range order {
		s := ScaleOf(t, scales.Get)
		scales.Set(t, s)
		if t.Op != core.OpMultiply {
			continue
		}
		for cur := t; s-maxRescaleLog >= sw; {
			rs := p.InsertUnaryAfter(cur, core.OpRescale, nil)
			rs.LogScale = maxRescaleLog
			p.RedirectOutputs(cur, rs)
			s -= maxRescaleLog
			scales.Set(rs, s)
			cur = rs
		}
	}
	return nil
}

// InsertRescaleFixed inserts a RESCALE by a fixed divisor after every
// multiplication that involves at least one Cipher operand. This models the
// per-kernel discipline of expert-written kernel libraries (the CHET
// baseline): every kernel unconditionally rescales its result by the maximum
// prime, because a kernel compiled in isolation cannot know the scales of the
// values other kernels produce.
func InsertRescaleFixed(p *core.Program, divisorLog float64) error {
	if divisorLog <= 0 {
		return fmt.Errorf("rewrite: rescale divisor must be positive")
	}
	order := p.TopoSort()
	types := core.InferTypes(order)
	for _, t := range order {
		if t.Op != core.OpMultiply {
			continue
		}
		if types.Get(t.Parm(0)) != core.TypeCipher && types.Get(t.Parm(1)) != core.TypeCipher {
			continue
		}
		rs := p.InsertUnaryAfter(t, core.OpRescale, nil)
		rs.LogScale = divisorLog
		types.Set(rs, core.TypeCipher)
		p.RedirectOutputs(t, rs)
	}
	return nil
}

// MatchScales applies the MATCH-SCALE rule: when the operands of an ADD or
// SUB have different scales, the smaller operand is multiplied by the
// constant 1 encoded at the ratio of the scales, so that Constraint 2 holds
// without inserting additional RESCALE or MOD_SWITCH instructions.
func MatchScales(p *core.Program) error {
	scales := core.NewTermMap[float64](p)
	for _, t := range p.TopoSort() {
		scales.Set(t, ScaleOf(t, scales.Get))
		if t.Op != core.OpAdd && t.Op != core.OpSub {
			continue
		}
		a, b := scales.Get(t.Parm(0)), scales.Get(t.Parm(1))
		if a == b {
			continue
		}
		big, small := 0, 1
		if b > a {
			big, small = 1, 0
		}
		ratio := scales.Get(t.Parm(big)) - scales.Get(t.Parm(small))
		one, err := p.NewScalarConstant(1, ratio)
		if err != nil {
			return err
		}
		scales.Set(one, ratio)
		mul, err := p.NewBinary(core.OpMultiply, t.Parm(small), one)
		if err != nil {
			return err
		}
		scales.Set(mul, scales.Get(t.Parm(small))+ratio)
		p.SetParm(t, small, mul)
		scales.Set(t, scales.Get(t.Parm(big)))
	}
	return nil
}

// InsertRelinearize applies the RELINEARIZE rule: after every multiplication
// of two Cipher operands, insert a RELINEARIZE so that every downstream
// instruction sees ciphertexts of two polynomials (Constraint 3).
func InsertRelinearize(p *core.Program) {
	order := p.TopoSort()
	types := core.InferTypes(order)
	for _, t := range order {
		if t.Op != core.OpMultiply {
			continue
		}
		if types.Get(t.Parm(0)) != core.TypeCipher || types.Get(t.Parm(1)) != core.TypeCipher {
			continue
		}
		relin := p.InsertUnaryAfter(t, core.OpRelinearize, nil)
		types.Set(relin, core.TypeCipher)
		p.RedirectOutputs(t, relin)
	}
}
