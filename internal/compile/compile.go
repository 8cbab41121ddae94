// Package compile implements the EVA compiler driver (Algorithm 1 of the
// paper): it transforms an input program to satisfy every constraint of the
// target RNS-CKKS scheme, validates the result, selects encryption
// parameters, and lowers the program to the dense instruction list the
// executor runs, selecting on the way the rotation steps for which Galois keys
// are needed. The output is everything required to generate keys and execute
// the program against the CKKS backend.
package compile

import (
	"fmt"
	"math"
	"slices"

	"eva/internal/analysis"
	"eva/internal/ckks"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// Options configures a compilation.
type Options struct {
	// MaxRescaleLog is log2 of the maximum rescale value s_f (default 60,
	// SEAL's limit).
	MaxRescaleLog float64
	// WaterlineLog overrides the waterline s_w; zero means "maximum input
	// scale", the paper's default.
	WaterlineLog float64
	// Rescale and ModSwitch select the insertion strategies; the zero values
	// are the paper's defaults (waterline + eager).
	Rescale   rewrite.RescaleStrategy
	ModSwitch rewrite.ModSwitchStrategy
	// MinLogN lower-bounds the ring degree (defaults to what the program's
	// vector size requires).
	MinLogN int
	// AllowInsecure permits parameter sets below the 128-bit security level.
	// It exists for unit tests and scaled-down benchmarks only.
	AllowInsecure bool
	// ExtraLevels prepends this many waterline-sized primes to the modulus
	// chain beyond what the program itself consumes. Pipelined programs use
	// it to compile every stage against one shared chain: a downstream stage
	// compiled with headroom for its upstream stages' consumed levels accepts
	// their lower-level output ciphertexts directly, without bootstrapping or
	// re-encryption. The option is part of the program's registry identity,
	// so the same source compiled with different headroom caches separately.
	ExtraLevels int
}

// DefaultOptions returns the paper's default compilation pipeline.
func DefaultOptions() Options { return Options{MaxRescaleLog: 60} }

// Result is a compiled EVA program: the transformed program, the encryption
// parameter plan, the rotation steps, and the program lowered to the dense
// form the executor runs. Everything but Cache is fixed once Compile returns.
type Result struct {
	// Program is the transformed, validated program (the input is not mutated).
	Program *core.Program
	// Plan is the encryption-parameter selection result.
	Plan *analysis.ParameterPlan
	// RotationSteps lists the distinct rotation step counts needing Galois keys.
	RotationSteps []int
	// LogN is the selected ring degree exponent.
	LogN int
	// Options echoes the options used.
	Options Options

	// SourceStats and CompiledStats summarize the input and output programs.
	SourceStats   core.Stats
	CompiledStats core.Stats

	// Instrs is Program's live terms in topological order, in the dense form
	// the executor runs; every other id below indexes it.
	Instrs []Instr
	// Invariants lists the run-invariant instructions in topological order.
	// A run completes them in a prologue without evaluating anything; their
	// values come from Cache.
	Invariants []int32
	// Units lists what the schedulers dispatch, in topological order: every
	// other instruction except the absorbed members of fused chains and hoist
	// sets, which run as part of their unit.
	Units []int32
	// Kernels groups the units by kernel label for the bulk-synchronous
	// scheduler.
	Kernels [][]int32
	// Hoists are the hoistable rotation sets (Instr.Hoist indexes them).
	Hoists []HoistSet
	// VecSize is the program's vector size: the width of every plain value.
	VecSize int
	// Inputs lists the program's inputs in declaration order, Outputs its
	// outputs.
	Inputs  []Input
	Outputs []Output

	// Cache holds the encodings of the program's constants, made by its runs
	// and shared by every context that runs it; copies of a Result share it.
	Cache *PlainCache

	// waterline is the largest log2 scale of an input or constant.
	waterline float64
}

// Compile runs the EVA compiler on the input program. The input program must
// use only frontend instructions (Table 2, first group); it is cloned and
// never mutated.
func Compile(input *core.Program, opts Options) (*Result, error) {
	if input == nil {
		return nil, fmt.Errorf("compile: nil program")
	}
	if opts.MaxRescaleLog <= 0 {
		opts.MaxRescaleLog = 60
	}
	order, err := input.ValidateStructure(true)
	if err != nil {
		return nil, fmt.Errorf("compile: invalid input program: %w", err)
	}

	prog := input.Clone()
	// A rotation by a multiple of the vector size is the identity; no pass
	// below it, and no backend, sees one.
	rewrite.FoldIdentityRotations(prog)
	// Step 1: transformation.
	if err := rewrite.Transform(prog, rewrite.Options{
		MaxRescaleLog: opts.MaxRescaleLog,
		WaterlineLog:  opts.WaterlineLog,
		Rescale:       opts.Rescale,
		ModSwitch:     opts.ModSwitch,
	}); err != nil {
		return nil, fmt.Errorf("compile: transformation failed: %w", err)
	}
	// Step 2: validation. A failure here is a compiler bug surfaced at
	// compile time rather than an FHE-library exception at run time.
	chains, scales, err := analysis.Validate(prog, opts.MaxRescaleLog)
	if err != nil {
		return nil, fmt.Errorf("compile: validation failed: %w", err)
	}
	// Step 3: encryption parameter selection.
	plan, err := analysis.SelectParameters(prog, chains, scales, opts.MaxRescaleLog)
	if err != nil {
		return nil, fmt.Errorf("compile: parameter selection failed: %w", err)
	}
	// Step 4: lowering to the executor's form, which also selects the
	// rotation steps.
	res := Lower(prog, chains, scales)

	// Level headroom for pipeline chaining: pad the front of the chain (the
	// positions consumed first) with waterline-sized primes, so inputs may
	// enter up to ExtraLevels below fresh and every rescale still finds a
	// prime of the size the scale analysis assumed.
	if opts.ExtraLevels > 0 {
		pad := slices.Repeat([]int{analysis.WaterlinePrimeBits(res.waterline)}, opts.ExtraLevels)
		plan.BitSizes = append(pad, plan.BitSizes...)
	}

	logN, err := selectLogN(input.VecSize, plan, opts)
	if err != nil {
		return nil, fmt.Errorf("compile: %w", err)
	}
	// Step 5: key-switch digit size, within the security budget of the ring
	// degree just chosen, priced as InstrUnits prices each key switch.
	res.LogN = logN
	budget := ckks.MaxLogQP(logN)
	if opts.AllowInsecure {
		budget = 0
	}
	var switches []analysis.KeySwitch
	if opts.ExtraLevels > 0 {
		// A pipeline stage shares its parameter set, not only its chain, with
		// stages compiled from other programs, so its digit size is priced
		// on the chain alone: one relinearization per level.
		switches = analysis.ChainKeySwitches(len(plan.BitSizes))
	} else {
		for i := range res.Instrs {
			if w := res.Instrs[i].Work; w != (analysis.KeySwitch{}) {
				switches = append(switches, w)
			}
		}
	}
	plan.SelectKeySwitchDigits(switches, logN, budget)

	res.Plan, res.Options, res.SourceStats = plan, opts, input.StatsOf(order)
	return res, nil
}

// selectLogN picks the smallest ring degree that (a) offers at least VecSize
// slots and (b) keeps the selected modulus within the security bound, unless
// insecure parameters were explicitly allowed.
func selectLogN(vecSize int, plan *analysis.ParameterPlan, opts Options) (int, error) {
	minLogN := opts.MinLogN
	if minLogN < 10 {
		minLogN = 10
	}
	// N/2 slots must cover the program vector size.
	slotsLogN := int(math.Ceil(math.Log2(float64(vecSize)))) + 1
	if slotsLogN > minLogN {
		minLogN = slotsLogN
	}
	if opts.AllowInsecure {
		return minLogN, nil
	}
	logN, err := ckks.MinLogNFor(plan.LogQP(), minLogN)
	if err != nil {
		return 0, fmt.Errorf("selected modulus of %d bits does not fit any supported ring degree: %w", plan.LogQP(), err)
	}
	return logN, nil
}

// ParametersLiteral converts the compilation result into the CKKS parameter
// literal needed to instantiate the backend: the plan's bit sizes are listed
// in consumption order (first consumed first), while the backend's chain is
// ordered with the first-consumed prime last.
func (r *Result) ParametersLiteral() ckks.ParametersLiteral {
	bits := r.Plan.BitSizes
	logQi := make([]int, len(bits))
	for i, b := range bits {
		logQi[len(bits)-1-i] = b
	}
	return ckks.ParametersLiteral{
		LogN:          r.LogN,
		LogQi:         logQi,
		LogPi:         slices.Clone(r.Plan.SpecialBits),
		Scale:         math.Exp2(r.waterline),
		AllowInsecure: r.Options.AllowInsecure,
	}
}

// InputScales returns the log2 encoding scale of every program input by name.
func (r *Result) InputScales() map[string]float64 {
	out := map[string]float64{}
	for _, in := range r.Program.Inputs() {
		out[in.Name] = in.LogScale
	}
	return out
}

// CostModel returns the analysis cost model of the compiled program: its ring
// degree, chain length and key-switch digit size.
func (r *Result) CostModel() analysis.CostModel {
	return analysis.CostModel{LogN: r.LogN, TotalLevels: len(r.Plan.BitSizes), DigitSize: len(r.Plan.SpecialBits)}
}

// Summary returns a human-readable report of the compilation, in the style of
// the paper's Table 6 rows (r counts every special prime).
func (r *Result) Summary() string {
	return fmt.Sprintf("program %q: log2(N)=%d, log2(Q)=%d, r=%d, special=%v, rotations=%d, terms %d -> %d",
		r.Program.Name, r.LogN, r.Plan.LogQ(), r.Plan.NumPrimes(), r.Plan.SpecialBits, len(r.RotationSteps),
		r.SourceStats.Terms, r.CompiledStats.Terms)
}
