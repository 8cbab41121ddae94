// Package eva is the public API of the EVA (Encrypted Vector Arithmetic)
// framework: a language, optimizing compiler, and runtime for writing
// programs that execute on encrypted data under the RNS-CKKS homomorphic
// encryption scheme, following "EVA: An Encrypted Vector Arithmetic Language
// and Compiler for Efficient Homomorphic Computation" (PLDI 2020).
//
// A typical workflow has four steps:
//
//  1. Build a program with NewBuilder (the PyEVA-style frontend): declare
//     encrypted inputs, combine them with Add/Sub/Mul/Rotate expressions, and
//     mark outputs together with their desired fixed-point scales.
//
//  2. Compile the program. The compiler inserts the FHE-specific RESCALE,
//     MOD_SWITCH and RELINEARIZE instructions, validates every scheme
//     constraint, and selects encryption parameters and rotation steps.
//
//  3. Generate keys and encrypt the inputs with NewContext and EncryptInputs
//     (the client side).
//
//  4. Execute with Run (the server side) and decrypt with DecryptOutputs
//     (back on the client).
//
// The reference executor RunReference evaluates the same program on
// unencrypted data and is useful for testing and accuracy comparisons.
package eva

import (
	"context"
	"io"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/lang"
	"eva/internal/rewrite"
)

// Builder constructs EVA input programs (the PyEVA-equivalent frontend).
type Builder = builder.Builder

// Expr is an expression handle produced by a Builder.
type Expr = builder.Expr

// Program is an EVA program graph (input, intermediate, or executable form).
type Program = core.Program

// NewBuilder returns a program builder for vectors of the given power-of-two size.
func NewBuilder(name string, vecSize int) *Builder { return builder.New(name, vecSize) }

// CompileOptions configures the compiler; the zero value of each field means
// the paper's default (waterline rescaling, eager modulus switching, 60-bit
// maximum rescale, 128-bit-secure parameters).
type CompileOptions = compile.Options

// Compiled is the result of compilation: the transformed program, the
// encryption-parameter plan, and the rotation steps.
type Compiled = compile.Result

// Compile runs the EVA compiler on an input program.
func Compile(p *Program, opts CompileOptions) (*Compiled, error) { return compile.Compile(p, opts) }

// DefaultCompileOptions returns the paper's default compiler configuration.
func DefaultCompileOptions() CompileOptions { return compile.DefaultOptions() }

// Rescale/modulus-switch strategies, exposed for ablation studies.
const (
	RescaleWaterline = rewrite.RescaleWaterline
	RescaleAlways    = rewrite.RescaleAlways
	ModSwitchEager   = rewrite.ModSwitchEager
	ModSwitchLazy    = rewrite.ModSwitchLazy
)

// Context bundles the CKKS runtime objects for a compiled program.
type Context = execute.Context

// KeyMaterial is the key set (secret, public, relinearization, rotation keys).
type KeyMaterial = execute.KeyMaterial

// Inputs maps input names to plaintext vectors.
type Inputs = execute.Inputs

// EncryptedInputs is the client-side encrypted input bundle.
type EncryptedInputs = execute.EncryptedInputs

// Outputs is the result of an encrypted execution.
type Outputs = execute.Outputs

// RunOptions configures the executor (worker count and scheduler).
type RunOptions = execute.RunOptions

// Schedulers available to Run.
const (
	SchedulerParallel        = execute.SchedulerParallel
	SchedulerBulkSynchronous = execute.SchedulerBulkSynchronous
	SchedulerSequential      = execute.SchedulerSequential
)

// PRNG is the deterministic random source used by key generation and
// encryption; pass nil to the functions below for a securely seeded default.
type PRNG = ckks.PRNG

// NewTestPRNG returns a deterministic PRNG for reproducible tests and benchmarks.
func NewTestPRNG(seed uint64) *PRNG { return ckks.NewTestPRNG(seed) }

// NewContext generates encryption parameters and all key material for a
// compiled program.
func NewContext(c *Compiled, prng *PRNG) (*Context, *KeyMaterial, error) {
	return execute.NewContext(c, prng)
}

// EncryptInputs encodes and encrypts the program's Cipher inputs.
func EncryptInputs(ctx *Context, c *Compiled, keys *KeyMaterial, values Inputs, prng *PRNG) (*EncryptedInputs, error) {
	return execute.EncryptInputs(ctx, c, keys, values, prng)
}

// InputMismatch is the error Run returns (wrapped) for input ciphertexts
// that break the compiled program's input contract (Compiled.Bind), before
// anything runs.
type InputMismatch = compile.Mismatch

// Run executes a compiled program homomorphically.
func Run(ctx *Context, c *Compiled, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	return execute.Run(ctx, c, in, opts)
}

// RunContext is Run with cancellation: cancelling stdctx stops the DAG
// scheduler promptly (in-flight CKKS kernels finish, nothing new starts) and
// returns the context's error. RunOptions.OnInstruction, when set, receives
// one serialized callback per completed instruction, so a counter in it
// tracks the run's progress.
func RunContext(stdctx context.Context, ctx *Context, c *Compiled, in *EncryptedInputs, opts RunOptions) (*Outputs, error) {
	return execute.RunContext(stdctx, ctx, c, in, opts)
}

// DecryptOutputs decrypts and decodes the outputs of Run.
func DecryptOutputs(ctx *Context, c *Compiled, keys *KeyMaterial, out *Outputs) map[string][]float64 {
	values, _ := execute.DecryptOutputs(ctx, c, keys, out)
	return values
}

// RunReference executes a program on unencrypted data (the reference
// semantics of the EVA language).
func RunReference(p *Program, values Inputs) (map[string][]float64, error) {
	return execute.RunReference(p, values)
}

// SerializeProgram writes a program to w in the JSON program format (the
// paper's Figure 1 schema) — the wire format accepted by the evac compiler
// driver and the evaserve /compile endpoint.
func SerializeProgram(p *Program, w io.Writer) error { return p.Serialize(w) }

// DeserializeProgram reads a program in the JSON program format.
func DeserializeProgram(r io.Reader) (*Program, error) { return core.Deserialize(r) }

// ParseSource compiles textual EVA source (the .eva language — see the
// README's Language section for the grammar) into a Program. Source text is
// the third program representation next to the builder API and the JSON wire
// format; all three lower to the same IR. On failure the error is a list of
// positioned diagnostics (line, column, source snippet).
func ParseSource(src string) (*Program, error) { return lang.ParseProgram(src) }

// FormatProgram renders any Program — input or compiled — as canonical EVA
// source text. Parsing the result reproduces the program exactly, so
// FormatProgram/ParseSource give a lossless textual form for diffing,
// storing, or POSTing to the evaserve /compile endpoint's "source" field.
func FormatProgram(p *Program) (string, error) { return lang.Print(p) }

// ParametersLiteral is the portable description of a CKKS parameter set, as
// reported by Compiled.ParametersLiteral and by the evaserve /compile
// endpoint. A client can reconstruct the server's exact parameters from it
// and generate matching key material locally.
type ParametersLiteral = ckks.ParametersLiteral

// RelinearizationKey and RotationKeySet are the public evaluation keys a
// client ships to an untrusted server (both implement
// encoding.BinaryMarshaler/BinaryUnmarshaler for the wire).
type (
	RelinearizationKey = ckks.RelinearizationKey
	RotationKeySet     = ckks.RotationKeySet
)

// NewEvaluationContext builds the server-side execution context from public
// evaluation keys supplied by a client, without the secret key — the paper's
// deployment model. rtk may be nil when the program performs no rotations,
// and rlk may be nil when it never relinearizes.
func NewEvaluationContext(c *Compiled, rlk *RelinearizationKey, rtk *RotationKeySet) (*Context, error) {
	return execute.NewEvaluationContext(c, rlk, rtk)
}
