// Package execute runs compiled EVA programs. It provides the reference
// executor (the paper's "id scheme" semantics, used for testing and as the
// unencrypted baseline), the CKKS executor that drives the homomorphic
// backend, and two schedulers: the asynchronous DAG-parallel scheduler that
// EVA uses, and a bulk-synchronous per-kernel scheduler modeling the CHET
// baseline's intra-kernel parallelism.
package execute

import (
	"fmt"
	"math"
	"time"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
)

// Context bundles the CKKS backend objects needed to execute a compiled
// program: parameters, the encoder, and an evaluator armed with the public
// evaluation keys. Encryption and decryption additionally need the secret
// key, which the helper functions below take from the KeyMaterial.
type Context struct {
	Params    *ckks.Parameters
	Encoder   *ckks.Encoder
	Evaluator *ckks.Evaluator

	// KeyGenTime records how long key material took to generate (the paper's
	// "encryption context" time in Table 7).
	KeyGenTime time.Duration
}

// KeyMaterial is the full key set produced for a compiled program: the
// secret key, which both encrypts and decrypts, and the evaluation keys.
type KeyMaterial struct {
	Secret *ckks.SecretKey
	Relin  *ckks.RelinearizationKey
	Rot    *ckks.RotationKeySet
}

// NewContext generates the encryption context for a compiled program: the
// concrete encryption parameters, the secret key, the relinearization key, and
// one Galois key per rotation step the compiler selected, each key only as
// deep as the program uses it (compile.Result.KeyLevels). prng may be nil for
// a securely seeded default.
func NewContext(res *compile.Result, prng *ckks.PRNG) (*Context, *KeyMaterial, error) {
	start := time.Now()
	params, err := ckks.NewParameters(res.ParametersLiteral())
	if err != nil {
		return nil, nil, fmt.Errorf("execute: building parameters: %w", err)
	}
	kg := ckks.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	rot, relin := res.KeyLevels()
	rlk, err := kg.GenRelinearizationKey(sk, relin)
	if err != nil {
		return nil, nil, fmt.Errorf("execute: relinearization key: %w", err)
	}
	var rtk *ckks.RotationKeySet
	if len(rot) > 0 {
		rtk, err = kg.GenRotationKeys(sk, rot)
		if err != nil {
			return nil, nil, fmt.Errorf("execute: rotation keys: %w", err)
		}
	}
	ctx := &Context{
		Params:     params,
		Encoder:    ckks.NewEncoder(params),
		Evaluator:  ckks.NewEvaluator(params, ckks.EvaluationKeys{Rlk: rlk, Rtk: rtk}),
		KeyGenTime: time.Since(start),
	}
	return ctx, &KeyMaterial{Secret: sk, Relin: rlk, Rot: rtk}, nil
}

// NewEvaluationContext builds the server-side execution context from public
// evaluation keys supplied by a client, without ever seeing the secret key —
// the paper's deployment model, in which the client generates all key
// material locally and ships only the relinearization and rotation keys to
// the untrusted server. rtk may be nil when the compiled program performs no
// rotations, and rlk may be nil when it never relinearizes. Every key must
// reach its level from compile.Result.KeyLevels; a deeper one, such as a
// full-depth key, is accepted.
func NewEvaluationContext(res *compile.Result, rlk *ckks.RelinearizationKey, rtk *ckks.RotationKeySet) (*Context, error) {
	params, err := ckks.NewParameters(res.ParametersLiteral())
	if err != nil {
		return nil, fmt.Errorf("execute: building parameters: %w", err)
	}
	rot, relin := res.KeyLevels()
	if len(res.RotationSteps) > 0 {
		if rtk == nil {
			return nil, fmt.Errorf("execute: program needs rotation keys for steps %v but none were supplied", res.RotationSteps)
		}
		// Check completeness and shape now so a bad key upload fails at
		// context creation rather than on every execution.
		for _, step := range res.RotationSteps {
			galEl := params.GaloisElementForRotation(step)
			swk := rtk.Keys[galEl]
			if swk == nil {
				return nil, fmt.Errorf("execute: missing rotation key for step %d (Galois element %d)", step, galEl)
			}
			if err := swk.Validate(params, rot[galEl]); err != nil {
				return nil, fmt.Errorf("execute: rotation key for step %d: %w", step, err)
			}
		}
	}
	if res.CompiledStats.Instructions[core.OpRelinearize.String()] > 0 && rlk == nil {
		return nil, fmt.Errorf("execute: program relinearizes but no relinearization key was supplied")
	}
	if rlk != nil {
		if rlk.Key == nil {
			return nil, fmt.Errorf("execute: relinearization key is empty")
		}
		if err := rlk.Key.Validate(params, relin); err != nil {
			return nil, fmt.Errorf("execute: relinearization key: %w", err)
		}
	}
	return &Context{
		Params:    params,
		Encoder:   ckks.NewEncoder(params),
		Evaluator: ckks.NewEvaluator(params, ckks.EvaluationKeys{Rlk: rlk, Rtk: rtk}),
	}, nil
}

// Inputs maps program input names to their run-time values. Every value is a
// vector of at most the program's vector size (shorter power-of-two vectors
// are replicated, scalars may be given as single-element slices).
type Inputs map[string][]float64

// EncryptedInputs holds the client-side encrypted (or encoded) inputs.
type EncryptedInputs struct {
	Cipher map[string]*ckks.Ciphertext
	Plain  map[string][]float64

	EncryptTime time.Duration
}

// EncryptInputs encodes and encrypts the Cipher inputs of the program at
// their compiled scales and leaves plain inputs as vectors, mirroring the
// client-side step of the EVA workflow.
func EncryptInputs(ctx *Context, res *compile.Result, keys *KeyMaterial, values Inputs, prng *ckks.PRNG) (*EncryptedInputs, error) {
	out := &EncryptedInputs{Plain: map[string][]float64{}}
	cipher := Inputs{}
	for _, input := range res.Inputs {
		in := input.Term
		v, ok := values[in.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("execute: missing value for input %q", in.Name)
		case in.InType == core.TypeCipher:
			cipher[in.Name] = v
		default:
			full, err := PreparePlain(res, in.Name, v)
			if err != nil {
				return nil, err
			}
			out.Plain[in.Name] = full
		}
	}
	var err error
	if out.Cipher, out.EncryptTime, err = EncryptSelected(ctx, res, keys, cipher, nil, prng); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptSelected encodes and encrypts a subset of the program's Cipher
// inputs at their compiled scales, in declaration order, each at its level
// group's entry level (compile.Result.Bind) or, when entry is nil, at the top
// of the chain: a server given some inputs as ciphertexts encrypts the rest
// to match them. Every name must be a Cipher input of the program.
func EncryptSelected(ctx *Context, res *compile.Result, keys *KeyMaterial, values Inputs, entry []int, prng *ckks.PRNG) (map[string]*ckks.Ciphertext, time.Duration, error) {
	start := time.Now()
	enc := ckks.NewEncryptor(ctx.Params, keys.Secret, prng)
	out := make(map[string]*ckks.Ciphertext, len(values))
	for _, in := range res.Inputs {
		t := in.Term
		v, ok := values[t.Name]
		if !ok || t.InType != core.TypeCipher {
			continue
		}
		if err := CheckWidth(res, t.Name, v); err != nil {
			return nil, 0, err
		}
		level := ctx.Params.MaxLevel()
		if entry != nil && in.Group >= 0 {
			level = entry[in.Group]
		}
		pt, err := ctx.Encoder.Encode(v, math.Exp2(t.LogScale), level)
		if err != nil {
			return nil, 0, fmt.Errorf("execute: encoding input %q: %w", t.Name, err)
		}
		ct, err := enc.Encrypt(pt)
		if err != nil {
			return nil, 0, fmt.Errorf("execute: encrypting input %q: %w", t.Name, err)
		}
		out[t.Name] = ct
	}
	for name := range values {
		if out[name] == nil {
			return nil, 0, fmt.Errorf("execute: %q is not a Cipher input of the program", name)
		}
	}
	return out, time.Since(start), nil
}

// Outputs holds the encrypted results of an execution plus any outputs that
// turned out to be unencrypted (programs whose outputs do not depend on any
// Cipher input), and execution statistics.
type Outputs struct {
	Cipher map[string]*ckks.Ciphertext
	Plain  map[string][]float64
	Stats  RunStats
}

// RunStats reports scheduler statistics for one execution.
type RunStats struct {
	Instructions   int
	Workers        int
	WallTime       time.Duration
	PeakLiveValues int
	PeakLiveBytes  int
	ReusedValues   int

	// HoistedBatches counts the hoisted rotation batches this run key
	// switched, and HoistedRotations the distinct steps they covered — each
	// batch shares one RNS digit decomposition across all its steps.
	HoistedBatches   int
	HoistedRotations int

	// PlainCacheHits counts the run-invariant plain operands (program
	// constants) this run took ready-encoded from the plan's cache, and
	// PlainCacheMisses those it had to encode itself: the first run's fill,
	// or every run's once the cache budget is exhausted or when the
	// context's parameters differ from the cached encodings'.
	PlainCacheHits   int
	PlainCacheMisses int
	// FusedChains counts the add chains this run evaluated as one fused
	// multiply-accumulate and FusedTerms the instructions they covered.
	FusedChains int
	FusedTerms  int
	// RecycledBuffers counts the ciphertext polynomials returned to the
	// evaluator's pool at their value's last use.
	RecycledBuffers int
	// ModDowns counts the divisions by the special product P this run made,
	// one per ciphertext component: two per relinearization and per rotation
	// key switch whose result the evaluator returned over Q, and two where a
	// fused chain or a sum finishes values over Q∪P. FusedRescales counts the
	// rescales of such a value, each dividing by P·q_ℓ in one step instead of
	// a mod-down. Both are measured from what the evaluator returned, so they
	// check the compiler's Instr.Work rather than restate it.
	ModDowns      int
	FusedRescales int
}

// DecryptOutputs decrypts and decodes every encrypted output, truncating each
// result to the program's vector size.
func DecryptOutputs(ctx *Context, res *compile.Result, keys *KeyMaterial, outputs *Outputs) (map[string][]float64, time.Duration) {
	start := time.Now()
	dec := ckks.NewDecryptor(ctx.Params, keys.Secret)
	out := make(map[string][]float64, len(outputs.Cipher)+len(outputs.Plain))
	for name, ct := range outputs.Cipher {
		values := ctx.Encoder.Decode(dec.Decrypt(ct))
		out[name] = values[:min(res.VecSize, len(values))]
	}
	for name, v := range outputs.Plain {
		out[name] = v[:min(res.VecSize, len(v))]
	}
	return out, time.Since(start)
}

// CheckWidth rejects an input vector that is empty or wider than the
// program's vector size: shorter vectors are replicated to the full width.
func CheckWidth(res *compile.Result, name string, v []float64) error {
	if len(v) == 0 || len(v) > res.VecSize {
		return fmt.Errorf("execute: input %q has %d values; want 1..%d", name, len(v), res.VecSize)
	}
	return nil
}

// PreparePlain validates a plain input vector for a compiled program and
// replicates it to the full vector size — the same semantics EncryptInputs
// applies, exported so servers decoding wire-format inputs don't duplicate
// them.
func PreparePlain(res *compile.Result, name string, v []float64) ([]float64, error) {
	if err := CheckWidth(res, name, v); err != nil {
		return nil, err
	}
	return Replicate(v, res.VecSize), nil
}

// Replicate tiles a vector to the given size: out[i] = v[i mod len(v)]. This
// is the executor's input-widening rule (inputs, constants, and plain wire
// inputs all widen this way); internal/coalesce packs callers into slot
// ranges with the same formula so a packed range carries exactly the
// cleartext an unbatched run would.
func Replicate(v []float64, size int) []float64 {
	out := make([]float64, size)
	for i := range out {
		out[i] = v[i%len(v)]
	}
	return out
}
