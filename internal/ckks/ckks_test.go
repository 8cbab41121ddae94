package ckks

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"eva/internal/numth"
)

// testContext bundles everything needed for scheme-level tests.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	rlk    *RelinearizationKey
	rtk    *RotationKeySet
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
}

func newTestContext(t testing.TB, logN int, logQi []int, logP int, scale float64, rotations []int) *testContext {
	t.Helper()
	return newTestContextSpecials(t, logN, logQi, specials(logP), scale, rotations)
}

// newTestContextSpecials is newTestContext with an explicit special-prime
// list, i.e. an explicit key-switch digit size.
func newTestContextSpecials(t testing.TB, logN int, logQi, logPi []int, scale float64, rotations []int) *testContext {
	t.Helper()
	params, err := NewParameters(ParametersLiteral{
		LogN: logN, LogQi: logQi, LogPi: logPi, Scale: scale, AllowInsecure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	prng := NewTestPRNG(42)
	kg := NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	var rlk *RelinearizationKey
	var rtk *RotationKeySet
	if len(logPi) > 0 {
		rlk, err = kg.GenRelinearizationKey(sk, params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		if len(rotations) > 0 {
			rtk, err = kg.GenRotationKeys(sk, fullLevels(params, rotations))
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg,
		sk:     sk,
		rlk:    rlk,
		rtk:    rtk,
		encr:   NewEncryptor(params, sk, prng),
		decr:   NewDecryptor(params, sk),
		eval:   NewEvaluator(params, EvaluationKeys{Rlk: rlk, Rtk: rtk}),
	}
}

func (tc *testContext) randomVector(seed int64, scale float64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, tc.params.Slots())
	for i := range v {
		v[i] = rng.Float64()*2 - 1
		_ = scale
	}
	return v
}

func (tc *testContext) encrypt(t testing.TB, values []float64) *Ciphertext {
	t.Helper()
	pt, err := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tc.encr.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

func (tc *testContext) decryptTo(t testing.TB, ct *Ciphertext) []float64 {
	t.Helper()
	return tc.enc.Decode(tc.decr.Decrypt(ct))
}

func requireClose(t testing.TB, got, want []float64, tol float64, msg string) {
	t.Helper()
	if d := maxAbsDiff(got, want); d > tol {
		t.Fatalf("%s: max error %g exceeds tolerance %g", msg, d, tol)
	}
}

func TestEncryptDecrypt(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	values := tc.randomVector(1, 0)
	ct := tc.encrypt(t, values)
	requireClose(t, tc.decryptTo(t, ct), values, 1e-6, "encrypt/decrypt")
}

// TestFreshEncryptionNoise checks that a fresh encryption carries exactly
// the Gaussian error e: c0 + c1·s − m, read as a centered integer
// polynomial, stays within the sampler's 6σ truncation at every level the
// plaintext can sit on. A public-key encryption would add u·e with standard
// deviation σ·√(2N/3), far outside that bound.
func TestFreshEncryptionNoise(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40, 40}, 50, 1<<40, nil)
	r := tc.params.RingQ()
	bound := int64(math.Round(6 * tc.params.Sigma()))
	for level := tc.params.MaxLevel(); level >= 0; level-- {
		pt, err := tc.enc.Encode(tc.randomVector(int64(level), 0), tc.params.DefaultScale(), level)
		if err != nil {
			t.Fatal(err)
		}
		ct, err := tc.encr.Encrypt(pt)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Level != level || ct.Value[1].Level() != level {
			t.Fatalf("level %d: ciphertext at level %d (a at %d)", level, ct.Level, ct.Value[1].Level())
		}
		if worst := maxCenteredDiff(t, r, tc.decr.Decrypt(ct).Value, pt.Value); worst > bound {
			t.Fatalf("level %d: fresh noise reaches %d; the Gaussian error is truncated at %d", level, worst, bound)
		}
	}
}

func TestHomomorphicAddSub(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	a := tc.randomVector(2, 0)
	b := tc.randomVector(3, 0)
	cta, ctb := tc.encrypt(t, a), tc.encrypt(t, b)

	sum, err := tc.eval.Add(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	requireClose(t, tc.decryptTo(t, sum), want, 1e-6, "ct+ct")

	diff, err := tc.eval.Sub(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] - b[i]
	}
	requireClose(t, tc.decryptTo(t, diff), want, 1e-6, "ct-ct")

	neg, err := tc.eval.Negate(cta)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = -a[i]
	}
	requireClose(t, tc.decryptTo(t, neg), want, 1e-6, "negate")
}

func TestHomomorphicPlainOps(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	a := tc.randomVector(4, 0)
	b := tc.randomVector(5, 0)
	cta := tc.encrypt(t, a)
	ptb, err := tc.enc.Encode(b, tc.params.DefaultScale(), tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	sum, err := tc.eval.AddPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] + b[i]
	}
	requireClose(t, tc.decryptTo(t, sum), want, 1e-6, "ct+pt")

	diff, err := tc.eval.SubPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] - b[i]
	}
	requireClose(t, tc.decryptTo(t, diff), want, 1e-6, "ct-pt")

	prod, err := tc.eval.MulPlain(cta, ptb)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		want[i] = a[i] * b[i]
	}
	requireClose(t, tc.decryptTo(t, prod), want, 1e-5, "ct*pt")
	if prod.Scale != cta.Scale*ptb.Scale {
		t.Errorf("ct*pt scale = %g, want %g", prod.Scale, cta.Scale*ptb.Scale)
	}
}

func TestHomomorphicMulRelinearizeRescale(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40, 40}, 50, 1<<40, nil)
	a := tc.randomVector(6, 0)
	b := tc.randomVector(7, 0)
	cta, ctb := tc.encrypt(t, a), tc.encrypt(t, b)

	prod, err := tc.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	if prod.Degree() != 2 {
		t.Fatalf("ct*ct degree = %d, want 2", prod.Degree())
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] * b[i]
	}
	// Degree-2 ciphertexts decrypt correctly via c0 + c1 s + c2 s².
	requireClose(t, tc.decryptTo(t, prod), want, 1e-5, "degree-2 product")

	relin, err := tc.eval.Relinearize(prod)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Degree() != 1 {
		t.Fatalf("relinearized degree = %d, want 1", relin.Degree())
	}
	requireClose(t, tc.decryptTo(t, relin), want, 1e-4, "relinearized product")

	rescaled, err := tc.eval.Rescale(relin)
	if err != nil {
		t.Fatal(err)
	}
	if rescaled.Level != relin.Level-1 {
		t.Fatalf("rescaled level = %d, want %d", rescaled.Level, relin.Level-1)
	}
	wantScale := relin.Scale / float64(tc.params.Qi()[relin.Level])
	if math.Abs(rescaled.Scale-wantScale)/wantScale > 1e-12 {
		t.Errorf("rescaled scale = %g, want %g", rescaled.Scale, wantScale)
	}
	requireClose(t, tc.decryptTo(t, rescaled), want, 1e-4, "rescaled product")
}

func TestMultiplicativeDepthTwo(t *testing.T) {
	// x²·y³-style depth: compute ((a·b rescale)·c rescale) and compare.
	tc := newTestContext(t, 12, []int{40, 35, 35}, 50, 1<<35, nil)
	a := tc.randomVector(8, 0)
	b := tc.randomVector(9, 0)
	c := tc.randomVector(10, 0)
	cta, ctb, ctc := tc.encrypt(t, a), tc.encrypt(t, b), tc.encrypt(t, c)

	ab, err := tc.eval.Mul(cta, ctb)
	if err != nil {
		t.Fatal(err)
	}
	ab, err = tc.eval.Relinearize(ab)
	if err != nil {
		t.Fatal(err)
	}
	ab, err = tc.eval.Rescale(ab)
	if err != nil {
		t.Fatal(err)
	}
	// Bring c down to ab's level.
	ctcLow, err := tc.eval.ModSwitch(ctc)
	if err != nil {
		t.Fatal(err)
	}
	abc, err := tc.eval.Mul(ab, ctcLow)
	if err != nil {
		t.Fatal(err)
	}
	abc, err = tc.eval.Relinearize(abc)
	if err != nil {
		t.Fatal(err)
	}
	abc, err = tc.eval.Rescale(abc)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(a))
	for i := range want {
		want[i] = a[i] * b[i] * c[i]
	}
	requireClose(t, tc.decryptTo(t, abc), want, 1e-3, "depth-2 product")
}

func TestRotation(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, []int{1, 2, 5, -1})
	slots := tc.params.Slots()
	values := make([]float64, slots)
	for i := range values {
		values[i] = float64(i % 16)
	}
	ct := tc.encrypt(t, values)
	for _, k := range []int{1, 2, 5} {
		rot, err := tc.eval.RotateLeft(ct, k)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]float64, slots)
		for i := range want {
			want[i] = values[(i+k)%slots]
		}
		requireClose(t, tc.decryptTo(t, rot), want, 1e-4, "rotate left")
	}
	rot, err := tc.eval.RotateRight(ct, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, slots)
	for i := range want {
		want[i] = values[((i-1)+slots)%slots]
	}
	requireClose(t, tc.decryptTo(t, rot), want, 1e-4, "rotate right")

	// A rotation by a multiple of the slot count is refused like any step
	// without a key: the compiler folds those identity rotations away.
	for _, k := range []int{0, slots} {
		if _, err := tc.eval.RotateLeft(ct, k); err == nil || !strings.Contains(err.Error(), "missing rotation key for step") {
			t.Errorf("RotateLeft by %d = %v, want the missing-key refusal", k, err)
		}
	}
}

func TestModSwitchPreservesValues(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	values := tc.randomVector(11, 0)
	ct := tc.encrypt(t, values)
	down, err := tc.eval.ModSwitch(ct)
	if err != nil {
		t.Fatal(err)
	}
	if down.Level != ct.Level-1 {
		t.Fatalf("level after modswitch = %d, want %d", down.Level, ct.Level-1)
	}
	if down.Scale != ct.Scale {
		t.Errorf("modswitch changed scale")
	}
	requireClose(t, tc.decryptTo(t, down), values, 1e-6, "modswitch")
}

func TestEvaluatorErrors(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	a := tc.encrypt(t, tc.randomVector(12, 0))
	b := tc.encrypt(t, tc.randomVector(13, 0))

	// Level mismatch.
	bLow, _ := tc.eval.ModSwitch(b)
	if _, err := tc.eval.Add(a, bLow); err == nil {
		t.Error("expected level-mismatch error from Add")
	}
	if _, err := tc.eval.Mul(a, bLow); err == nil {
		t.Error("expected level-mismatch error from Mul")
	}

	// Scale mismatch.
	bBad := b.CopyNew()
	bBad.Scale *= 2
	if _, err := tc.eval.Add(a, bBad); err == nil {
		t.Error("expected scale-mismatch error from Add")
	}
	if _, err := tc.eval.Sub(a, bBad); err == nil {
		t.Error("expected scale-mismatch error from Sub")
	}

	// Degree constraint on multiplication and rotation.
	prod, _ := tc.eval.Mul(a, b)
	if _, err := tc.eval.Mul(prod, a); err == nil {
		t.Error("expected degree error multiplying a degree-2 ciphertext")
	}
	if _, err := tc.eval.RotateLeft(prod, 1); err == nil {
		t.Error("expected degree error rotating a degree-2 ciphertext")
	}

	// Rescaling below level 0.
	low, _ := tc.eval.Rescale(a)
	if _, err := tc.eval.Rescale(low); err == nil {
		t.Error("expected error rescaling at level 0")
	}
	if _, err := tc.eval.ModSwitch(low); err == nil {
		t.Error("expected error modswitching at level 0")
	}

	// Missing rotation key.
	if _, err := tc.eval.RotateLeft(a, 3); err == nil {
		t.Error("expected missing-rotation-key error")
	}
}

func TestParametersAccessors(t *testing.T) {
	params := testParams(t, 12, []int{50, 40, 30}, 55, 1<<40)
	if params.N() != 4096 || params.Slots() != 2048 {
		t.Errorf("N/Slots = %d/%d", params.N(), params.Slots())
	}
	if params.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d, want 2", params.MaxLevel())
	}
	if params.LogQ() != 120 || params.LogQP() != 175 {
		t.Errorf("LogQ/LogQP = %d/%d", params.LogQ(), params.LogQP())
	}
	if len(params.Qi()) != 3 || len(params.LogQi()) != 3 {
		t.Errorf("Qi/LogQi lengths wrong")
	}
	if len(params.SpecialPrimes()) != 1 || params.RingP() == nil || params.DigitSize() != 1 {
		t.Error("special prime missing")
	}
	if params.QAtLevel(0) <= 0 {
		t.Error("QAtLevel(0) not positive")
	}
	other := testParams(t, 12, []int{50, 40, 30}, 55, 1<<40)
	if !params.Equal(other) {
		t.Error("identical literals should produce equal parameters")
	}
	if params.String() == "" {
		t.Error("empty String()")
	}
}

// TestNewParametersPrimes pins the primes NewParameters hands out against
// one GenerateNTTPrimes call per prime that skips every prime already taken,
// chain first, on a literal that repeats bit sizes across the chain and the
// special primes.
func TestNewParametersPrimes(t *testing.T) {
	lit := ParametersLiteral{LogN: 12, LogQi: []int{40, 50, 40, 60, 50, 40}, LogPi: []int{60, 40}, Scale: 1 << 40, AllowInsecure: true}
	params, err := NewParameters(lit)
	if err != nil {
		t.Fatal(err)
	}
	used := map[uint64]bool{}
	want := func(bitSizes []int) []uint64 {
		var primes []uint64
		for _, b := range bitSizes {
			ps, err := numth.GenerateNTTPrimes(b, lit.LogN, 1, used)
			if err != nil {
				t.Fatal(err)
			}
			used[ps[0]] = true
			primes = append(primes, ps[0])
		}
		return primes
	}
	if got, w := params.Qi(), want(lit.LogQi); !slices.Equal(got, w) {
		t.Errorf("chain primes %v, want %v", got, w)
	}
	if got, w := params.SpecialPrimes(), want(lit.LogPi); !slices.Equal(got, w) {
		t.Errorf("special primes %v, want %v", got, w)
	}
}

// TestParametersEqualCoversEverySpecialPrime: parameter sets that share the
// chain and the first special prime but not the second are different sets —
// their keys are not interchangeable.
func TestParametersEqualCoversEverySpecialPrime(t *testing.T) {
	build := func(logPi []int) *Parameters {
		p, err := NewParameters(ParametersLiteral{LogN: 11, LogQi: []int{50, 40, 40}, LogPi: logPi, Scale: 1 << 40, AllowInsecure: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a, b, c := build([]int{55, 55}), build([]int{55, 54}), build([]int{55})
	if a.SpecialPrimes()[0] != b.SpecialPrimes()[0] || a.SpecialPrimes()[0] != c.SpecialPrimes()[0] {
		t.Fatal("the fixtures were meant to share their first special prime")
	}
	if a.Equal(b) || a.Equal(c) || c.Equal(a) {
		t.Error("parameter sets with different special primes compare equal")
	}
	if !a.Equal(build([]int{55, 55})) {
		t.Error("identical literals should produce equal parameters")
	}
	if a.LogQP() != 130+110 || a.DigitSize() != 2 || a.Digits(2) != 2 || a.Digits(1) != 1 {
		t.Errorf("LogQP/DigitSize/Digits = %d/%d/%d,%d", a.LogQP(), a.DigitSize(), a.Digits(2), a.Digits(1))
	}
}

func TestParameterValidation(t *testing.T) {
	cases := []ParametersLiteral{
		{LogN: 5, LogQi: []int{30}, Scale: 1 << 30},                                             // logN too small
		{LogN: 12, LogQi: nil, Scale: 1 << 30},                                                  // no primes
		{LogN: 12, LogQi: []int{30}, Scale: 0},                                                  // bad scale
		{LogN: 12, LogQi: []int{10}, Scale: 1 << 30, AllowInsecure: true},                       // prime too small
		{LogN: 12, LogQi: []int{61}, Scale: 1 << 30, AllowInsecure: true},                       // prime too large
		{LogN: 12, LogQi: []int{60, 60}, LogPi: []int{60}, Scale: 1 << 30},                      // exceeds security bound
		{LogN: 12, LogQi: []int{30}, LogPi: []int{10}, Scale: 1 << 30, AllowInsecure: true},     // bad special prime size
		{LogN: 12, LogQi: []int{30}, LogPi: []int{30, 30}, Scale: 1 << 30, AllowInsecure: true}, // digit larger than the chain
		{LogN: 13, LogQi: []int{50, 50, 50}, LogPi: []int{35, 35}, Scale: 1 << 30},              // second special prime breaks the bound
	}
	for i, lit := range cases {
		if _, err := NewParameters(lit); err == nil {
			t.Errorf("case %d: expected parameter validation error", i)
		}
	}
}

func TestMinLogNFor(t *testing.T) {
	cases := []struct {
		logQP, minLogN, want int
	}{
		{100, 10, 12},
		{360, 10, 14},
		{480, 10, 15},
		{810, 10, 15},
		{1225, 10, 16},
		{200, 14, 14},
	}
	for _, c := range cases {
		got, err := MinLogNFor(c.logQP, c.minLogN)
		if err != nil {
			t.Fatalf("MinLogNFor(%d): %v", c.logQP, err)
		}
		if got != c.want {
			t.Errorf("MinLogNFor(%d, %d) = %d, want %d", c.logQP, c.minLogN, got, c.want)
		}
	}
	if _, err := MinLogNFor(5000, 10); err == nil {
		t.Error("expected error for impossible modulus size")
	}
}

func TestGaloisElementForRotation(t *testing.T) {
	params := testParams(t, 11, []int{40}, 0, 1<<30)
	m := uint64(2 * params.N())
	if params.GaloisElementForRotation(0) != 1 {
		t.Error("rotation by 0 should map to Galois element 1")
	}
	if params.GaloisElementForRotation(1) != 5 {
		t.Error("rotation by 1 should map to Galois element 5")
	}
	// Negative rotations wrap around the slot count.
	neg := params.GaloisElementForRotation(-1)
	pos := params.GaloisElementForRotation(params.Slots() - 1)
	if neg != pos {
		t.Errorf("rotation by -1 (%d) != rotation by slots-1 (%d)", neg, pos)
	}
	for _, k := range []int{2, 3, 7} {
		if params.GaloisElementForRotation(k)%2 != 1 || params.GaloisElementForRotation(k) >= m {
			t.Errorf("Galois element for %d out of range", k)
		}
	}
}

func TestCiphertextHelpers(t *testing.T) {
	tc := newTestContext(t, 11, []int{40, 30}, 0, 1<<30, nil)
	ct := NewCiphertext(tc.params, 2, 1, 1<<30)
	if ct.Degree() != 1 || ct.Level != 1 {
		t.Error("NewCiphertext shape wrong")
	}
	cp := ct.CopyNew()
	cp.Value[0].Coeffs[0][0] = 12345
	if ct.Value[0].Coeffs[0][0] == 12345 {
		t.Error("CopyNew did not deep-copy")
	}
	if ct.MemoryBytes() <= 0 {
		t.Error("MemoryBytes not positive")
	}
	if ct.String() == "" {
		t.Error("empty String()")
	}
}

func TestKeyGenErrorsWithoutSpecialPrime(t *testing.T) {
	params := testParams(t, 11, []int{40}, 0, 1<<30)
	kg := NewKeyGenerator(params, NewTestPRNG(1))
	sk := kg.GenSecretKey()
	if _, err := kg.GenRelinearizationKey(sk, params.MaxLevel()); err == nil {
		t.Error("expected error generating relinearization key without special prime")
	}
	if _, err := kg.GenRotationKeys(sk, map[uint64]int{params.GaloisElementForRotation(1): params.MaxLevel()}); err == nil {
		t.Error("expected error generating rotation keys without special prime")
	}
}

// TestFingerprint: the fingerprint tells apart parameter sets that differ in
// the ring degree, in any special prime, or in how one list of primes splits
// between chain and special primes; it is equal for sets built from one
// literal, and stable: handles stored with it keep chaining.
func TestFingerprint(t *testing.T) {
	build := func(logN int, logQi, logPi []int) *Parameters {
		p, err := NewParameters(ParametersLiteral{LogN: logN, LogQi: logQi, LogPi: logPi, Scale: 1 << 30, AllowInsecure: true})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	chain := []int{40, 30, 30}
	a := build(10, chain, []int{50, 50})
	if got := a.Fingerprint(); got != "6f69fa6b2a8a38b2" {
		t.Errorf("fingerprint %s, stored handles carry 6f69fa6b2a8a38b2", got)
	}
	if build(10, chain, []int{50, 50}).Fingerprint() != a.Fingerprint() {
		t.Error("identical literals fingerprint differently")
	}
	for name, other := range map[string]*Parameters{
		"logN differs":                 build(11, chain, []int{50, 50}),
		"second special prime differs": build(10, chain, []int{50, 49}),
		"second special prime missing": build(10, chain, []int{50}),
	} {
		if other.Fingerprint() == a.Fingerprint() {
			t.Errorf("%s: same fingerprint", name)
		}
	}
	// The same primes in the same order, split differently between chain and
	// special primes.
	b, c := build(10, chain, []int{50}), build(10, chain[:2], []int{30, 50})
	if !slices.Equal(append(b.Qi(), b.SpecialPrimes()...), append(c.Qi(), c.SpecialPrimes()...)) {
		t.Fatal("the fixtures were meant to use one list of primes")
	}
	if b.Fingerprint() == c.Fingerprint() {
		t.Error("moving a prime from the chain to the special primes keeps the fingerprint")
	}
}
