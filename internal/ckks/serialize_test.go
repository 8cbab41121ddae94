package ckks

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"strings"
	"testing"
)

// TestCiphertextSerializationRoundTrip ships a ciphertext through the wire
// format and checks it still decrypts to the original message.
func TestCiphertextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)
	values := tc.randomVector(21, 0)
	ct := tc.encrypt(t, values)

	data, err := ct.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Ciphertext{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if restored.Level != ct.Level || restored.Scale != ct.Scale || restored.Degree() != ct.Degree() {
		t.Fatalf("metadata changed: %v vs %v", restored, ct)
	}
	requireClose(t, tc.decryptTo(t, restored), values, 1e-6, "restored ciphertext")
	if err := restored.Validate(tc.params); err != nil {
		t.Fatalf("restored ciphertext fails validation: %v", err)
	}

	// A limb with q₀ added to one coefficient still decodes (the wire format
	// does not know the primes) but is not reduced: it would decrypt to a
	// different value, so validation refuses it by polynomial and limb.
	unreduced := &Ciphertext{}
	if err := unreduced.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	unreduced.Value[1].Coeffs[0][7] += tc.params.RingQ().Moduli[0].Q
	if err := unreduced.Validate(tc.params); err == nil || !strings.Contains(err.Error(), "polynomial 1 limb 0") {
		t.Errorf("ciphertext with an unreduced coefficient: error %v, want a refusal naming polynomial 1 limb 0", err)
	}

	// Restored ciphertexts participate in homomorphic operations.
	sum, err := tc.eval.Add(restored, ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(values))
	for i := range want {
		want[i] = 2 * values[i]
	}
	requireClose(t, tc.decryptTo(t, sum), want, 1e-6, "sum with restored ciphertext")
}

func TestPlaintextSerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, 11, []int{45}, 0, 1<<35, nil)
	values := tc.randomVector(22, 0)
	pt, err := tc.enc.Encode(values, tc.params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	data, err := pt.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Plaintext{}
	if err := restored.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	requireClose(t, tc.enc.Decode(restored), values, 1e-6, "restored plaintext")
}

func TestKeySerializationRoundTrip(t *testing.T) {
	tc := newTestContext(t, 12, []int{50, 40}, 50, 1<<40, nil)

	// Encrypt and decrypt under the restored secret key.
	skData, err := tc.sk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	sk := &SecretKey{}
	if err := sk.UnmarshalBinary(skData); err != nil {
		t.Fatal(err)
	}
	values := tc.randomVector(23, 0)
	pt, _ := tc.enc.Encode(values, tc.params.DefaultScale(), tc.params.MaxLevel())
	enc := NewEncryptor(tc.params, sk, NewTestPRNG(77))
	ct, err := enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecryptor(tc.params, sk)
	requireClose(t, tc.enc.Decode(dec.Decrypt(ct)), values, 1e-6, "restored secret key")
}

// TestEvaluationKeySerializationRoundTrip ships the public evaluation keys
// (relinearization + rotation) through the wire format and checks that an
// evaluator armed only with the restored keys computes correctly — the
// client-keygen deployment model of the paper, where the server never sees
// the secret key.
func TestEvaluationKeySerializationRoundTrip(t *testing.T) {
	for _, logPi := range [][]int{{50}, {50, 50}} { // per-prime digits, and one digit of two
		evaluationKeyRoundTrip(t, newTestContextSpecials(t, 12, []int{50, 40}, logPi, 1<<40, []int{1, 3}))
	}
}

func evaluationKeyRoundTrip(t *testing.T, tc *testContext) {

	rlkData, err := tc.rlk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rlk := &RelinearizationKey{}
	if err := rlk.UnmarshalBinary(rlkData); err != nil {
		t.Fatal(err)
	}
	rtkData, err := tc.rtk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	rtk := &RotationKeySet{}
	if err := rtk.UnmarshalBinary(rtkData); err != nil {
		t.Fatal(err)
	}
	if len(rtk.Keys) != len(tc.rtk.Keys) {
		t.Fatalf("rotation key count changed: got %d, want %d", len(rtk.Keys), len(tc.rtk.Keys))
	}

	eval := NewEvaluator(tc.params, EvaluationKeys{Rlk: rlk, Rtk: rtk})
	values := tc.randomVector(25, 0)
	ct := tc.encrypt(t, values)

	prod, err := eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	relin, err := eval.Relinearize(prod)
	if err != nil {
		t.Fatal(err)
	}
	squares := make([]float64, len(values))
	for i := range values {
		squares[i] = values[i] * values[i]
	}
	requireClose(t, tc.decryptTo(t, relin), squares, 1e-4, "relinearize with restored key")

	rot, err := eval.RotateLeft(ct, 3)
	if err != nil {
		t.Fatal(err)
	}
	rotated := make([]float64, len(values))
	for i := range values {
		rotated[i] = values[(i+3)%len(values)]
	}
	requireClose(t, tc.decryptTo(t, rot), rotated, 1e-4, "rotate with restored key")
}

func TestSerializationRejectsGarbage(t *testing.T) {
	ct := &Ciphertext{}
	if err := ct.UnmarshalBinary([]byte{0x00, 0x01}); err == nil {
		t.Error("expected error for wrong ciphertext magic")
	}
	pt := &Plaintext{}
	if err := pt.UnmarshalBinary([]byte{0xFF}); err == nil {
		t.Error("expected error for wrong plaintext magic")
	}
	sk := &SecretKey{}
	if err := sk.UnmarshalBinary([]byte{magicSecretKey}); err == nil {
		t.Error("expected error for truncated secret key payload")
	}
	rlk := &RelinearizationKey{}
	if err := rlk.UnmarshalBinary([]byte{magicCiphertext}); err == nil {
		t.Error("expected error for wrong relinearization-key magic")
	}
	rtk := &RotationKeySet{}
	if err := rtk.UnmarshalBinary([]byte{magicRotationKeys, 0xFF}); err == nil {
		t.Error("expected error for truncated rotation-key payload")
	}
	// Truncated but correctly tagged payload.
	tc := newTestContext(t, 11, []int{45}, 0, 1<<35, nil)
	good, _ := tc.encrypt(t, tc.randomVector(24, 0)).MarshalBinary()
	if err := ct.UnmarshalBinary(good[:len(good)/2]); err == nil {
		t.Error("expected error for truncated ciphertext payload")
	}
}

// TestKeySerializationRejectsRetiredLayout: key blobs written before digits
// were grouped (one raw special limb per digit, older magic bytes) must be
// refused by name, not parsed as the new layout.
func TestKeySerializationRejectsRetiredLayout(t *testing.T) {
	retired := map[string]struct {
		magic  byte
		decode func([]byte) error
	}{
		"secret key":          {retiredSecretKey, new(SecretKey).UnmarshalBinary},
		"switching key":       {retiredSwitchingKey, new(SwitchingKey).UnmarshalBinary},
		"relinearization key": {retiredRelinKey, new(RelinearizationKey).UnmarshalBinary},
		"rotation key set":    {retiredRotationKeys, new(RotationKeySet).UnmarshalBinary},
	}
	for what, c := range retired {
		err := c.decode([]byte{c.magic, 2, 0, 0, 0, 1, 2, 0, 0, 0})
		if err == nil || !strings.Contains(err.Error(), "retired") {
			t.Errorf("%s with the old magic byte: error %v, want one naming the retired layout", what, err)
		}
	}
	// The current magic bytes differ from every retired one.
	for _, m := range []byte{magicSecretKey, magicSwitchingKey, magicRelinKey, magicRotationKeys} {
		for _, c := range retired {
			if m == c.magic {
				t.Errorf("magic byte %#x is still in use", m)
			}
		}
	}
}

// TestSwitchingKeyValidate: a key must have ⌈(L+1)/α⌉ digits of L+1 chain
// limbs and α special limbs for the parameter set it is used with. A key set
// generated for a different digit size over the same chain is the realistic
// mismatch (a client that ignored the special-prime list).
func TestSwitchingKeyValidate(t *testing.T) {
	logQi := []int{50, 40, 40, 40, 40}
	perPrime := newTestContextSpecials(t, 11, logQi, []int{60}, 1<<40, []int{1})
	grouped := newTestContextSpecials(t, 11, logQi, []int{60, 60}, 1<<40, []int{1})
	if err := grouped.rlk.Key.Validate(grouped.params, grouped.params.MaxLevel()); err != nil {
		t.Fatalf("a freshly generated key fails validation: %v", err)
	}
	if got := len(grouped.rlk.Key.BQ); got != 3 {
		t.Fatalf("5 chain primes in digits of 2: %d digits, want 3", got)
	}
	if err := perPrime.rlk.Key.Validate(grouped.params, grouped.params.MaxLevel()); err == nil || !strings.Contains(err.Error(), "digits") {
		t.Errorf("per-prime key against digit size 2: error %v, want a digit-count error", err)
	}
	if err := grouped.rlk.Key.Validate(perPrime.params, perPrime.params.MaxLevel()); err == nil {
		t.Error("digit-size-2 key validated against per-prime parameters")
	}
	noSpecial := testParams(t, 11, logQi, 0, 1<<40)
	if err := grouped.rlk.Key.Validate(noSpecial, noSpecial.MaxLevel()); err == nil {
		t.Error("key validated against parameters without special primes")
	}

	corrupt := func(name string, mutate func(swk *SwitchingKey)) error {
		data, err := grouped.rlk.Key.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		swk := &SwitchingKey{}
		if err := swk.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		mutate(swk)
		err = swk.Validate(grouped.params, grouped.params.MaxLevel())
		if err == nil {
			t.Errorf("%s: validation passed", name)
		}
		return err
	}
	corrupt("chain polynomial short of a limb", func(swk *SwitchingKey) { swk.AQ[1].Coeffs = swk.AQ[1].Coeffs[:4] })
	corrupt("special polynomial short of a limb", func(swk *SwitchingKey) { swk.BP[0].Coeffs = swk.BP[0].Coeffs[:1] })
	corrupt("special polynomial with a chain's limb count", func(swk *SwitchingKey) { swk.AP[2] = swk.AQ[2] })
	corrupt("truncated limb", func(swk *SwitchingKey) { swk.BQ[2].Coeffs[3] = swk.BQ[2].Coeffs[3][:100] })
	corrupt("missing polynomial", func(swk *SwitchingKey) { swk.BP[1] = nil })
	corrupt("coefficient-domain polynomial", func(swk *SwitchingKey) { swk.BQ[0].IsNTT = false })
	corrupt("dropped digit", func(swk *SwitchingKey) { swk.BQ = swk.BQ[:2] })
	q0, p1 := grouped.params.RingQ().Moduli[0].Q, grouped.params.RingP().Moduli[1].Q
	for want, mutate := range map[string]func(swk *SwitchingKey){
		"digit 1 chain AQ polynomial limb 0":   func(swk *SwitchingKey) { swk.AQ[1].Coeffs[0][9] += q0 },
		"digit 2 special BP polynomial limb 1": func(swk *SwitchingKey) { swk.BP[2].Coeffs[1][3] += p1 },
	} {
		if err := corrupt("unreduced coefficient in "+want, mutate); err != nil && !strings.Contains(err.Error(), want) {
			t.Errorf("unreduced coefficient: error %v, want one naming %s", err, want)
		}
	}

	// A key built to level 2 has ⌈3/2⌉ = 2 digits of 3 chain limbs: it
	// serves uses up to level 2 and is refused, by its level, above that.
	kg := NewKeyGenerator(grouped.params, NewTestPRNG(3))
	shallow, err := kg.GenRelinearizationKey(kg.GenSecretKey(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if got, limbs := len(shallow.Key.BQ), len(shallow.Key.BQ[0].Coeffs); got != 2 || limbs != 3 {
		t.Fatalf("level-2 key: %d digits of %d chain limbs, want 2 of 3", got, limbs)
	}
	for need := 0; need <= 2; need++ {
		if err := shallow.Key.Validate(grouped.params, need); err != nil {
			t.Errorf("level-2 key used at level %d: %v", need, err)
		}
	}
	if err := shallow.Key.Validate(grouped.params, 3); err == nil || !strings.Contains(err.Error(), "reaches level 2; it is used at level 3") {
		t.Errorf("level-2 key used at level 3: error %v, want a refusal naming both levels", err)
	}
}

// TestSerializationRefusesTrailingBytes: every decoder accepts exactly the
// bytes its encoder wrote — they round-trip unchanged — and refuses the same
// payload with one byte appended or an unused flag bit set, so each value
// has a single encoding.
func TestSerializationRefusesTrailingBytes(t *testing.T) {
	tc := newTestContextSpecials(t, 11, []int{45, 40}, []int{50}, 1<<35, []int{1})
	pt, err := tc.enc.Encode(tc.randomVector(26, 0), tc.params.DefaultScale(), 0)
	if err != nil {
		t.Fatal(err)
	}
	type codec interface {
		MarshalBinary() ([]byte, error)
		UnmarshalBinary([]byte) error
	}
	cases := []struct {
		name  string
		value codec
		fresh func() codec
	}{
		{"ciphertext", tc.encrypt(t, tc.randomVector(27, 0)), func() codec { return &Ciphertext{} }},
		{"plaintext", pt, func() codec { return &Plaintext{} }},
		{"switching key", tc.rlk.Key, func() codec { return &SwitchingKey{} }},
		{"relinearization key", tc.rlk, func() codec { return &RelinearizationKey{} }},
		{"rotation key set", tc.rtk, func() codec { return &RotationKeySet{} }},
		{"secret key", tc.sk, func() codec { return &SecretKey{} }},
	}
	for _, c := range cases {
		data, err := c.value.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		restored := c.fresh()
		if err := restored.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: exact bytes refused: %v", c.name, err)
		}
		again, err := restored.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !bytes.Equal(again, data) {
			t.Errorf("%s: bytes changed across a round trip", c.name)
		}
		err = c.fresh().UnmarshalBinary(append(data[:len(data):len(data)], 0))
		if err == nil || !strings.Contains(err.Error(), "trailing") {
			t.Errorf("%s with one appended byte: error %v, want a trailing-bytes refusal", c.name, err)
		}
	}

	// A polynomial's flags byte has one meaning per value: an unused bit set
	// would give the same ciphertext a second encoding.
	data, err := cases[0].value.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const flagsAt = 1 + 4 + 4 + 8 // magic, size, level, scale
	if data[flagsAt] != 1 {
		t.Fatalf("first polynomial flags %#x, want 1 (NTT)", data[flagsAt])
	}
	data[flagsAt] |= 2
	if err := new(Ciphertext).UnmarshalBinary(data); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Errorf("ciphertext with an unused flag bit: error %v, want a flags refusal", err)
	}
}

// TestShortPayloadAllocatesLittle: a 26-byte ciphertext whose one polynomial
// claims 64 limbs of 2^18 coefficients (128 MiB) is refused before the
// decoder allocates for the claim.
func TestShortPayloadAllocatesLittle(t *testing.T) {
	data := []byte{magicCiphertext}
	data = binary.LittleEndian.AppendUint32(data, 1) // one polynomial
	data = binary.LittleEndian.AppendUint32(data, 0) // level
	data = binary.LittleEndian.AppendUint64(data, math.Float64bits(1<<40))
	data = append(data, 1) // NTT form
	data = binary.LittleEndian.AppendUint32(data, 64)
	data = binary.LittleEndian.AppendUint32(data, 1<<18)
	if len(data) != 26 {
		t.Fatalf("payload of %d bytes, want 26", len(data))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := (&Ciphertext{}).UnmarshalBinary(data)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "needs") {
		t.Errorf("error %v, want a refusal naming the bytes the shape needs", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<10 {
		t.Errorf("decoding the 26-byte payload allocated %d bytes, want under 64 KiB", alloc)
	}
}
