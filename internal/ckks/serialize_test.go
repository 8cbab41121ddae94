package ckks

import (
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

	pkData, err := tc.pk.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	pk := &PublicKey{}
	if err := pk.UnmarshalBinary(pkData); err != nil {
		t.Fatal(err)
	}
	// Encrypt under the restored public key and decrypt with the restored
	// secret key.
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
	enc := NewEncryptor(tc.params, pk, NewTestPRNG(77))
	ct, err := enc.Encrypt(pt)
	if err != nil {
		t.Fatal(err)
	}
	dec := NewDecryptor(tc.params, sk)
	requireClose(t, tc.enc.Decode(dec.Decrypt(ct)), values, 1e-6, "restored key pair")
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
	pk := &PublicKey{}
	if err := pk.UnmarshalBinary(nil); err == nil {
		t.Error("expected error for empty public key payload")
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
	if err := grouped.rlk.Key.Validate(grouped.params); err != nil {
		t.Fatalf("a freshly generated key fails validation: %v", err)
	}
	if got := len(grouped.rlk.Key.BQ); got != 3 {
		t.Fatalf("5 chain primes in digits of 2: %d digits, want 3", got)
	}
	if err := perPrime.rlk.Key.Validate(grouped.params); err == nil || !strings.Contains(err.Error(), "digits") {
		t.Errorf("per-prime key against digit size 2: error %v, want a digit-count error", err)
	}
	if err := grouped.rlk.Key.Validate(perPrime.params); err == nil {
		t.Error("digit-size-2 key validated against per-prime parameters")
	}
	noSpecial := testParams(t, 11, logQi, 0, 1<<40)
	if err := grouped.rlk.Key.Validate(noSpecial); err == nil {
		t.Error("key validated against parameters without special primes")
	}

	corrupt := func(name string, mutate func(swk *SwitchingKey)) {
		data, err := grouped.rlk.Key.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		swk := &SwitchingKey{}
		if err := swk.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		mutate(swk)
		if err := swk.Validate(grouped.params); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
	corrupt("chain polynomial short of a limb", func(swk *SwitchingKey) { swk.AQ[1].Coeffs = swk.AQ[1].Coeffs[:4] })
	corrupt("special polynomial short of a limb", func(swk *SwitchingKey) { swk.BP[0].Coeffs = swk.BP[0].Coeffs[:1] })
	corrupt("special polynomial with a chain's limb count", func(swk *SwitchingKey) { swk.AP[2] = swk.AQ[2] })
	corrupt("truncated limb", func(swk *SwitchingKey) { swk.BQ[2].Coeffs[3] = swk.BQ[2].Coeffs[3][:100] })
	corrupt("missing polynomial", func(swk *SwitchingKey) { swk.BP[1] = nil })
	corrupt("coefficient-domain polynomial", func(swk *SwitchingKey) { swk.BQ[0].IsNTT = false })
	corrupt("dropped digit", func(swk *SwitchingKey) { swk.BQ = swk.BQ[:2] })
}
