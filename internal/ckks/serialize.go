package ckks

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"eva/internal/ring"
)

// Binary serialization of ciphertexts, plaintexts and public key material.
// In the paper's deployment model the client encrypts inputs locally and
// ships ciphertexts (and evaluation keys) to the untrusted server, so wire
// formats are part of the system. The format is a simple
// length-prefixed little-endian encoding; it is versioned by a magic byte so
// it can evolve.

const (
	magicCiphertext byte = 0xC1
	magicPlaintext  byte = 0xA1
	magicPublicKey  byte = 0xB1

	// The key formats that carry special-prime material are at their second
	// layout: digits of α chain primes with α special limbs each. The first
	// had one digit per chain prime and a single raw special limb, under the
	// retired magic bytes; such a blob cannot be used with any parameter set
	// this package generates and is rejected by name rather than mis-parsed.
	magicSecretKey    byte = 0xE2
	magicSwitchingKey byte = 0xD4
	magicRelinKey     byte = 0xD5
	magicRotationKeys byte = 0xD6

	retiredSecretKey    byte = 0xE1
	retiredSwitchingKey byte = 0xD1
	retiredRelinKey     byte = 0xD2
	retiredRotationKeys byte = 0xD3
)

// expectKeyMagic consumes a key payload's magic byte and checks it is want,
// naming the retired layout when it is that format's old byte instead.
func expectKeyMagic(r *bytes.Reader, want, retired byte, what string) error {
	magic, err := r.ReadByte()
	switch {
	case err == nil && magic == want:
		return nil
	case err == nil && magic == retired:
		return fmt.Errorf("ckks: %s payload uses the retired single-special-prime key layout; regenerate the keys", what)
	}
	return fmt.Errorf("ckks: not a %s payload", what)
}

func writePoly(buf *bytes.Buffer, p *ring.Poly) {
	var flags byte
	if p.IsNTT {
		flags = 1
	}
	buf.WriteByte(flags)
	binary.Write(buf, binary.LittleEndian, uint32(len(p.Coeffs)))
	binary.Write(buf, binary.LittleEndian, uint32(len(p.Coeffs[0])))
	for _, limb := range p.Coeffs {
		binary.Write(buf, binary.LittleEndian, limb)
	}
}

func readPoly(r *bytes.Reader) (*ring.Poly, error) {
	flags, err := r.ReadByte()
	if err != nil {
		return nil, fmt.Errorf("ckks: reading polynomial header: %w", err)
	}
	var limbs, n uint32
	if err := binary.Read(r, binary.LittleEndian, &limbs); err != nil {
		return nil, err
	}
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	if limbs == 0 || limbs > 64 || n == 0 || n > (1<<18) {
		return nil, fmt.Errorf("ckks: implausible polynomial shape %dx%d", limbs, n)
	}
	p := &ring.Poly{Coeffs: make([][]uint64, limbs), IsNTT: flags&1 == 1}
	for i := range p.Coeffs {
		p.Coeffs[i] = make([]uint64, n)
		if err := binary.Read(r, binary.LittleEndian, p.Coeffs[i]); err != nil {
			return nil, fmt.Errorf("ckks: reading polynomial limb %d: %w", i, err)
		}
	}
	return p, nil
}

// MarshalBinary encodes the ciphertext.
func (ct *Ciphertext) MarshalBinary() ([]byte, error) {
	if ct.Deferred() {
		return nil, fmt.Errorf("ckks: cannot encode a ciphertext with a deferred mod-down")
	}
	buf := &bytes.Buffer{}
	buf.WriteByte(magicCiphertext)
	binary.Write(buf, binary.LittleEndian, uint32(len(ct.Value)))
	binary.Write(buf, binary.LittleEndian, uint32(ct.Level))
	binary.Write(buf, binary.LittleEndian, math.Float64bits(ct.Scale))
	for _, p := range ct.Value {
		writePoly(buf, p)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a ciphertext produced by MarshalBinary.
func (ct *Ciphertext) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic, err := r.ReadByte()
	if err != nil || magic != magicCiphertext {
		return fmt.Errorf("ckks: not a ciphertext payload")
	}
	var size, level uint32
	var scaleBits uint64
	if err := binary.Read(r, binary.LittleEndian, &size); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &level); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &scaleBits); err != nil {
		return err
	}
	if size == 0 || size > 8 {
		return fmt.Errorf("ckks: implausible ciphertext size %d", size)
	}
	ct.Value = make([]*ring.Poly, size)
	ct.Level = int(level)
	ct.Scale = math.Float64frombits(scaleBits)
	for i := range ct.Value {
		if ct.Value[i], err = readPoly(r); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary encodes the plaintext.
func (pt *Plaintext) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicPlaintext)
	binary.Write(buf, binary.LittleEndian, uint32(pt.Level))
	binary.Write(buf, binary.LittleEndian, math.Float64bits(pt.Scale))
	writePoly(buf, pt.Value)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a plaintext produced by MarshalBinary.
func (pt *Plaintext) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic, err := r.ReadByte()
	if err != nil || magic != magicPlaintext {
		return fmt.Errorf("ckks: not a plaintext payload")
	}
	var level uint32
	var scaleBits uint64
	if err := binary.Read(r, binary.LittleEndian, &level); err != nil {
		return err
	}
	if err := binary.Read(r, binary.LittleEndian, &scaleBits); err != nil {
		return err
	}
	pt.Level = int(level)
	pt.Scale = math.Float64frombits(scaleBits)
	pt.Value, err = readPoly(r)
	return err
}

// MarshalBinary encodes the public key.
func (pk *PublicKey) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicPublicKey)
	writePoly(buf, pk.B)
	writePoly(buf, pk.A)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a public key produced by MarshalBinary.
func (pk *PublicKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	magic, err := r.ReadByte()
	if err != nil || magic != magicPublicKey {
		return fmt.Errorf("ckks: not a public-key payload")
	}
	if pk.B, err = readPoly(r); err != nil {
		return err
	}
	pk.A, err = readPoly(r)
	return err
}

func writeSwitchingKey(buf *bytes.Buffer, swk *SwitchingKey) {
	binary.Write(buf, binary.LittleEndian, uint32(len(swk.BQ)))
	for j := range swk.BQ {
		writePoly(buf, swk.BQ[j])
		writePoly(buf, swk.AQ[j])
		writePoly(buf, swk.BP[j])
		writePoly(buf, swk.AP[j])
	}
}

func readSwitchingKey(r *bytes.Reader) (*SwitchingKey, error) {
	var digits uint32
	if err := binary.Read(r, binary.LittleEndian, &digits); err != nil {
		return nil, err
	}
	if digits == 0 || digits > 64 {
		return nil, fmt.Errorf("ckks: implausible switching-key digit count %d", digits)
	}
	swk := &SwitchingKey{
		BQ: make([]*ring.Poly, digits),
		AQ: make([]*ring.Poly, digits),
		BP: make([]*ring.Poly, digits),
		AP: make([]*ring.Poly, digits),
	}
	var err error
	for j := uint32(0); j < digits; j++ {
		for _, dst := range []**ring.Poly{&swk.BQ[j], &swk.AQ[j], &swk.BP[j], &swk.AP[j]} {
			if *dst, err = readPoly(r); err != nil {
				return nil, err
			}
		}
	}
	return swk, nil
}

// MarshalBinary encodes the switching key.
func (swk *SwitchingKey) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicSwitchingKey)
	writeSwitchingKey(buf, swk)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a switching key produced by MarshalBinary.
func (swk *SwitchingKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if err := expectKeyMagic(r, magicSwitchingKey, retiredSwitchingKey, "switching-key"); err != nil {
		return err
	}
	decoded, err := readSwitchingKey(r)
	if err != nil {
		return err
	}
	*swk = *decoded
	return nil
}

// MarshalBinary encodes the relinearization key. In the paper's deployment
// model this is public evaluation material the client ships to the server
// alongside its encrypted inputs.
func (rlk *RelinearizationKey) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicRelinKey)
	writeSwitchingKey(buf, rlk.Key)
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a relinearization key produced by MarshalBinary.
func (rlk *RelinearizationKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if err := expectKeyMagic(r, magicRelinKey, retiredRelinKey, "relinearization-key"); err != nil {
		return err
	}
	var err error
	rlk.Key, err = readSwitchingKey(r)
	return err
}

// MarshalBinary encodes the rotation key set: one Galois switching key per
// distinct rotation step the compiled program needs. Keys are written in
// ascending Galois-element order so the encoding is deterministic.
func (rtk *RotationKeySet) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicRotationKeys)
	galEls := make([]uint64, 0, len(rtk.Keys))
	for galEl := range rtk.Keys {
		galEls = append(galEls, galEl)
	}
	sort.Slice(galEls, func(i, j int) bool { return galEls[i] < galEls[j] })
	binary.Write(buf, binary.LittleEndian, uint32(len(galEls)))
	for _, galEl := range galEls {
		binary.Write(buf, binary.LittleEndian, galEl)
		writeSwitchingKey(buf, rtk.Keys[galEl])
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a rotation key set produced by MarshalBinary.
func (rtk *RotationKeySet) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if err := expectKeyMagic(r, magicRotationKeys, retiredRotationKeys, "rotation-key-set"); err != nil {
		return err
	}
	var err error
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return err
	}
	if n > (1 << 16) {
		return fmt.Errorf("ckks: implausible rotation-key count %d", n)
	}
	rtk.Keys = make(map[uint64]*SwitchingKey, n)
	for i := uint32(0); i < n; i++ {
		var galEl uint64
		if err := binary.Read(r, binary.LittleEndian, &galEl); err != nil {
			return err
		}
		if rtk.Keys[galEl], err = readSwitchingKey(r); err != nil {
			return err
		}
	}
	return nil
}

// MarshalBinary encodes the secret key (including its special-prime limbs,
// when the parameter set has special primes). Handle with care: this is the
// decryption key.
func (sk *SecretKey) MarshalBinary() ([]byte, error) {
	buf := &bytes.Buffer{}
	buf.WriteByte(magicSecretKey)
	writePoly(buf, sk.Value)
	if sk.ValueP != nil {
		writePoly(buf, sk.ValueP)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes a secret key produced by MarshalBinary. The raw
// ternary form used to derive rotated secrets is not serialized, so a
// restored secret key can decrypt but cannot generate new rotation keys.
func (sk *SecretKey) UnmarshalBinary(data []byte) error {
	r := bytes.NewReader(data)
	if err := expectKeyMagic(r, magicSecretKey, retiredSecretKey, "secret-key"); err != nil {
		return err
	}
	var err error
	if sk.Value, err = readPoly(r); err != nil {
		return err
	}
	sk.ValueP = nil
	if r.Len() > 0 {
		sk.ValueP, err = readPoly(r)
	}
	return err
}
