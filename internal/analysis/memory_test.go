package analysis

import (
	"testing"

	"eva/internal/core"
)

func memProgram(t *testing.T, chain int) *core.Program {
	t.Helper()
	p := core.MustNewProgram("mem", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	acc := x
	for i := 0; i < chain; i++ {
		acc, _ = p.NewBinary(core.OpMultiply, acc, x)
	}
	if err := p.AddOutput("out", acc, 30); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEstimatePeakMemoryBytes(t *testing.T) {
	m := CostModel{LogN: 12, TotalLevels: 4}
	small := m.EstimatePeakMemoryBytes(memProgram(t, 1))
	large := m.EstimatePeakMemoryBytes(memProgram(t, 3))
	if small <= 0 {
		t.Fatalf("estimate not positive: %d", small)
	}
	// A fresh input ciphertext is 2 polys x 4 limbs x 4096 coeffs x 8 bytes.
	if minInput := int64(2 * 4 * 4096 * 8); small < minInput {
		t.Errorf("estimate %d smaller than one input ciphertext (%d)", small, minInput)
	}
	if large <= small {
		t.Errorf("deeper program estimated at %d bytes, shallow one at %d; want growth", large, small)
	}
}

func TestEstimatePeakMemoryPlainProgram(t *testing.T) {
	p := core.MustNewProgram("plain", 8)
	x, _ := p.NewInput("x", core.TypeVector, 8, 30)
	y, _ := p.NewBinary(core.OpAdd, x, x)
	if err := p.AddOutput("out", y, 30); err != nil {
		t.Fatal(err)
	}
	m := CostModel{LogN: 12, TotalLevels: 4}
	est := m.EstimatePeakMemoryBytes(p)
	// Two live plain vectors of 2^12 float64s.
	if want := int64(2 * 8 * 4096); est != want {
		t.Errorf("plain-only estimate = %d; want %d", est, want)
	}
}

// TestEstimatePeakAccountsDegree3Products: an unrelinearized cipher-cipher
// product is charged three polynomials.
func TestEstimatePeakAccountsDegree3Products(t *testing.T) {
	p := memProgram(t, 1)
	m := CostModel{LogN: 12, TotalLevels: 1}
	est := m.EstimatePeakMemoryBytes(p)
	// Live set peaks with the input (2 polys) plus the product (3 polys),
	// all at 1 limb of 4096 coefficients.
	if want := int64((2 + 3) * 1 * 4096 * 8); est != want {
		t.Errorf("estimate = %d; want %d", est, want)
	}
}

// TestSwitchingKeyBytes: ⌈L/α⌉ digits of two polynomials over L+α limbs.
func TestSwitchingKeyBytes(t *testing.T) {
	cases := []struct {
		model CostModel
		limbs int64 // limb count of one key
	}{
		{CostModel{LogN: 10, TotalLevels: 16}, 16 * 2 * 17},
		{CostModel{LogN: 10, TotalLevels: 16, DigitSize: 4}, 4 * 2 * 20},
		{CostModel{LogN: 14, TotalLevels: 5, DigitSize: 2}, 3 * 2 * 7},
	}
	for _, c := range cases {
		if got, want := c.model.SwitchingKeyBytes(), c.limbs*8<<uint(c.model.LogN); got != want {
			t.Errorf("%+v: %d bytes, want %d", c.model, got, want)
		}
	}
}
