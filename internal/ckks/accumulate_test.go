package ckks

import (
	"strings"
	"testing"

	"eva/internal/ring"
)

// accumulateOperands encrypts n random vectors and encodes n more, all at the
// top level.
func accumulateOperands(t testing.TB, tc *testContext, n int) ([]*Ciphertext, []*Plaintext) {
	t.Helper()
	cts := make([]*Ciphertext, n)
	pts := make([]*Plaintext, n)
	for i := range cts {
		cts[i] = tc.encrypt(t, tc.randomVector(int64(2*i), 0))
		pt, err := tc.enc.Encode(tc.randomVector(int64(2*i+1), 0), tc.params.DefaultScale(), tc.params.MaxLevel())
		if err != nil {
			t.Fatal(err)
		}
		pts[i] = pt
	}
	return cts, pts
}

// sequentialAccumulate is the reference: MulPlain every product, Add them
// left to right, handing dead intermediates back to the pool.
func sequentialAccumulate(t testing.TB, ev *Evaluator, cts []*Ciphertext, pts []*Plaintext) *Ciphertext {
	t.Helper()
	var acc *Ciphertext
	for i := range cts {
		prod, err := ev.MulPlain(cts[i], pts[i])
		if err != nil {
			t.Fatal(err)
		}
		if acc == nil {
			acc = prod
			continue
		}
		sum, err := ev.Add(acc, prod)
		if err != nil {
			t.Fatal(err)
		}
		ev.Recycle(acc)
		ev.Recycle(prod)
		acc = sum
	}
	return acc
}

func requireSameCiphertext(t testing.TB, got, want *Ciphertext, what string) {
	t.Helper()
	if got.Level != want.Level || got.Scale != want.Scale || len(got.Value) != len(want.Value) {
		t.Fatalf("%s: got %v, want %v", what, got, want)
	}
	for i := range want.Value {
		if !got.Value[i].Equal(want.Value[i]) {
			t.Fatalf("%s: component %d differs", what, i)
		}
	}
}

// TestMulPlainAccumulateMatchesSequential pins the fused kernel bit for bit
// against the MulPlain/Add chain it replaces: single products, sums that fit
// one lazy accumulation, and sums that need several chunks; at the top level
// with matching plaintexts and one level down with plaintexts a level above
// their ciphertexts.
func TestMulPlainAccumulateMatchesSequential(t *testing.T) {
	tc := newTestContext(t, 10, []int{55, 45, 45}, 55, 1<<45, nil)
	cts, pts := accumulateOperands(t, tc, 2*ring.MaxLazyDigits+22)
	lower := make([]*Ciphertext, len(cts))
	for i, ct := range cts {
		var err error
		if lower[i], err = tc.eval.ModSwitch(ct); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{1, 2, 7, ring.MaxLazyDigits, ring.MaxLazyDigits + 1, len(cts)} {
		for name, operands := range map[string][]*Ciphertext{"top level": cts, "one level down": lower} {
			got, err := tc.eval.MulPlainAccumulate(operands[:n], pts[:n])
			if err != nil {
				t.Fatalf("%d products, %s: %v", n, name, err)
			}
			requireSameCiphertext(t, got, sequentialAccumulate(t, tc.eval, operands[:n], pts[:n]), name)
		}
	}
}

func TestMulPlainAccumulateErrors(t *testing.T) {
	tc := newTestContext(t, 10, []int{55, 45, 45}, 55, 1<<45, nil)
	cts, pts := accumulateOperands(t, tc, 3)
	lower, err := tc.eval.ModSwitch(cts[1])
	if err != nil {
		t.Fatal(err)
	}
	square, err := tc.eval.Mul(cts[1], cts[1])
	if err != nil {
		t.Fatal(err)
	}
	rescaled := pts[1].CopyNew()
	rescaled.Scale *= 2
	coeffDomain := pts[1].CopyNew()
	coeffDomain.Value.IsNTT = false
	for _, tt := range []struct {
		name string
		cts  []*Ciphertext
		pts  []*Plaintext
		want string
	}{
		{"nothing to sum", nil, nil, "0 ciphertexts"},
		{"unpaired operands", cts, pts[:2], "3 ciphertexts and 2 plaintexts"},
		{"mixed levels", []*Ciphertext{cts[0], lower}, pts[:2], "level mismatch"},
		{"degree-2 operand", []*Ciphertext{cts[0], square}, pts[:2], "degree-1"},
		{"mismatched scales", cts[:2], []*Plaintext{pts[0], rescaled}, "scale mismatch"},
		{"plaintext below its ciphertext", []*Ciphertext{lower, cts[1]}, []*Plaintext{{Value: pts[0].Value, Scale: pts[0].Scale, Level: 0}, pts[1]}, "level"},
		{"plaintext outside the NTT domain", cts[:2], []*Plaintext{pts[0], coeffDomain}, "NTT form"},
	} {
		if _, err := tc.eval.MulPlainAccumulate(tt.cts, tt.pts); err == nil || !strings.Contains(err.Error(), tt.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tt.name, err, tt.want)
		}
	}
}

// TestPlainOpsReadOnlyTheResultLevels: AddPlain and SubPlain build component
// 0 straight from their operands, so a plaintext encoded above the
// ciphertext's level gives exactly what one encoded at it does.
func TestPlainOpsReadOnlyTheResultLevels(t *testing.T) {
	tc := newTestContext(t, 10, []int{55, 45, 45}, 55, 1<<45, nil)
	ct, err := tc.eval.ModSwitch(tc.encrypt(t, tc.randomVector(1, 0)))
	if err != nil {
		t.Fatal(err)
	}
	v := tc.randomVector(2, 0)
	above, _ := tc.enc.Encode(v, ct.Scale, tc.params.MaxLevel())
	level, _ := tc.enc.Encode(v, ct.Scale, ct.Level)
	for name, op := range map[string]func(*Ciphertext, *Plaintext) (*Ciphertext, error){
		"AddPlain": tc.eval.AddPlain, "SubPlain": tc.eval.SubPlain,
	} {
		got, err := op(ct, above)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := op(ct, level)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireSameCiphertext(t, got, want, name)
		if got.Value[1] == ct.Value[1] || !got.Value[1].Equal(ct.Value[1]) {
			t.Errorf("%s: component 1 must be a copy of the operand's", name)
		}
	}
}

// TestRecycleReusesBuffers: an operation whose result is recycled draws the
// next result's polynomials from the pool — in steady state it allocates the
// ciphertext's small header and nothing proportional to the ring.
func TestRecycleReusesBuffers(t *testing.T) {
	tc := newTestContext(t, 11, []int{50, 40}, 50, 1<<40, nil)
	a, b := tc.encrypt(t, tc.randomVector(1, 0)), tc.encrypt(t, tc.randomVector(2, 0))
	step := func() {
		sum, err := tc.eval.Add(a, b)
		if err != nil {
			t.Fatal(err)
		}
		tc.eval.Recycle(sum)
		if sum.Value != nil {
			t.Fatal("Recycle left the ciphertext usable")
		}
	}
	step()
	if raceEnabled {
		return // sync.Pool drops a share of Puts under the race detector
	}
	if allocs := testing.AllocsPerRun(50, step); allocs > 3 {
		t.Errorf("Add + Recycle allocates %.0f objects per op in steady state, want <= 3", allocs)
	}
}
