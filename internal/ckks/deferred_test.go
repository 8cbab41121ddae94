package ckks

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eva/internal/ring"
)

// deferredLeaf is one product of a multiply-accumulate in the deferred-path
// tests: the source ciphertext, the rotation step applied to it (0 for none),
// and whether that rotation defers its mod-down.
type deferredLeaf struct {
	src, step int
	deferred  bool
}

// deferredCases are the chain shapes the deferred path must handle: a lone
// rotation, a hoisted batch, a step two leaves share, deferred leaves mixed
// with unrotated and standard rotated ones, and more leaves than one lazy
// accumulation holds.
func deferredCases() map[string][]deferredLeaf {
	long := []deferredLeaf{}
	for src := 0; len(long) <= ring.MaxLazyDigits+6; src++ {
		for step := 1; step <= 8; step++ {
			long = append(long, deferredLeaf{src, step, true})
		}
		long = append(long, deferredLeaf{src, 0, false})
	}
	return map[string][]deferredLeaf{
		"lone":    {{0, 3, true}},
		"hoisted": {{0, 1, true}, {0, 2, true}, {0, 5, true}, {0, -1, true}},
		"shared":  {{0, 1, true}, {0, 1, true}, {0, 2, true}, {1, 2, true}},
		"mixed":   {{0, 1, true}, {0, 0, false}, {1, 3, false}, {1, 4, true}, {2, 0, false}, {0, 2, true}},
		"long":    long,
	}
}

// TestDeferredModDownAccumulate runs every deferred case at digit sizes 1, 2
// and 4 twice — rotations deferred, and the same rotations with their
// mod-downs (the standard path) — and compares both decrypted sums with the
// plain arithmetic. The deferred sum stays deferred until ModDown finishes
// it; it must then be within 1e-6 per unit of the largest slot value, and no
// worse than 1.25× the standard path's error: it rounds once for the whole
// sum instead of once per rotation.
func TestDeferredModDownAccumulate(t *testing.T) {
	steps := []int{1, 2, 3, 4, 5, 6, 7, 8, -1}
	for _, alpha := range []int{1, 2, 4} {
		special := make([]int, alpha)
		for i := range special {
			special[i] = 60
		}
		tc := newTestContextSpecials(t, 10, []int{50, 40, 40, 40}, special, 1<<40, steps)
		slots := tc.params.Slots()
		for name, leaves := range deferredCases() {
			t.Run(fmt.Sprintf("alpha=%d/%s", alpha, name), func(t *testing.T) {
				sources := 0
				for _, l := range leaves {
					sources = max(sources, l.src+1)
				}
				vals := make([][]float64, sources)
				cts := make([]*Ciphertext, sources)
				for i := range cts {
					vals[i] = tc.randomVector(int64(10*alpha+i), 1)
					cts[i] = tc.encrypt(t, vals[i])
				}
				rotate := func(deferred bool) []*Ciphertext {
					// One batch per source, as the executor hoists them.
					out := make([]*Ciphertext, len(leaves))
					for src := range cts {
						var ks []int
						var flags []bool
						for _, l := range leaves {
							if l.src == src && l.step != 0 {
								ks = append(ks, l.step)
								flags = append(flags, deferred && l.deferred)
							}
						}
						batch, err := tc.eval.RotateHoisted(cts[src], ks, flags)
						if err != nil {
							t.Fatal(err)
						}
						for i, l := range leaves {
							switch {
							case l.src != src:
							case l.step == 0:
								out[i] = cts[src]
							default:
								out[i] = batch[l.step]
								if got := out[i].Deferred(); got != (deferred && l.deferred) {
									t.Fatalf("leaf %d: Deferred() = %v", i, got)
								}
							}
						}
					}
					return out
				}

				want := make([]float64, slots)
				std := make([]*Plaintext, len(leaves))
				ext := make([]*Plaintext, len(leaves))
				for i, l := range leaves {
					w := tc.randomVector(int64(1000+i), 1)
					var err error
					if std[i], err = tc.enc.Encode(w, tc.params.DefaultScale(), tc.params.MaxLevel()); err != nil {
						t.Fatal(err)
					}
					if ext[i], err = tc.enc.EncodeExtended(w, tc.params.DefaultScale(), tc.params.MaxLevel()); err != nil {
						t.Fatal(err)
					}
					if !ext[i].Value.Equal(std[i].Value) {
						t.Fatal("EncodeExtended changed the encoding over the chain primes")
					}
					for j := range want {
						want[j] += w[j] * vals[l.src][((j+l.step)%slots+slots)%slots]
					}
				}
				bound := 1e-6
				for _, x := range want {
					bound = max(bound, 1e-6*math.Abs(x))
				}

				standard, err := tc.eval.MulPlainAccumulate(rotate(false), std)
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := tc.eval.MulPlainAccumulate(rotate(true), ext)
				if err != nil {
					t.Fatal(err)
				}
				if !lazy.Deferred() || standard.Deferred() {
					t.Fatalf("sum over deferred leaves: Deferred() %v; standard sum: %v", lazy.Deferred(), standard.Deferred())
				}
				deferred, err := tc.eval.ModDown(lazy)
				if err != nil {
					t.Fatal(err)
				}
				if deferred.Deferred() || deferred.Level != standard.Level || deferred.Scale != standard.Scale {
					t.Fatalf("deferred sum %v (deferred %v), standard %v", deferred, deferred.Deferred(), standard)
				}
				errStd := maxAbsDiff(tc.decryptTo(t, standard), want)
				errDef := maxAbsDiff(tc.decryptTo(t, deferred), want)
				t.Logf("%d leaves: error %.3g deferred, %.3g standard (bound %.3g)", len(leaves), errDef, errStd, bound)
				if errDef > bound {
					t.Errorf("deferred sum is off by %g, bound %g", errDef, bound)
				}
				if errDef > 1.25*errStd {
					t.Errorf("deferred sum is off by %g, more than 1.25× the standard path's %g", errDef, errStd)
				}
			})
		}
	}
}

// deferredAccepting lists the Evaluator methods that take a deferred
// ciphertext (and Recycle, which takes anything it produced).
var deferredAccepting = map[string]bool{
	"Add": true, "Sub": true, "MulPlainAccumulate": true, "Rescale": true, "ModDown": true, "Recycle": true,
}

// TestDeferredRotationRefused: a deferred ciphertext — a rotation, a
// relinearization or a sum of them — is only an operand of the accepting
// methods. Every other Evaluator method that takes a ciphertext — found by
// reflection, so a new method is covered the day it lands — refuses it in
// every ciphertext slot, as do Validate and MarshalBinary. The accepting
// methods refuse what they cannot finish: MulPlainAccumulate a plaintext not
// extended over the special primes, Add and Sub a degree-2 partner, and
// ModDown a ciphertext with nothing deferred. Recycle hands the special limbs
// back too.
func TestDeferredRotationRefused(t *testing.T) {
	tc := newTestContextSpecials(t, 10, []int{50, 40}, []int{60, 60}, 1<<40, []int{1})
	ct := tc.encrypt(t, tc.randomVector(1, 1))
	deferredRotation := func() *Ciphertext {
		batch, err := tc.eval.RotateHoisted(ct, []int{1}, []bool{true})
		if err != nil {
			t.Fatal(err)
		}
		return batch[1]
	}
	d := deferredRotation()
	if !d.Deferred() {
		t.Fatal("RotateHoisted did not defer the mod-down")
	}
	product, err := tc.eval.Mul(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	relin, err := tc.eval.RelinearizeDeferred(product)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := tc.eval.Add(d, ct)
	if err != nil {
		t.Fatal(err)
	}
	pt, err := tc.enc.Encode(tc.randomVector(2, 1), tc.params.DefaultScale(), tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}

	ev := reflect.ValueOf(tc.eval)
	ctType := reflect.TypeOf(ct)
	for kind, d := range map[string]*Ciphertext{"rotation": d, "relinearization": relin, "sum": sum} {
		if !d.Deferred() {
			t.Fatalf("the %s is not deferred", kind)
		}
		checked := 0
		for m := 0; m < ev.NumMethod(); m++ {
			method, name := ev.Method(m), ev.Type().Method(m).Name
			if deferredAccepting[name] {
				continue
			}
			mt := method.Type()
			for slot := 0; slot < mt.NumIn(); slot++ {
				if mt.In(slot) != ctType {
					continue
				}
				args := make([]reflect.Value, mt.NumIn())
				for i := range args {
					switch in := mt.In(i); {
					case i == slot:
						args[i] = reflect.ValueOf(d)
					case in == ctType:
						args[i] = reflect.ValueOf(ct)
					case in == reflect.TypeOf(pt):
						args[i] = reflect.ValueOf(pt)
					case in.Kind() == reflect.Int:
						args[i] = reflect.ValueOf(1)
					case in == reflect.TypeOf([]int(nil)):
						args[i] = reflect.ValueOf([]int{1})
					default:
						args[i] = reflect.Zero(in)
					}
				}
				out := method.Call(args)
				if err, _ := out[len(out)-1].Interface().(error); err == nil || !strings.Contains(err.Error(), "deferred") {
					t.Errorf("%s with a deferred %s in slot %d: error %v, want a refusal", name, kind, slot, err)
				}
				checked++
			}
		}
		if checked < 11 {
			t.Errorf("checked %d method slots; the Evaluator has more that take a ciphertext", checked)
		}
		if err := d.Validate(tc.params); err == nil {
			t.Errorf("Validate accepts a deferred %s", kind)
		}
		if _, err := d.MarshalBinary(); err == nil {
			t.Errorf("MarshalBinary encodes a deferred %s", kind)
		}
		if _, err := tc.eval.MulPlainAccumulate([]*Ciphertext{d}, []*Plaintext{pt}); err == nil {
			t.Errorf("MulPlainAccumulate multiplies a deferred %s by a plaintext without special limbs", kind)
		}
		if _, err := tc.eval.Add(d, product); err == nil {
			t.Errorf("Add sums a deferred %s with a degree-2 ciphertext", kind)
		}
		if _, err := tc.eval.Sub(product, d); err == nil {
			t.Errorf("Sub subtracts a deferred %s from a degree-2 ciphertext", kind)
		}
	}
	if _, err := tc.eval.ModDown(ct); err == nil {
		t.Error("ModDown accepts a ciphertext with nothing deferred")
	}
	if _, err := tc.eval.RotateHoisted(ct, []int{1, 1}, []bool{true, false}); err == nil {
		t.Error("RotateHoisted accepts one step both deferred and not")
	}

	n := tc.params.N()
	if got, want := d.MemoryBytes(), 8*n*2*(d.Level+1+tc.params.DigitSize()); got != want {
		t.Errorf("deferred rotation MemoryBytes %d, want %d (chain and special limbs)", got, want)
	}
	tc.eval.Recycle(d)
	if d.Value != nil || d.ValueP != nil {
		t.Error("Recycle left polynomials on the ciphertext")
	}
}

// TestDeferredAddSub: at digit sizes 1, 2 and 4, Add and Sub over every mix
// of deferred and Q-only operands — a deferred rotation, a deferred
// relinearization and a Q-only rotation — stay deferred when either operand
// is, and once ModDown finishes them decrypt to the plain arithmetic within
// 1e-6 per unit of the largest slot value and within 1.25× the error of the
// same arithmetic over finished operands.
func TestDeferredAddSub(t *testing.T) {
	for _, alpha := range []int{1, 2, 4} {
		special := make([]int, alpha)
		for i := range special {
			special[i] = 60
		}
		tc := newTestContextSpecials(t, 10, []int{50, 40, 40, 40}, special, 1<<40, []int{1, 2, 3})
		slots := tc.params.Slots()
		x, y := tc.randomVector(int64(alpha), 1), tc.randomVector(int64(alpha+10), 1)
		cx, cy := tc.encrypt(t, x), tc.encrypt(t, y)
		rot := func(v []float64, k int) []float64 {
			out := make([]float64, slots)
			for j := range out {
				out[j] = v[(j+k)%slots]
			}
			return out
		}
		// Four operands, each made deferred or finished: rot(x, 1),
		// rot(y, 2), and the relinearized products x·y and y·y (at scale
		// 2^80, so they only meet each other).
		type operand struct {
			name string
			want []float64
			make func(deferred bool) *Ciphertext
		}
		rotation := func(ct *Ciphertext, k int) func(bool) *Ciphertext {
			return func(deferred bool) *Ciphertext {
				batch, err := tc.eval.RotateHoisted(ct, []int{k}, []bool{deferred})
				if err != nil {
					t.Fatal(err)
				}
				return batch[k]
			}
		}
		rx, ry := operand{"rot(x,1)", rot(x, 1), rotation(cx, 1)}, operand{"rot(y,2)", rot(y, 2), rotation(cy, 2)}
		product := func(name string, a, b *Ciphertext, va, vb []float64) operand {
			want := make([]float64, slots)
			for j := range want {
				want[j] = va[j] * vb[j]
			}
			return operand{name, want, func(deferred bool) *Ciphertext {
				product, err := tc.eval.Mul(a, b)
				if err != nil {
					t.Fatal(err)
				}
				relin := tc.eval.Relinearize
				if deferred {
					relin = tc.eval.RelinearizeDeferred
				}
				out, err := relin(product)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}}
		}
		pxy, pyy := product("x·y", cx, cy, x, y), product("y·y", cy, cy, y, y)
		pairs := [][2]operand{{rx, ry}, {ry, rx}, {pxy, pyy}}
		for _, pair := range pairs {
			a, b := pair[0], pair[1]
			for _, sub := range []bool{false, true} {
				op, name, sign := tc.eval.Add, "+", 1.0
				if sub {
					op, name, sign = tc.eval.Sub, "−", -1.0
				}
				want := make([]float64, slots)
				for j := range want {
					want[j] = a.want[j] + sign*b.want[j]
				}
				bound := 1e-6
				for _, v := range want {
					bound = max(bound, 1e-6*math.Abs(v))
				}
				standard, err := op(a.make(false), b.make(false))
				if err != nil {
					t.Fatal(err)
				}
				errStd := maxAbsDiff(tc.decryptTo(t, standard), want)
				for _, mix := range [][2]bool{{true, true}, {true, false}, {false, true}} {
					t.Run(fmt.Sprintf("alpha=%d/%s%s%s/deferred=%v", alpha, a.name, name, b.name, mix), func(t *testing.T) {
						lazy, err := op(a.make(mix[0]), b.make(mix[1]))
						if err != nil {
							t.Fatal(err)
						}
						if !lazy.Deferred() {
							t.Fatal("a sum with a deferred operand is not deferred")
						}
						got, err := tc.eval.ModDown(lazy)
						if err != nil {
							t.Fatal(err)
						}
						if got.Level != standard.Level || got.Scale != standard.Scale {
							t.Fatalf("deferred result %v, standard %v", got, standard)
						}
						errDef := maxAbsDiff(tc.decryptTo(t, got), want)
						t.Logf("error %.3g deferred, %.3g standard (bound %.3g)", errDef, errStd, bound)
						if errDef > bound {
							t.Errorf("deferred result is off by %g, bound %g", errDef, bound)
						}
						if errDef > 1.25*errStd {
							t.Errorf("deferred result is off by %g, more than 1.25× the standard path's %g", errDef, errStd)
						}
					})
				}
			}
		}
	}
}

// TestDeferredRescale: at digit sizes 1, 2 and 4, Rescale of a deferred
// value — a relinearized product, and a sum of a deferred rotation with a
// Q-only ciphertext, both at scale 2^80 — divides by P·q_ℓ in one step. The
// result is over the chain primes one level down at the scale Rescale gives a
// finished ciphertext, and decrypts to the plain arithmetic within 1e-6 per
// unit of the largest slot value and within 1.25× the error of ModDown
// followed by Rescale.
func TestDeferredRescale(t *testing.T) {
	for _, alpha := range []int{1, 2, 4} {
		special := make([]int, alpha)
		for i := range special {
			special[i] = 60
		}
		tc := newTestContextSpecials(t, 10, []int{50, 40, 40, 40, 40}, special, 1<<40, []int{3})
		slots := tc.params.Slots()
		x, y := tc.randomVector(int64(20+alpha), 1), tc.randomVector(int64(30+alpha), 1)
		cx, cy := tc.encrypt(t, x), tc.encrypt(t, y)
		product, err := tc.eval.Mul(cx, cy)
		if err != nil {
			t.Fatal(err)
		}
		xy := make([]float64, slots)
		for j := range xy {
			xy[j] = x[j] * y[j]
		}
		// rot(x·y, 3) + x·y: a deferred rotation of a finished product plus
		// the product.
		finished, err := tc.eval.Relinearize(product)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := tc.eval.RotateHoisted(finished, []int{3}, []bool{true})
		if err != nil {
			t.Fatal(err)
		}
		sumDeferred, err := tc.eval.Add(batch[3], finished)
		if err != nil {
			t.Fatal(err)
		}
		sum := make([]float64, slots)
		for j := range sum {
			sum[j] = xy[(j+3)%slots] + xy[j]
		}
		relinDeferred, err := tc.eval.RelinearizeDeferred(product)
		if err != nil {
			t.Fatal(err)
		}
		for name, c := range map[string]struct {
			ct   *Ciphertext
			want []float64
		}{"relinearization": {relinDeferred, xy}, "sum": {sumDeferred, sum}} {
			t.Run(fmt.Sprintf("alpha=%d/%s", alpha, name), func(t *testing.T) {
				if !c.ct.Deferred() {
					t.Fatal("operand is not deferred")
				}
				fused, err := tc.eval.Rescale(c.ct)
				if err != nil {
					t.Fatal(err)
				}
				finished, err := tc.eval.ModDown(c.ct)
				if err != nil {
					t.Fatal(err)
				}
				twoStep, err := tc.eval.Rescale(finished)
				if err != nil {
					t.Fatal(err)
				}
				if fused.Deferred() || fused.Level != c.ct.Level-1 || fused.Scale != twoStep.Scale || fused.Level != twoStep.Level {
					t.Fatalf("fused rescale %v (deferred %v), ModDown then Rescale %v", fused, fused.Deferred(), twoStep)
				}
				bound := 1e-6
				for _, v := range c.want {
					bound = max(bound, 1e-6*math.Abs(v))
				}
				errFused := maxAbsDiff(tc.decryptTo(t, fused), c.want)
				errTwo := maxAbsDiff(tc.decryptTo(t, twoStep), c.want)
				t.Logf("error %.3g fused, %.3g mod-down then rescale (bound %.3g)", errFused, errTwo, bound)
				if errFused > bound {
					t.Errorf("fused rescale is off by %g, bound %g", errFused, bound)
				}
				if errFused > 1.25*errTwo {
					t.Errorf("fused rescale is off by %g, more than 1.25× the two-step path's %g", errFused, errTwo)
				}
			})
		}
	}
}

// TestDeferredAccumulateSteadyStateAllocs: once the pools are warm, a deferred
// batch and the multiply-accumulate that finishes it draw every polynomial —
// special limbs included — from the evaluator's pools, so a cycle that
// recycles its results allocates only bookkeeping.
func TestDeferredAccumulateSteadyStateAllocs(t *testing.T) {
	ring.SetWorkers(1)
	t.Cleanup(func() { ring.SetWorkers(0) })
	tc := newTestContextSpecials(t, 11, []int{50, 40}, []int{60, 60}, 1<<40, []int{1, 2, 3, 4})
	ct := tc.encrypt(t, tc.randomVector(7, 1))
	ks := []int{1, 2, 3, 4}
	flags := []bool{true, true, true, true}
	pts := make([]*Plaintext, len(ks))
	for i := range pts {
		var err error
		if pts[i], err = tc.enc.EncodeExtended(tc.randomVector(int64(i), 1), tc.params.DefaultScale(), tc.params.MaxLevel()); err != nil {
			t.Fatal(err)
		}
	}
	cts := make([]*Ciphertext, len(ks))
	cycle := func() {
		batch, err := tc.eval.RotateHoisted(ct, ks, flags)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ks {
			cts[i] = batch[k]
		}
		sum, err := tc.eval.MulPlainAccumulate(cts, pts)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cts {
			tc.eval.Recycle(c)
		}
		tc.eval.Recycle(sum)
	}
	cycle() // warm the pools
	if raceEnabled {
		return // sync.Pool drops a share of Puts under the race detector
	}
	allocs := testing.AllocsPerRun(20, cycle)
	// Ciphertext headers, the batch map and closures (23 objects); every
	// polynomial that left the pools would add three more per cycle.
	if allocs > 30 {
		t.Errorf("deferred batch + accumulate allocates %.0f objects per cycle in steady state, want <= 30", allocs)
	}
}
