package execute_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"eva/internal/apps"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/lang"
)

// fullDepthFixture is newFixture with every evaluation key at MaxLevel,
// from the same seed: the same secret key, keys of which NewContext's are
// prefixes, and — since a key draws its seeds whatever its level — the same
// input ciphertexts.
func fullDepthFixture(t testing.TB, res *compile.Result, in execute.Inputs, keySeed uint64) *fixture {
	t.Helper()
	params, err := ckks.NewParameters(res.ParametersLiteral())
	if err != nil {
		t.Fatal(err)
	}
	prng := ckks.NewTestPRNG(keySeed)
	kg := ckks.NewKeyGenerator(params, prng)
	sk := kg.GenSecretKey()
	rlk, err := kg.GenRelinearizationKey(sk, params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	var rtk *ckks.RotationKeySet
	if rot, _ := res.KeyLevels(); len(rot) > 0 {
		for galEl := range rot {
			rot[galEl] = params.MaxLevel()
		}
		if rtk, err = kg.GenRotationKeys(sk, rot); err != nil {
			t.Fatal(err)
		}
	}
	ctx, err := execute.NewEvaluationContext(res, rlk, rtk)
	if err != nil {
		t.Fatal(err)
	}
	keys := &execute.KeyMaterial{Secret: sk, Relin: rlk, Rot: rtk}
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{res: res, ctx: ctx, keys: keys, enc: enc}
}

// keyLimbs counts the limbs of every polynomial of a key set.
func keyLimbs(keys *execute.KeyMaterial) (limbs int64) {
	swks := []*ckks.SwitchingKey{keys.Relin.Key}
	if keys.Rot != nil {
		for _, swk := range keys.Rot.Keys {
			swks = append(swks, swk)
		}
	}
	for _, swk := range swks {
		for j := range swk.BQ {
			limbs += int64(len(swk.BQ[j].Coeffs) + len(swk.AQ[j].Coeffs) + len(swk.BP[j].Coeffs) + len(swk.AP[j].Coeffs))
		}
	}
	return limbs
}

// TestTruncatedKeysChangeNoOutput runs the golden corpus (the examples, the
// six applications and bench SqueezeNet) once with the keys NewContext
// builds, each only as deep as its deepest use, and once with full-depth keys
// from the same seed: every scheduler at 1 and 2 workers must produce the
// same bytes, since a truncated key is the prefix of the full one and a key
// switch reads only the limbs of its level.
func TestTruncatedKeysChangeNoOutput(t *testing.T) {
	check := func(name string, prog *core.Program, in execute.Inputs) {
		t.Run(name, func(t *testing.T) {
			res := compileInsecure(t, prog, compile.DefaultOptions())
			cut := newFixture(t, res, in, 43)
			full := fullDepthFixture(t, res, in, 43)
			requireSameBytes(t, "inputs", serializedInputs(t, cut), serializedInputs(t, full))
			if keyLimbs(cut.keys) > keyLimbs(full.keys) {
				t.Fatalf("the truncated key set has %d limbs, more than the full one's %d", keyLimbs(cut.keys), keyLimbs(full.keys))
			}
			for sname, sched := range schedulers {
				for _, workers := range []int{1, 2} {
					opts := execute.RunOptions{Scheduler: sched, Workers: workers}
					requireSameBytes(t, sname, serialized(t, cut.run(t, opts)), serialized(t, full.run(t, opts)))
				}
			}
		})
	}
	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := lang.ParseProgram(string(src))
		if err != nil {
			t.Fatal(err)
		}
		check(filepath.Base(path), prog, randomInputs(prog, 5))
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		check("app:"+app.Name, app.Program, app.MakeInputs(rand.New(rand.NewSource(6))))
	}
	if !raceEnabled {
		prog, image := benchSqueezeNet(t)
		check("nn:squeezenet-bench", prog, image)
	}
}

// serializedInputs renders a fixture's input ciphertexts in the wire format.
func serializedInputs(t testing.TB, f *fixture) map[string][]byte {
	t.Helper()
	return serialized(t, &execute.Outputs{Cipher: f.enc.Cipher})
}

// TestTruncatedKeysBelowTheTop: a pipeline stage compiled with headroom
// (ExtraLevels) takes its inputs below the top of the chain, so every key
// switch runs below the level its key was cut to. The outputs are the bytes
// full-depth keys give.
func TestTruncatedKeysBelowTheTop(t *testing.T) {
	src, err := os.ReadFile("../../examples/pathlength/pathlength.eva")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := lang.ParseProgram(string(src))
	if err != nil {
		t.Fatal(err)
	}
	opts := compile.DefaultOptions()
	opts.ExtraLevels = 2
	res := compileInsecure(t, prog, opts)
	values := randomInputs(prog, 8)
	cut := newFixture(t, res, values, 44)
	full := fullDepthFixture(t, res, values, 44)
	groups := 0
	for _, in := range res.Inputs {
		groups = max(groups, in.Group+1)
	}
	entry := make([]int, groups)
	for g := range entry {
		entry[g] = cut.ctx.Params.MaxLevel() - 1
	}
	for _, f := range []*fixture{cut, full} {
		var err error
		if f.enc.Cipher, _, err = execute.EncryptSelected(f.ctx, res, f.keys, values, entry, ckks.NewTestPRNG(45)); err != nil {
			t.Fatal(err)
		}
	}
	for name, ct := range cut.enc.Cipher {
		if ct.Level != entry[0] {
			t.Fatalf("input %q entered at level %d, want %d", name, ct.Level, entry[0])
		}
	}
	for sname, sched := range schedulers {
		opts := execute.RunOptions{Scheduler: sched, Workers: 2}
		requireSameBytes(t, sname, serialized(t, cut.run(t, opts)), serialized(t, full.run(t, opts)))
	}
}

// TestKeySetBytesMatchesContext: compile.Result.KeySetBytes, the size evac
// reports, is the limb bytes of the keys NewContext builds — for Path
// Length, whose rotation keys are all cut to level 0, and for Sobel, whose
// keys are all used at the top.
func TestKeySetBytesMatchesContext(t *testing.T) {
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		if app.Name != "3-dimensional Path Length" && app.Name != "Sobel Filter Detection" {
			continue
		}
		res := compileInsecure(t, app.Program, compile.DefaultOptions())
		want := len(res.Plan.BitSizes) - 1
		if app.Name == "3-dimensional Path Length" {
			want = 0
		}
		rot, _ := res.KeyLevels()
		for galEl, level := range rot {
			if level != want {
				t.Errorf("%s: the key of Galois element %d is at level %d, want %d", app.Name, galEl, level, want)
			}
		}
		_, keys, err := execute.NewContext(res, ckks.NewTestPRNG(1))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.KeySetBytes(), keyLimbs(keys)*8<<uint(res.LogN); got != want {
			t.Errorf("%s: KeySetBytes %d, NewContext built %d", app.Name, got, want)
		}
	}
}
