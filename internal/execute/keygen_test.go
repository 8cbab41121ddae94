package execute

import (
	"maps"
	"slices"
	"sync"
	"testing"

	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/ring"
)

// keyPolys flattens a key set into its polynomials in a fixed order.
func keyPolys(km *KeyMaterial) []*ring.Poly {
	polys := []*ring.Poly{km.Secret.Value, km.Secret.ValueP, km.Public.B, km.Public.A}
	add := func(swk *ckks.SwitchingKey) {
		for j := range swk.BQ {
			polys = append(polys, swk.BQ[j], swk.AQ[j], swk.BP[j], swk.AP[j])
		}
	}
	add(km.Relin.Key)
	for _, galEl := range slices.Sorted(maps.Keys(km.Rot.Keys)) {
		add(km.Rot.Keys[galEl])
	}
	return polys
}

// TestConcurrentKeyGen runs four NewContext calls at once on a logN 13
// program with a two-worker ring pool, so the key generators contend for
// the one helper slot as concurrent demo keygens in evaserve do. Every key
// set must equal the one its seed produces alone on one worker.
func TestConcurrentKeyGen(t *testing.T) {
	res, err := compile.Compile(buildRotationProgram(t, 4096), compile.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.LogN != 13 {
		t.Fatalf("program compiled to logN %d, want 13", res.LogN)
	}
	const runs = 4
	want := make([][]*ring.Poly, runs)
	ring.SetWorkers(1)
	t.Cleanup(func() { ring.SetWorkers(0) })
	for i := range want {
		_, km, err := NewContext(res, ckks.NewTestPRNG(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = keyPolys(km)
	}

	ring.SetWorkers(2)
	got := make([][]*ring.Poly, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, km, err := NewContext(res, ckks.NewTestPRNG(uint64(100+i)))
			if err != nil {
				errs[i] = err
				return
			}
			got[i] = keyPolys(km)
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", 100+i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("seed %d: %d key polynomials, want %d", 100+i, len(got[i]), len(want[i]))
		}
		for k := range got[i] {
			if !got[i][k].Equal(want[i][k]) {
				t.Fatalf("seed %d: key polynomial %d differs from the sequential run", 100+i, k)
			}
		}
	}
}
