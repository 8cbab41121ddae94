package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/rewrite"
	"eva/internal/store"
)

// testProgram builds a small compilable program; the salt value makes
// structurally distinct programs for cache-eviction tests.
func testProgram(t testing.TB, name string, salt float64) *core.Program {
	t.Helper()
	b := builder.New(name, 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("out", x.Square().Add(y).MulScalar(salt, 30), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// NewRegistry returns a cache-only registry holding at most capacity
// compiled programs.
func NewRegistry(capacity int) *Registry {
	return NewRegistryWithStore(capacity, nil, slog.New(slog.DiscardHandler))
}

func insecureOptions() compile.Options {
	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	return opts
}

// TestRegistryConcurrentDedup checks the singleflight property: N goroutines
// racing to compile the same program trigger exactly one compilation.
func TestRegistryConcurrentDedup(t *testing.T) {
	reg := NewRegistry(8)
	prog := testProgram(t, "dedup", 0.5)
	opts := insecureOptions()

	const n = 16
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	errs := make([]error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			entries[i], _, errs[i] = reg.GetOrCompile(prog, opts)
		}(i)
	}
	close(start)
	wg.Wait()

	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if entries[i] != entries[0] {
			t.Fatalf("goroutine %d got a different entry", i)
		}
	}
	stats := reg.Stats()
	if stats.Misses != 1 {
		t.Errorf("got %d compilations, want exactly 1 (stats %+v)", stats.Misses, stats)
	}
	if stats.Hits+stats.Joins != n-1 {
		t.Errorf("got %d deduplicated lookups, want %d (stats %+v)", stats.Hits+stats.Joins, n-1, stats)
	}
	if stats.Size != 1 {
		t.Errorf("cache holds %d entries, want 1", stats.Size)
	}
}

// TestRegistrySequentialHit checks that re-submitting a program is answered
// from the cache and recorded as a hit.
func TestRegistrySequentialHit(t *testing.T) {
	reg := NewRegistry(8)
	prog := testProgram(t, "hit", 0.5)
	opts := insecureOptions()

	e1, cached, err := reg.GetOrCompile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("first compilation reported as cached")
	}
	e2, cached, err := reg.GetOrCompile(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || e2 != e1 {
		t.Errorf("second submission not served from cache (cached=%v, same=%v)", cached, e2 == e1)
	}
	if e2.Hits() != 1 {
		t.Errorf("entry hits = %d, want 1", e2.Hits())
	}

	// Different options are a different entry.
	opts2 := opts
	opts2.ExtraLevels = 1
	e3, cached, err := reg.GetOrCompile(prog, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if cached || e3 == e1 {
		t.Error("different options reused the same cache entry")
	}
}

// TestRegistryEviction checks least-recently-used eviction at capacity.
func TestRegistryEviction(t *testing.T) {
	reg := NewRegistry(2)
	opts := insecureOptions()

	var ids []string
	for i := 0; i < 3; i++ {
		prog := testProgram(t, fmt.Sprintf("evict-%d", i), float64(i+1))
		e, _, err := reg.GetOrCompile(prog, opts)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, e.ID)
	}

	stats := reg.Stats()
	if stats.Size != 2 || stats.Evictions != 1 {
		t.Errorf("size=%d evictions=%d, want 2 and 1", stats.Size, stats.Evictions)
	}
	if _, ok := reg.Get(ids[0]); ok {
		t.Error("oldest entry survived eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := reg.Get(id); !ok {
			t.Errorf("entry %s missing after eviction", id)
		}
	}

	// Recompiling the evicted program is a miss, not a hit.
	_, cached, err := reg.GetOrCompile(testProgram(t, "evict-0", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Error("evicted program reported as cached")
	}
}

// TestRegistryLRUTouch checks that Get refreshes recency so the least
// recently used entry is the one evicted.
func TestRegistryLRUTouch(t *testing.T) {
	reg := NewRegistry(2)
	opts := insecureOptions()
	a, _, err := reg.GetOrCompile(testProgram(t, "a", 1), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := reg.GetOrCompile(testProgram(t, "b", 2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(a.ID); !ok { // touch a: b becomes LRU
		t.Fatal("entry a missing")
	}
	if _, _, err := reg.GetOrCompile(testProgram(t, "c", 3), opts); err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(b.ID); ok {
		t.Error("expected b (least recently used) to be evicted")
	}
	if _, ok := reg.Get(a.ID); !ok {
		t.Error("expected a (recently touched) to survive")
	}
}

// TestProgramIDCanonical checks that the registry key ignores JSON formatting
// and depends only on program structure and options.
func TestProgramIDCanonical(t *testing.T) {
	p1 := testProgram(t, "canon", 0.5)
	p2 := testProgram(t, "canon", 0.5)
	opts := insecureOptions()
	s1, err := p1.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	id1, err := ProgramID(s1, opts)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := ProgramID(s2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Errorf("identical programs hash differently: %s vs %s", id1, id2)
	}
	p3 := testProgram(t, "canon", 0.25)
	s3, _ := p3.SerializeBytes()
	id3, _ := ProgramID(s3, opts)
	if id3 == id1 {
		t.Error("distinct programs hash alike")
	}
}

// TestRegistryCapacityClamped is the regression test for the
// capacity-below-one footgun: a registry built with capacity <= 0 must never
// evict the entry GetOrCompile just inserted (which would hand /compile
// clients a program id that immediately 404s).
func TestRegistryCapacityClamped(t *testing.T) {
	for _, capacity := range []int{0, -1, -128} {
		reg := NewRegistry(capacity)
		if reg.capacity < 1 {
			t.Fatalf("NewRegistry(%d) kept capacity %d, want >= 1", capacity, reg.capacity)
		}
		prog := testProgram(t, "clamp", 0.25)
		entry, _, err := reg.GetOrCompile(prog, insecureOptions())
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reg.Get(entry.ID); !ok {
			t.Fatalf("capacity %d: entry %s evicted immediately after insertion", capacity, entry.ID)
		}
	}
}

// TestRegistryCapacityOneConcurrent inserts distinct programs concurrently
// into a capacity-1 registry: every GetOrCompile must still return an entry
// that was retrievable at the moment it was handed out, the final cache size
// must respect the capacity, and the most recently inserted entry survives.
func TestRegistryCapacityOneConcurrent(t *testing.T) {
	reg := NewRegistry(1)
	const n = 8
	var wg sync.WaitGroup
	entries := make([]*Entry, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			prog := testProgram(t, fmt.Sprintf("cap1-%d", i), float64(i+1))
			entries[i], _, errs[i] = reg.GetOrCompile(prog, insecureOptions())
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if entries[i] == nil || entries[i].Result == nil {
			t.Fatalf("goroutine %d: GetOrCompile returned no usable entry", i)
		}
	}
	stats := reg.Stats()
	if stats.Size != 1 {
		t.Fatalf("capacity-1 registry holds %d entries", stats.Size)
	}
	// Whichever entry is cached must be one of the handed-out entries.
	cached := reg.List()
	if len(cached) != 1 {
		t.Fatalf("List returned %d entries, want 1", len(cached))
	}
	found := false
	for _, e := range entries {
		if e.ID == cached[0].ID {
			found = true
		}
	}
	if !found {
		t.Fatal("cached entry is not one of the entries handed out")
	}
}

// TestRegistryNeverEvictsJustInserted drives the defensive branch directly:
// even with the capacity invariant broken (simulating a future constructor
// bypass), the eviction loop must not remove the entry it just pushed.
func TestRegistryNeverEvictsJustInserted(t *testing.T) {
	reg := NewRegistry(1)
	reg.capacity = 0 // simulate a broken invariant
	prog := testProgram(t, "bypass", 0.75)
	entry, _, err := reg.GetOrCompile(prog, insecureOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reg.Get(entry.ID); !ok {
		t.Fatal("entry evicted by its own insertion")
	}
}

// TestRegistryEvictionReleasesPlan: a program's constant cache dies with its
// registry entry — evicting the program returns the cached bytes to the budget
// at once, while a context still pinning the entry keeps executing it.
func TestRegistryEvictionReleasesPlan(t *testing.T) {
	reg := NewRegistry(1)
	first, _, err := reg.GetOrCompile(testProgram(t, "pinned", 0.5), insecureOptions())
	if err != nil {
		t.Fatal(err)
	}
	res := first.Result
	prng := ckks.NewTestPRNG(3)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		t.Fatal(err)
	}
	in := execute.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {8, 7, 6, 5, 4, 3, 2, 1}}
	enc, err := execute.EncryptInputs(ctx, res, keys, in, prng)
	if err != nil {
		t.Fatal(err)
	}
	run := func() map[string][]float64 {
		out, err := execute.Run(ctx, res, enc, execute.RunOptions{})
		if err != nil {
			t.Fatal(err)
		}
		values, _ := execute.DecryptOutputs(ctx, res, keys, out)
		return values
	}
	want := run()
	held, ok := compile.PlanStatsOf(res)
	if !ok || held.CachedBytes == 0 {
		t.Fatalf("the run left no cached constants (stats %+v)", held)
	}
	// The budget is process-wide, and cleanups of earlier tests' dropped
	// plans can hand bytes back at any moment, so the eviction is measured
	// as a fall of at least this plan's bytes, not an exact value.
	before, _ := compile.PlanCacheBudget()

	if _, _, err := reg.GetOrCompile(testProgram(t, "evictor", 0.25), insecureOptions()); err != nil {
		t.Fatal(err)
	}
	if reg.Stats().Evictions != 1 {
		t.Fatalf("expected one eviction, stats %+v", reg.Stats())
	}
	if after, _ := compile.PlanStatsOf(res); after.CachedBytes != 0 || after.CachedPlaintexts != 0 {
		t.Errorf("evicted program's plan still holds %+v", after)
	}
	if used, _ := compile.PlanCacheBudget(); before-used < held.CachedBytes {
		t.Errorf("plan-cache budget use fell from %d to %d on the eviction, want a fall of at least the plan's %d bytes", before, used, held.CachedBytes)
	}
	got := run()
	for i, w := range want["out"] {
		if got["out"][i] != w {
			t.Fatalf("pinned context computes slot %d = %v after the eviction, %v before", i, got["out"][i], w)
		}
	}
}

// TestProgramIDLock pins the program id of one fixed program under three
// option sets. The id hashes the JSON of compile.Options, so it is what
// stored programs, contexts and handles are keyed by: a change to a field
// of compile.Options or to the value of a strategy constant moves it, and
// must come with a migration of the stored records.
func TestProgramIDLock(t *testing.T) {
	b := builder.New("lock", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("out", x.Square().Add(y).MulScalar(0.5, 30), 30)
	prog, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	source, err := prog.SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts compile.Options
		want string
	}{
		{"default", compile.DefaultOptions(), "9871354bbb9d4a6cf4b90330"},
		{"pipeline", compile.Options{MaxRescaleLog: 30, AllowInsecure: true, ExtraLevels: 2}, "2c26381740fae8060d19dd46"},
		{"chet", compile.Options{MaxRescaleLog: 60, Rescale: rewrite.RescaleFixedMax, ModSwitch: rewrite.ModSwitchLazy}, "dc70e864c3ca9afbca7010b9"},
	} {
		got, err := ProgramID(source, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("%s: ProgramID = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestStoredRetiredOptionsRefused: a stored program whose options the
// /compile wire cannot express (an older server's always-rescale or CHET
// fixed-rescale strategy) is not rebuilt: loadFromStore names the refusal,
// Get and Source read it as unknown, and the refusal is logged. A stored
// program with the wire's options still loads.
func TestStoredRetiredOptionsRefused(t *testing.T) {
	source, err := testProgram(t, "stored", 0.5).SerializeBytes()
	if err != nil {
		t.Fatal(err)
	}
	st := store.NewMemory()
	put := func(opts compile.Options) string {
		t.Helper()
		id, err := ProgramID(source, opts)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := json.Marshal(programRecord{Source: source, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(kindProgram, id, rec); err != nil {
			t.Fatal(err)
		}
		return id
	}
	var logs bytes.Buffer
	reg := NewRegistryWithStore(4, st, slog.New(slog.NewTextHandler(&logs, nil)))
	for _, rescale := range []rewrite.RescaleStrategy{1, rewrite.RescaleFixedMax} {
		id := put(compile.Options{AllowInsecure: true, Rescale: rescale})
		if _, err := reg.loadFromStore(id); !errors.Is(err, errRetiredOptions) {
			t.Errorf("rescale %d: loadFromStore error %v, want errRetiredOptions", rescale, err)
		}
		logs.Reset()
		if _, ok := reg.Get(id); ok {
			t.Errorf("rescale %d: Get found the program", rescale)
		}
		if !strings.Contains(logs.String(), "stored program not rebuilt") || !strings.Contains(logs.String(), id) {
			t.Errorf("rescale %d: no warning logged: %q", rescale, logs.String())
		}
		if _, _, ok := reg.Source(id); ok {
			t.Errorf("rescale %d: Source found the program", rescale)
		}
	}
	id := put(compile.Options{AllowInsecure: true})
	if e, ok := reg.Get(id); !ok || e.ID != id {
		t.Errorf("a stored program with the wire's options did not load")
	}
}
