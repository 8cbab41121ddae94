package profile_test

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"weak"

	"eva/internal/builder"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/hetensor"
	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/store"
)

// buildDeepChain compiles x^8 over a 32-slot vector: a maximally level-
// consuming multiply/relinearize/rescale chain with no rotations.
func buildDeepChain(tb testing.TB) *compile.Result {
	tb.Helper()
	b := builder.New("deep", 32)
	x := b.Input("x", 30)
	b.Output("y", x.Pow(8), 30)
	p, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := compile.Compile(p, compile.Options{AllowInsecure: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// buildMatmul compiles a dim x dim diagonal-method matmul: rotation-heavy
// (hoisted) with ct-pt multiplies, the complement of the deep chain.
func buildMatmul(tb testing.TB, vecSize, dim int) *compile.Result {
	tb.Helper()
	rng := rand.New(rand.NewSource(42))
	b := builder.New("matmul", vecSize)
	tc := hetensor.NewCompiler(b, 25, 20)
	w := make([][]float64, dim)
	for i := range w {
		w[i] = make([]float64, dim)
		for j := range w[i] {
			w[i][j] = rng.Float64()*2 - 1
		}
	}
	x := &hetensor.Vector{Value: b.InputWithWidth("x", dim, 30), Length: dim}
	out, err := tc.Matmul("mm", x, w, nil)
	if err != nil {
		tb.Fatal(err)
	}
	b.Output("y", out.Value, 30)
	p, err := b.Program()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := compile.Compile(p, compile.Options{AllowInsecure: true})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func randomInputs(res *compile.Result, seed int64) execute.Inputs {
	rng := rand.New(rand.NewSource(seed))
	in := execute.Inputs{}
	for _, t := range res.Program.Inputs() {
		v := make([]float64, t.VecWidth)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		in[t.Name] = v
	}
	return in
}

// runProfiled executes res once on the CKKS backend with a recorder wired in.
func runProfiled(tb testing.TB, c *profile.Collector, programID string, res *compile.Result, traceID string, seed uint64) *execute.Outputs {
	tb.Helper()
	prng := ckks.NewTestPRNG(seed)
	ctx, keys, err := execute.NewContext(res, prng)
	if err != nil {
		tb.Fatal(err)
	}
	enc, err := execute.EncryptInputs(ctx, res, keys, randomInputs(res, int64(seed)), prng)
	if err != nil {
		tb.Fatal(err)
	}
	rec := c.Recorder(programID, res, traceID)
	out, err := execute.Run(ctx, res, enc, execute.RunOptions{
		Scheduler:     execute.SchedulerSequential,
		OnInstruction: rec.OnInstruction,
	})
	if err != nil {
		tb.Fatal(err)
	}
	rec.Finish()
	return out
}

// TestRecorderSamplesRealExecution runs a deep chain at sample rate 1 and
// checks that every instruction was sampled, that real executions produce no
// level or scale drift (the compiler's invariants hold at runtime), and that
// the report aggregates are coherent.
func TestRecorderSamplesRealExecution(t *testing.T) {
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	runProfiled(t, c, "deep", res, "", 7)

	total := uint64(len(res.Program.TopoSort()))
	rep := c.Report()
	if !rep.Enabled {
		t.Fatal("report not enabled")
	}
	if rep.Executions != 1 || rep.Instructions != total || rep.Samples != total {
		t.Fatalf("report counts = %d exec / %d instr / %d samples, want 1 / %d / %d",
			rep.Executions, rep.Instructions, rep.Samples, total, total)
	}
	if len(rep.DriftCounts) != 0 {
		t.Fatalf("real execution produced drift: %v (events %v)", rep.DriftCounts, rep.Drift)
	}
	if len(rep.Buckets) == 0 {
		t.Fatal("no buckets aggregated")
	}
	if rep.NsPerUnit <= 0 {
		t.Fatalf("ns-per-unit ratio %v, want > 0", rep.NsPerUnit)
	}
	var bucketCount uint64
	seenOps := map[string]bool{}
	for _, b := range rep.Buckets {
		bucketCount += b.Count
		seenOps[b.Op] = true
		if b.Count > 0 && b.MeanUS < 0 {
			t.Fatalf("bucket %v has negative mean", b)
		}
	}
	if bucketCount != total {
		t.Fatalf("bucket counts sum to %d, want %d", bucketCount, total)
	}
	if !seenOps[core.OpMultiply.String()] || !seenOps[core.OpRescale.String()] {
		t.Fatalf("expected multiply and rescale buckets, got ops %v", seenOps)
	}
	if len(rep.Programs) != 1 || rep.Programs[0].ProgramID != "deep" || rep.Programs[0].Samples != total {
		t.Fatalf("program summary %+v, want deep with %d samples", rep.Programs, total)
	}
}

// TestSamplingStride checks that sample rate N records exactly every Nth
// instruction (indices 0, N, 2N, ...).
func TestSamplingStride(t *testing.T) {
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: 4})
	runProfiled(t, c, "deep", res, "", 7)
	total := uint64(len(res.Program.TopoSort()))
	want := (total + 3) / 4
	rep := c.Report()
	if rep.Instructions != total || rep.Samples != want {
		t.Fatalf("rate-4 run: %d instructions / %d samples, want %d / %d",
			rep.Instructions, rep.Samples, total, want)
	}
}

// TestCollectorDisabled checks the disabled path: nil recorders that are safe
// to call and a report that says so.
func TestCollectorDisabled(t *testing.T) {
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: -1})
	if c.Enabled() {
		t.Fatal("SampleRate -1 collector reports enabled")
	}
	rec := c.Recorder("deep", res, "")
	if rec != nil {
		t.Fatal("disabled collector returned a recorder")
	}
	rec.OnInstruction(res.Program.TopoSort()[0], execute.InstrRecord{}) // must not panic
	rec.Finish()
	if rep := c.Report(); rep.Enabled || rep.Samples != 0 {
		t.Fatalf("disabled report = %+v", rep)
	}
}

// TestDriftDetection feeds fabricated instruction records that violate the
// compiler's level, scale, and cost expectations and checks each is flagged
// with the right kind and carries the trace id (the /traces exemplar link).
func TestDriftDetection(t *testing.T) {
	res := buildDeepChain(t)
	maxLevel := len(res.Plan.BitSizes) - 1
	id := slices.IndexFunc(res.Instrs, func(in compile.Instr) bool { return in.Term.Op == core.OpMultiply && in.Cipher })
	if id < 0 {
		t.Fatal("no cipher multiply in deep chain")
	}
	mul := res.Instrs[id].Term
	expLevel := maxLevel - res.Instrs[id].Level
	okScale := math.Exp2(res.Instrs[id].LogScale)
	base := execute.InstrRecord{ID: int32(id), Wall: time.Millisecond, Cipher: true, Level: expLevel, Scale: okScale, OutBytes: 4096, Operands: 2}

	c := profile.NewCollector(profile.Config{SampleRate: 1})
	rec := c.Recorder("deep", res, "trace-abc")
	good := base
	rec.OnInstruction(mul, good)
	wrongLevel := base
	wrongLevel.Level = expLevel - 1
	rec.OnInstruction(mul, wrongLevel)
	wrongScale := base
	wrongScale.Scale = okScale * 8 // 3 bits off, tolerance is 0.5
	rec.OnInstruction(mul, wrongScale)
	rec.Finish()

	rep := c.Report()
	if rep.DriftCounts[profile.DriftKindLevel] != 1 || rep.DriftCounts[profile.DriftKindScale] != 1 {
		t.Fatalf("drift counts %v, want one level and one scale", rep.DriftCounts)
	}
	for _, ev := range rep.Drift {
		if ev.TraceID != "trace-abc" {
			t.Fatalf("drift event missing trace id: %+v", ev)
		}
		if ev.Program != "deep" || ev.Op != core.OpMultiply.String() {
			t.Fatalf("drift event mislabeled: %+v", ev)
		}
	}

	// Cost drift needs a prediction source; install a calibration that
	// predicts near-zero time so the 1ms sample is a >= 8x outlier.
	c2 := profile.NewCollector(profile.Config{SampleRate: 1})
	c2.SetCalibration(&profile.Calibration{
		NsPerUnit:         map[string]float64{core.OpMultiply.String(): 1e-6},
		BaselineNsPerUnit: 1e-6,
	})
	rec2 := c2.Recorder("deep", res, "trace-def")
	rec2.OnInstruction(mul, base)
	rec2.Finish()
	rep2 := c2.Report()
	if rep2.DriftCounts[profile.DriftKindCost] != 1 {
		t.Fatalf("cost drift counts %v, want one cost event", rep2.DriftCounts)
	}
	if len(rep2.Drift) != 1 || rep2.Drift[0].TraceID != "trace-def" || rep2.Drift[0].Kind != profile.DriftKindCost {
		t.Fatalf("cost drift event %+v", rep2.Drift)
	}

	// The same outlier as a member of a fused chain is no cost event: its
	// wall time is a share of one measurement, apportioned by the model's
	// own units. It aggregates in a bucket of its own.
	c3 := profile.NewCollector(profile.Config{SampleRate: 1})
	c3.SetCalibration(c2.Calibration())
	rec3 := c3.Recorder("deep", res, "trace-ghi")
	fused := base
	fused.Fused = true
	rec3.OnInstruction(mul, fused)
	rec3.OnInstruction(mul, base)
	rec3.Finish()
	rep3 := c3.Report()
	if rep3.DriftCounts[profile.DriftKindCost] != 1 {
		t.Fatalf("cost drift counts %v, want only the unfused sample's event", rep3.DriftCounts)
	}
	if len(rep3.Buckets) != 2 || rep3.Buckets[0].Fused || !rep3.Buckets[1].Fused || rep3.Buckets[1].Count != 1 {
		t.Fatalf("buckets %+v, want an unfused and a fused bucket of one sample each", rep3.Buckets)
	}
}

// TestFusedChainsProfiled runs the matmul workload, whose row sums fuse: the
// fused members still arrive one record each (the bucket counts add up to
// the instruction count), flagged, and stay out of the calibration fit.
func TestFusedChainsProfiled(t *testing.T) {
	res := buildMatmul(t, 64, 8)
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	out := runProfiled(t, c, "matmul", res, "", 8)
	if out.Stats.FusedTerms == 0 {
		t.Fatal("the matmul fused nothing; the test needs a workload with fused chains")
	}
	var total, fused uint64
	for _, b := range c.Report().Buckets {
		total += b.Count
		if b.Fused {
			fused += b.Count
		}
	}
	if total != uint64(out.Stats.Instructions) || fused != uint64(out.Stats.FusedTerms) {
		t.Fatalf("profiled %d instructions (%d fused), the run executed %d (%d fused)",
			total, fused, out.Stats.Instructions, out.Stats.FusedTerms)
	}
}

// TestHoistedMembersArePriced: a hoisted member's record carries its
// InstrUnits share of the batch's wall, so hoisted buckets feed the running
// baseline and Fit like any other, a batch measured at the calibrated rate
// raises no cost drift, and a hoisted outlier still does.
func TestHoistedMembersArePriced(t *testing.T) {
	res := buildMatmul(t, 64, 8)
	if len(res.Hoists) == 0 {
		t.Fatal("the matmul hoists nothing; the test needs a workload with hoist sets")
	}
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	runProfiled(t, c, "matmul", res, "", 11)
	rep := c.Report()
	var hoisted, samples uint64
	var ns, units float64
	for _, b := range rep.Buckets {
		if b.Fused || b.Units <= 0 {
			continue
		}
		if b.Hoisted {
			hoisted += b.Count
		}
		samples += b.Count
		ns += b.TotalNS
		units += b.Units
	}
	if hoisted == 0 {
		t.Fatal("no hoisted bucket carries model units")
	}
	if want := ns / units; math.Abs(rep.NsPerUnit-want) > 1e-9*want {
		t.Errorf("running baseline %v ns/unit, want %v over every unfused bucket, hoisted ones included", rep.NsPerUnit, want)
	}
	cal, err := profile.Fit([]profile.ProgramProfile{{ProgramID: "matmul", Buckets: rep.Buckets}})
	if err != nil {
		t.Fatal(err)
	}
	if cal.Samples != samples {
		t.Errorf("Fit used %d samples, want %d (%d of them hoisted)", cal.Samples, samples, hoisted)
	}

	// Feed every member of a hoist set its share of a batch timed at a
	// calibrated rate, each share long enough to be checked for drift.
	set := res.Hoists[0]
	minUnits := math.Inf(1)
	for _, m := range set.Members {
		if u := res.InstrUnits(m); u > 0 {
			minUnits = min(minUnits, u)
		}
	}
	nsPerUnit := 2 * float64(time.Millisecond) / minUnits
	c2 := profile.NewCollector(profile.Config{SampleRate: 1})
	c2.SetCalibration(&profile.Calibration{BaselineNsPerUnit: nsPerUnit})
	rec := c2.Recorder("matmul", res, "")
	maxLevel := len(res.Plan.BitSizes) - 1
	record := func(m int32, wall time.Duration) {
		in := &res.Instrs[m]
		rec.OnInstruction(in.Term, execute.InstrRecord{ID: m, Wall: wall, Cipher: true, Hoisted: true,
			Level: maxLevel - in.Level, Scale: math.Exp2(in.LogScale), OutBytes: 4096, Operands: 1})
	}
	for _, m := range set.Members {
		record(m, time.Duration(res.InstrUnits(m)*nsPerUnit))
	}
	rec.Finish()
	if n := c2.Report().DriftCounts[profile.DriftKindCost]; n != 0 {
		t.Errorf("a hoisted batch timed at the calibrated rate raised %d cost drift events", n)
	}
	// Ten times its predicted time is beyond the drift bound.
	rec = c2.Recorder("matmul", res, "")
	m := set.Members[0]
	record(m, time.Duration(10*res.InstrUnits(m)*nsPerUnit))
	rec.Finish()
	if n := c2.Report().DriftCounts[profile.DriftKindCost]; n != 1 {
		t.Errorf("a hoisted member ten times its predicted time raised %d cost drift events, want 1", n)
	}
}

// TestPipelineHeadroomSkipsExpectations: with ExtraLevels the absolute entry
// level is unknowable at compile time, so level/scale checks must not fire.
func TestPipelineHeadroomSkipsExpectations(t *testing.T) {
	b := builder.New("pad", 32)
	x := b.Input("x", 30)
	b.Output("y", x.Square(), 30)
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compile.Compile(p, compile.Options{AllowInsecure: true, ExtraLevels: 2})
	if err != nil {
		t.Fatal(err)
	}
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	runProfiled(t, c, "pad", res, "", 3)
	rep := c.Report()
	if rep.DriftCounts[profile.DriftKindLevel] != 0 || rep.DriftCounts[profile.DriftKindScale] != 0 {
		t.Fatalf("pipeline-padded run produced expectation drift: %v", rep.DriftCounts)
	}
	if rep.Samples == 0 {
		t.Fatal("padded run sampled nothing")
	}
}

// TestPersistenceAccumulates runs the same program in two collector
// "processes" sharing one store and checks the persisted profile accumulates
// across them (the repeated-runs-accumulate property).
func TestPersistenceAccumulates(t *testing.T) {
	res := buildDeepChain(t)
	st := store.NewMemory()
	defer st.Close()
	total := uint64(len(res.Program.TopoSort()))

	c1 := profile.NewCollector(profile.Config{SampleRate: 1, Store: st})
	runProfiled(t, c1, "deep", res, "", 7)
	c1.Flush()
	c2 := profile.NewCollector(profile.Config{SampleRate: 1, Store: st})
	runProfiled(t, c2, "deep", res, "", 8)
	runProfiled(t, c2, "deep", res, "", 9)
	c2.Flush()

	profiles, err := profile.LoadProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 {
		t.Fatalf("got %d profiles, want 1", len(profiles))
	}
	p := profiles[0]
	if p.ProgramID != "deep" || p.Executions != 3 || p.Samples != 3*total {
		t.Fatalf("accumulated profile = %s with %d executions / %d samples, want deep with 3 / %d",
			p.ProgramID, p.Executions, p.Samples, 3*total)
	}
	var count uint64
	for _, b := range p.Buckets {
		count += b.Count
	}
	if count != 3*total {
		t.Fatalf("accumulated bucket counts sum to %d, want %d", count, 3*total)
	}
}

// TestMergeReports checks the cluster merge: counters and per-bucket counts
// sum across nodes with no double-counting.
func TestMergeReports(t *testing.T) {
	res := buildDeepChain(t)
	ca := profile.NewCollector(profile.Config{SampleRate: 1, Node: "a"})
	cb := profile.NewCollector(profile.Config{SampleRate: 1, Node: "b"})
	runProfiled(t, ca, "deep", res, "", 7)
	runProfiled(t, cb, "deep", res, "", 8)
	runProfiled(t, cb, "deep", res, "", 9)
	ra, rb := ca.Report(), cb.Report()

	merged := profile.MergeReports("cluster", []profile.Report{ra, rb})
	if merged.Samples != ra.Samples+rb.Samples {
		t.Fatalf("merged samples %d, want %d", merged.Samples, ra.Samples+rb.Samples)
	}
	if merged.Executions != 3 {
		t.Fatalf("merged executions %d, want 3", merged.Executions)
	}
	sum := func(rep profile.Report) map[profile.BucketKey]uint64 {
		m := map[profile.BucketKey]uint64{}
		for _, b := range rep.Buckets {
			m[profile.BucketKey{Op: b.Op, Level: b.Level, Hoisted: b.Hoisted, Fused: b.Fused}] += b.Count
		}
		return m
	}
	want := sum(ra)
	for k, v := range sum(rb) {
		want[k] += v
	}
	got := sum(merged)
	if len(got) != len(want) {
		t.Fatalf("merged bucket keys = %d, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("merged bucket %v count %d, want %d", k, got[k], v)
		}
	}
	if len(merged.Programs) != 1 || merged.Programs[0].Samples != merged.Samples {
		t.Fatalf("merged program summaries %+v", merged.Programs)
	}
}

// TestWriteProm renders the profiler families and feeds them back through
// the strict exposition parser.
func TestWriteProm(t *testing.T) {
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: 1})
	c.SetCalibration(&profile.Calibration{NsPerUnit: map[string]float64{"mul": 5}, BaselineNsPerUnit: 3})
	runProfiled(t, c, "deep", res, "", 7)

	var buf bytes.Buffer
	pw := obs.NewPromWriter(&buf)
	c.WriteProm(pw)
	if err := pw.Err(); err != nil {
		t.Fatal(err)
	}
	fams, err := obs.ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, buf.String())
	}
	for _, name := range []string{
		"eva_profile_executions_total", "eva_profile_samples_total",
		"eva_profile_drift_total", "eva_profile_op_duration_seconds",
		"eva_profile_op_result_bytes", "eva_profile_calibration_ns_per_unit",
	} {
		if fams[name] == nil {
			t.Errorf("family %s missing from exposition", name)
		}
	}
}

// runAndDrop compiles and runs the matmul workload, profiled by c (nil runs
// it unprofiled), and returns a weak pointer to one of its constant terms;
// the compiled Result itself is dropped on return.
func runAndDrop(t *testing.T, c *profile.Collector) weak.Pointer[core.Term] {
	res := buildMatmul(t, 64, 8)
	runProfiled(t, c, "matmul", res, "", 5)
	for _, in := range res.Instrs {
		if in.Term.Op == core.OpConstant {
			return weak.Make(in.Term)
		}
	}
	t.Fatal("the matmul has no constant term")
	return weak.Pointer[core.Term]{}
}

// TestCollectorKeepsNoProgram: the collector remembers a program by its id
// only, so once the caller drops a profiled program's compiled Result its
// term graph is collectable, exactly as an unprofiled program's is.
func TestCollectorKeepsNoProgram(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    *profile.Collector
	}{
		{"profiled", profile.NewCollector(profile.Config{SampleRate: 1})},
		{"unprofiled", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			term := runAndDrop(t, tc.c)
			runtime.GC()
			if term.Value() != nil {
				t.Error("a term of the dropped program is still reachable after GC")
			}
			runtime.KeepAlive(tc.c)
		})
	}
}

// persistedBucket is one bucket of a profile record in the wire form the
// store has always held; persistedProfile wraps it in its record.
const (
	persistedBucket  = `{"op":"MULTIPLY","level":99,"hoisted":true,"count":3,"total_ns":3000000,"max_ns":1500000,"cost_units":4800,"bytes":98304,"max_bytes":32768,"latency_buckets":[0,0,0,2,1,0,0,0],"byte_buckets":[0,3,0,0,0,0,0],"mean_us":1000}`
	persistedProfile = `{"program_id":"deep","executions":2,"instructions":40,"samples":40,"buckets":[` + persistedBucket + `],"updated_at":"2026-01-01T00:00:00Z"}`
)

// TestPersistedProfileLoads: a profile record written in the wire form
// decodes, merges with a live collector's samples, and re-encodes with its
// bucket's fields unchanged, so records persisted by earlier builds keep
// accumulating.
func TestPersistedProfileLoads(t *testing.T) {
	var old profile.ProgramProfile
	if err := json.Unmarshal([]byte(persistedProfile), &old); err != nil {
		t.Fatal(err)
	}
	if len(old.Buckets) != 1 || old.Buckets[0].Units != 4800 || len(old.Buckets[0].Latency) != 8 || len(old.Buckets[0].Sizes) != 7 {
		t.Fatalf("decoded %+v", old)
	}

	st := store.NewMemory()
	defer st.Close()
	if err := st.Put(profile.KindProfile, "deep", []byte(persistedProfile)); err != nil {
		t.Fatal(err)
	}
	res := buildDeepChain(t)
	c := profile.NewCollector(profile.Config{SampleRate: 1, Store: st})
	runProfiled(t, c, "deep", res, "", 7)
	live := c.Report()
	c.Flush()

	data, err := st.Get(profile.KindProfile, "deep")
	if err != nil {
		t.Fatal(err)
	}
	var merged profile.ProgramProfile
	if err := json.Unmarshal(data, &merged); err != nil {
		t.Fatal(err)
	}
	if merged.Executions != old.Executions+1 || merged.Samples != old.Samples+live.Samples {
		t.Fatalf("merged record has %d executions / %d samples, want %d / %d",
			merged.Executions, merged.Samples, old.Executions+1, old.Samples+live.Samples)
	}
	if want := len(live.Buckets) + 1; len(merged.Buckets) != want {
		t.Fatalf("merged record has %d buckets, want the live run's %d plus the persisted one", len(merged.Buckets), want-1)
	}

	var raw struct {
		Buckets []map[string]json.RawMessage `json:"buckets"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		t.Fatal(err)
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal([]byte(persistedBucket), &want); err != nil {
		t.Fatal(err)
	}
	for _, b := range raw.Buckets {
		if string(b["level"]) != "99" {
			continue
		}
		if len(b) != len(want) {
			t.Errorf("re-encoded bucket has fields %v, want %v", slices.Sorted(maps.Keys(b)), slices.Sorted(maps.Keys(want)))
		}
		for k, v := range want {
			if !bytes.Equal(b[k], v) {
				t.Errorf("re-encoded bucket field %s = %s, want %s", k, b[k], v)
			}
		}
		return
	}
	t.Fatalf("the persisted bucket is missing from the re-encoded record: %s", data)
}
