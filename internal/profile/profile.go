// Package profile is the per-instruction execution flight recorder: it
// samples measured wall time, opcode, ring level, operand footprints,
// hoisted-batch membership, and the post-op scale/level trajectory of every
// Nth instruction the executor completes, and compares each sample against
// the compiler's static expectations — the analysis.CostModel prediction and
// the checked scale/level the scale-management passes assigned. Divergence
// becomes a structured drift event; agreement accumulates into per-(opcode,
// level) latency and allocation histograms that feed /profile, the
// eva_profile_* Prometheus families, and the calibration fit that turns the
// abstract cost model into measured nanosecond coefficients.
//
// Overhead design: the executor's OnInstruction callback runs under the run
// lock, so the recorder does no locking of its own — it owns its run
// exclusively and only touches the shared collector once, at Finish. The
// sampling decision is a counter test; skipped instructions cost one branch.
// Persistence (store kind "profile", one record per program id) is throttled
// per program and runs outside the collector lock.
package profile

import (
	"cmp"
	"iter"
	"log/slog"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/store"
)

// DefaultSampleRate is the default instruction sampling stride: one in every
// DefaultSampleRate instructions is recorded. Chosen so the always-on path
// stays within benchmark noise (see BenchmarkProfiledExecuteOn).
const DefaultSampleRate = 16

// maxDriftPerRun bounds the drift events one execution can contribute, so a
// systematically divergent program cannot flood the collector's ring.
const maxDriftPerRun = 32

// Config configures a Collector. Zero values select defaults; SampleRate < 0
// disables profiling entirely (Recorder returns nil).
type Config struct {
	// SampleRate records one in every SampleRate instructions (1 = all,
	// 0 = DefaultSampleRate, < 0 = disabled).
	SampleRate int
	// Store, when non-nil, accumulates per-program profiles under kind
	// "profile" across process restarts.
	Store store.Store
	// Node labels this collector's reports and drift events.
	Node string
	// Logger, when non-nil, receives throttled drift warnings.
	Logger *slog.Logger
}

// The drift checks' thresholds and the collector's bounds.
const (
	// scaleTolBits is the allowed |log2(measured) − expected| scale deviation
	// before a "scale" drift event is recorded.
	scaleTolBits = 0.5
	// costDriftFactor flags a "cost" drift when measured wall time differs
	// from the predicted time by at least this factor either way.
	costDriftFactor = 8
	// minCostWall is the minimum measured wall time for a sample to be
	// eligible for cost-drift checking; faster instructions are all scheduler
	// noise.
	minCostWall = 250 * time.Microsecond
	// driftRing bounds the retained drift events.
	driftRing = 256
	// persistInterval throttles per-program persistence to Store.
	persistInterval = 5 * time.Second
)

// Collector aggregates instruction samples across executions. It is safe for
// concurrent use; per-run state lives in Recorders that fold in at Finish.
type Collector struct {
	cfg     Config
	enabled bool

	calib atomic.Pointer[Calibration]

	mu           sync.Mutex
	executions   uint64
	instructions uint64
	samples      uint64
	buckets      map[BucketKey]*Bucket
	driftCounts  map[string]uint64
	drift        []DriftEvent // ring of size driftRing
	driftNext    int
	driftTotal   uint64
	totalNs      float64 // priced samples with model units only (BucketKey.priced):
	totalUnits   float64 // the global measured ns-per-cost-unit baseline
	programs     map[string]*programAgg
	lastDriftLog time.Time
}

type programAgg struct {
	executions   uint64
	instructions uint64
	samples      uint64
	buckets      map[BucketKey]*Bucket
	lastPersist  time.Time

	persistMu sync.Mutex // serializes baseline load + store writes
	loaded    bool
	baseline  *ProgramProfile
}

// NewCollector builds a collector. The returned collector is never nil; when
// cfg.SampleRate < 0 it is disabled and Recorder returns nil recorders.
func NewCollector(cfg Config) *Collector {
	enabled := cfg.SampleRate >= 0
	cfg.SampleRate = cmp.Or(cfg.SampleRate, DefaultSampleRate)
	return &Collector{
		cfg:         cfg,
		enabled:     enabled,
		buckets:     map[BucketKey]*Bucket{},
		driftCounts: map[string]uint64{},
		programs:    map[string]*programAgg{},
	}
}

// Enabled reports whether the collector records samples at all.
func (c *Collector) Enabled() bool { return c != nil && c.enabled }

// SampleRate returns the configured sampling stride.
func (c *Collector) SampleRate() int { return c.cfg.SampleRate }

// SetCalibration installs fitted coefficients; subsequent cost-drift checks
// and report predictions use them instead of the running global ratio.
func (c *Collector) SetCalibration(cal *Calibration) { c.calib.Store(cal) }

// Calibration returns the installed coefficient set, or nil.
func (c *Collector) Calibration() *Calibration {
	if c == nil {
		return nil
	}
	return c.calib.Load()
}

// Recorder samples one execution. It is NOT internally synchronized: the
// executor serializes OnInstruction calls under the run lock, and Finish must
// be called after the run returns. A nil Recorder is a valid no-op.
//
// A sample's static expectations come from the compiled instruction its
// record names (compile.Result.Instrs[rec.ID]): the recorder holds the Result
// for its run only, so the collector keeps nothing of a program but its id.
type Recorder struct {
	c         *Collector
	res       *compile.Result
	maxLevel  int
	programID string
	traceID   string
	rate      int
	nsPerUnit float64 // cost-drift baseline when no calibration is installed
	cal       *Calibration
	// skipExpect suppresses level/scale drift checks: with ExtraLevels
	// pipeline headroom, inputs legally enter below fresh and every absolute
	// level expectation shifts by the (unknown at compile time) entry depth.
	skipExpect bool

	n           uint64
	samples     uint64
	opTotals    [core.OpRescale + 1]opTotal // by opcode, over every record
	local       map[BucketKey]*Bucket
	drift       []DriftEvent
	driftCounts map[string]uint64
}

// opTotal is one opcode's exact record count and summed wall time in a run.
type opTotal struct {
	n    int
	wall time.Duration
}

// Recorder starts sampling one execution of the given compiled program.
// traceID, when non-empty, is attached to drift events so a /profile outlier
// links to its /traces entry. Returns nil when the collector is disabled.
func (c *Collector) Recorder(programID string, res *compile.Result, traceID string) *Recorder {
	if c == nil || !c.enabled {
		return nil
	}
	r := &Recorder{
		c:          c,
		res:        res,
		maxLevel:   len(res.Plan.BitSizes) - 1,
		programID:  programID,
		traceID:    traceID,
		rate:       c.cfg.SampleRate,
		cal:        c.calib.Load(),
		skipExpect: res.Options.ExtraLevels > 0,
		local:      map[BucketKey]*Bucket{},
	}
	if r.cal == nil {
		// Snapshot the running global ratio once per run: a lock per
		// execution, not per instruction. Require a minimum population so
		// early noise does not masquerade as a baseline.
		c.mu.Lock()
		if c.samples >= 256 && c.totalUnits > 0 {
			r.nsPerUnit = c.totalNs / c.totalUnits
		}
		c.mu.Unlock()
	}
	return r
}

// OnInstruction is the execute.RunOptions.OnInstruction callback. It must be
// fast: the executor holds the run lock while it runs.
func (r *Recorder) OnInstruction(t *core.Term, rec execute.InstrRecord) {
	if r == nil {
		return
	}
	if op := t.Op; op >= 0 && int(op) < len(r.opTotals) {
		r.opTotals[op].n++
		r.opTotals[op].wall += rec.Wall
	}
	i := r.n
	r.n++
	if r.rate > 1 && i%uint64(r.rate) != 0 {
		return
	}
	r.samples++
	in := &r.res.Instrs[rec.ID]
	units := r.res.InstrUnits(rec.ID)
	key := BucketKey{Op: t.Op.String(), Level: rec.Level, Hoisted: rec.Hoisted, Fused: rec.Fused}
	b := r.local[key]
	if b == nil {
		b = newBucket(key)
		r.local[key] = b
	}
	b.observe(rec, units)

	if !rec.Cipher || !in.Cipher {
		return
	}
	wallNs := float64(rec.Wall.Nanoseconds())
	if !r.skipExpect {
		if expLevel := r.maxLevel - in.Level; rec.Level != expLevel {
			r.addDrift(DriftKindLevel, t, rec, float64(expLevel), float64(rec.Level))
		}
		if logScale := math.Log2(rec.Scale); rec.Scale > 0 && math.Abs(logScale-in.LogScale) > scaleTolBits {
			r.addDrift(DriftKindScale, t, rec, in.LogScale, logScale)
		}
	}
	// Cost drift: compare measured wall time against the calibrated (or
	// running-baseline) prediction. Fused members are excluded: their wall
	// times diverge from the per-instruction model by design (see
	// BucketKey.priced).
	if !key.priced() || units <= 0 || rec.Wall < minCostWall {
		return
	}
	var predNs float64
	if r.cal != nil {
		predNs = r.cal.PredictNs(key.Op, units)
	} else {
		predNs = r.nsPerUnit * units
	}
	if predNs <= 0 {
		return
	}
	if wallNs >= predNs*costDriftFactor || wallNs*costDriftFactor <= predNs {
		r.addDrift(DriftKindCost, t, rec, predNs, wallNs)
	}
}

func (r *Recorder) addDrift(kind string, t *core.Term, rec execute.InstrRecord, expected, measured float64) {
	if r.driftCounts == nil {
		r.driftCounts = map[string]uint64{}
	}
	r.driftCounts[kind]++
	if len(r.drift) >= maxDriftPerRun {
		return
	}
	r.drift = append(r.drift, DriftEvent{
		Kind:     kind,
		Program:  r.programID,
		Node:     r.c.cfg.Node,
		Op:       t.Op.String(),
		Level:    rec.Level,
		Expected: expected,
		Measured: measured,
		WallUS:   float64(rec.Wall.Nanoseconds()) / 1e3,
		TraceID:  r.traceID,
	})
}

// OpWall yields, for every opcode the run executed, the exact summed wall
// time of all its instructions, sampled or not.
func (r *Recorder) OpWall() iter.Seq2[string, time.Duration] {
	return func(yield func(string, time.Duration) bool) {
		if r == nil {
			return
		}
		for op, tot := range r.opTotals {
			if tot.n > 0 && !yield(core.OpCode(op).String(), tot.wall) {
				return
			}
		}
	}
}

// Finish folds the run's samples into the collector and triggers throttled
// persistence. Must be called at most once, after the run has returned.
func (r *Recorder) Finish() {
	if r == nil || r.c == nil {
		return
	}
	r.c.fold(r)
	r.c = nil
}

func (c *Collector) fold(r *Recorder) {
	now := time.Now()
	var persist *programAgg

	c.mu.Lock()
	c.executions++
	c.instructions += r.n
	c.samples += r.samples
	for k, lb := range r.local {
		addBucket(c.buckets, lb)
		if k.priced() && lb.Units > 0 {
			c.totalNs += lb.TotalNS
			c.totalUnits += lb.Units
		}
	}
	for kind, n := range r.driftCounts {
		c.driftCounts[kind] += n
	}
	for _, ev := range r.drift {
		ev.At = now
		if len(c.drift) < driftRing {
			c.drift = append(c.drift, ev)
		} else {
			c.drift[c.driftNext] = ev
			c.driftNext = (c.driftNext + 1) % driftRing
		}
		c.driftTotal++
	}
	pa := c.programs[r.programID]
	if pa == nil {
		pa = &programAgg{buckets: map[BucketKey]*Bucket{}}
		c.programs[r.programID] = pa
	}
	pa.executions++
	pa.instructions += r.n
	pa.samples += r.samples
	for _, lb := range r.local {
		addBucket(pa.buckets, lb)
	}
	if c.cfg.Store != nil && now.Sub(pa.lastPersist) >= persistInterval {
		pa.lastPersist = now
		persist = pa
	}
	shouldLog := len(r.drift) > 0 && c.cfg.Logger != nil && now.Sub(c.lastDriftLog) >= time.Second
	if shouldLog {
		c.lastDriftLog = now
	}
	c.mu.Unlock()

	if shouldLog {
		ev := r.drift[0]
		c.cfg.Logger.Warn("profile drift",
			slog.String("program", r.programID),
			slog.String("kind", ev.Kind),
			slog.String("op", ev.Op),
			slog.Int("level", ev.Level),
			slog.Float64("expected", ev.Expected),
			slog.Float64("measured", ev.Measured),
			slog.String("trace_id", r.traceID),
			slog.Int("events", len(r.drift)),
		)
	}
	if persist != nil {
		c.persistProgram(r.programID, persist)
	}
}

// persistProgram writes the accumulated profile for one program: the
// baseline loaded from the store on first touch plus everything this process
// has observed since. Runs outside the collector lock.
func (c *Collector) persistProgram(id string, pa *programAgg) {
	pa.persistMu.Lock()
	defer pa.persistMu.Unlock()
	if !pa.loaded {
		if data, err := c.cfg.Store.Get(KindProfile, id); err == nil {
			var base ProgramProfile
			if decodeErr := decodeJSON(data, &base); decodeErr == nil {
				pa.baseline = &base
			}
		}
		pa.loaded = true
	}
	snap := c.snapshotProgram(id, pa)
	if pa.baseline != nil {
		snap.mergeFrom(pa.baseline)
	}
	snap.UpdatedAt = time.Now().UTC().Format(time.RFC3339)
	data, err := encodeJSON(snap)
	if err != nil {
		return
	}
	if err := c.cfg.Store.Put(KindProfile, id, data); err != nil && c.cfg.Logger != nil {
		c.cfg.Logger.Warn("profile persist failed", slog.String("program", id), slog.String("error", err.Error()))
	}
}

func (c *Collector) snapshotProgram(id string, pa *programAgg) *ProgramProfile {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap := &ProgramProfile{
		ProgramID:    id,
		Executions:   pa.executions,
		Instructions: pa.instructions,
		Samples:      pa.samples,
		Buckets:      wireBuckets(pa.buckets, nil),
	}
	return snap
}

// Flush persists every program's accumulated profile immediately, ignoring
// the persistence interval. Called on server shutdown and before a
// calibration fit so the store reflects everything observed.
func (c *Collector) Flush() {
	if c == nil || !c.enabled || c.cfg.Store == nil {
		return
	}
	c.mu.Lock()
	ids := make([]string, 0, len(c.programs))
	aggs := make([]*programAgg, 0, len(c.programs))
	now := time.Now()
	for id, pa := range c.programs {
		ids = append(ids, id)
		aggs = append(aggs, pa)
		pa.lastPersist = now
	}
	c.mu.Unlock()
	for i, id := range ids {
		c.persistProgram(id, aggs[i])
	}
}
