package profile

import (
	"encoding/json"
	"sort"
	"strconv"
	"time"

	"eva/internal/execute"
	"eva/internal/obs"
)

// Drift event kinds: the compiler's expectation that the sample violated.
const (
	DriftKindLevel = "level" // post-op ciphertext level ≠ expected chain level
	DriftKindScale = "scale" // |log2(scale) − expected| beyond tolerance
	DriftKindCost  = "cost"  // wall time off the cost-model prediction by ≥ factor
)

// latencyBounds are the per-instruction latency histogram upper bounds in
// seconds: 1 µs (element-wise ops on small rings) through 1 s (key switching
// on paper-scale rings), geometric by 10x. A slower sample lands in the
// overflow bucket.
var latencyBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1}

// ByteBounds are the result-size histogram upper bounds in bytes: 4 KiB
// (plain vectors, tiny rings) through 128 MiB (triple-poly paper-scale
// ciphertexts), geometric by 8x.
var ByteBounds = []float64{1 << 12, 1 << 15, 1 << 18, 1 << 21, 1 << 24, 1 << 27}

// BucketKey identifies one aggregation bucket: opcode × post-op ring level ×
// hoisted-batch membership × fused-chain membership. Level is -1 for plain
// (unencrypted) results.
type BucketKey struct {
	Op      string
	Level   int
	Hoisted bool
	Fused   bool
}

// priced reports whether the bucket's wall times are comparable with the
// cost model's per-instruction units. A fused chain runs as one kernel the
// model does not price — it prices each member as the lone instruction it
// replaces — so its members' shares of the kernel's wall may not feed the
// baseline, a fit, or a cost-drift check. A hoisted member's share of its
// batch's wall is its InstrUnits share, and those units already price the
// batch's one decomposition at its first member, so hoisted buckets count.
func (k BucketKey) priced() bool { return !k.Fused }

func bucketIndexF(bounds []float64, v float64) int {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	return i
}

// Bucket is one (opcode, level, hoisted, fused) aggregate in wire form. The raw sums
// (TotalNS, Units, Bytes) make buckets mergeable across nodes and process
// restarts without losing the ability to recompute means; MeanUS and
// PredictedUS are derived conveniences.
type Bucket struct {
	Op       string   `json:"op"`
	Level    int      `json:"level"`
	Hoisted  bool     `json:"hoisted,omitempty"`
	Fused    bool     `json:"fused,omitempty"`
	Count    uint64   `json:"count"`
	TotalNS  float64  `json:"total_ns"`
	MaxNS    float64  `json:"max_ns"`
	Units    float64  `json:"cost_units,omitempty"`
	Bytes    float64  `json:"bytes"`
	MaxBytes float64  `json:"max_bytes"`
	Latency  []uint64 `json:"latency_buckets"`
	Sizes    []uint64 `json:"byte_buckets"`
	// MeanUS is TotalNS/Count in microseconds; PredictedUS is the calibrated
	// prediction for this bucket's mean cost units, when a calibration is
	// installed.
	MeanUS      float64 `json:"mean_us"`
	PredictedUS float64 `json:"predicted_us,omitempty"`
}

func (b *Bucket) key() BucketKey {
	return BucketKey{Op: b.Op, Level: b.Level, Hoisted: b.Hoisted, Fused: b.Fused}
}

// newBucket returns an empty aggregate for k with histograms of the current
// bounds.
func newBucket(k BucketKey) *Bucket {
	return &Bucket{
		Op:      k.Op,
		Level:   k.Level,
		Hoisted: k.Hoisted,
		Fused:   k.Fused,
		Latency: make([]uint64, len(latencyBounds)+1),
		Sizes:   make([]uint64, len(ByteBounds)+1),
	}
}

func (b *Bucket) observe(rec execute.InstrRecord, units float64) {
	b.Count++
	ns := float64(rec.Wall.Nanoseconds())
	b.TotalNS += ns
	b.MaxNS = max(b.MaxNS, ns)
	b.Units += units
	out := float64(rec.OutBytes)
	b.Bytes += out
	b.MaxBytes = max(b.MaxBytes, out)
	b.Latency[bucketIndexF(latencyBounds, rec.Wall.Seconds())]++
	b.Sizes[bucketIndexF(ByteBounds, out)]++
}

// merge folds o's sums into b. Histogram buckets beyond b's bounds (a record
// persisted under other bounds) are dropped; the derived MeanUS and
// PredictedUS are left for wireBuckets to recompute.
func (b *Bucket) merge(o *Bucket) {
	b.Count += o.Count
	b.TotalNS += o.TotalNS
	b.MaxNS = max(b.MaxNS, o.MaxNS)
	b.Units += o.Units
	b.Bytes += o.Bytes
	b.MaxBytes = max(b.MaxBytes, o.MaxBytes)
	for i := 0; i < len(b.Latency) && i < len(o.Latency); i++ {
		b.Latency[i] += o.Latency[i]
	}
	for i := 0; i < len(b.Sizes) && i < len(o.Sizes); i++ {
		b.Sizes[i] += o.Sizes[i]
	}
}

// addBucket folds o into m's aggregate for o's key, creating it if absent.
func addBucket(m map[BucketKey]*Bucket, o *Bucket) {
	k := o.key()
	b := m[k]
	if b == nil {
		b = newBucket(k)
		m[k] = b
	}
	b.merge(o)
}

// wireBuckets renders an aggregate map sorted by (op, level, hoisted, fused),
// deriving means and — when cal is non-nil — calibrated predictions. The
// copies share nothing with m.
func wireBuckets(m map[BucketKey]*Bucket, cal *Calibration) []Bucket {
	out := make([]Bucket, 0, len(m))
	for k, b := range m {
		w := *b
		w.Latency = append([]uint64(nil), b.Latency...)
		w.Sizes = append([]uint64(nil), b.Sizes...)
		if b.Count > 0 {
			w.MeanUS = b.TotalNS / float64(b.Count) / 1e3
			if cal != nil && b.Units > 0 {
				w.PredictedUS = cal.PredictNs(k.Op, b.Units/float64(b.Count)) / 1e3
			}
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Op != out[j].Op {
			return out[i].Op < out[j].Op
		}
		if out[i].Level != out[j].Level {
			return out[i].Level < out[j].Level
		}
		if out[i].Hoisted != out[j].Hoisted {
			return !out[i].Hoisted
		}
		return !out[i].Fused && out[j].Fused
	})
	return out
}

// DriftEvent records one sampled instruction that violated a compiler
// expectation. TraceID links the event to its GET /traces entry when the
// execution ran under a trace.
type DriftEvent struct {
	Kind     string    `json:"kind"`
	Program  string    `json:"program,omitempty"`
	Node     string    `json:"node,omitempty"`
	Op       string    `json:"op"`
	Level    int       `json:"level"`
	Expected float64   `json:"expected"`
	Measured float64   `json:"measured"`
	WallUS   float64   `json:"wall_us"`
	TraceID  string    `json:"trace_id,omitempty"`
	At       time.Time `json:"at"`
}

// ProgramSummary is the per-program roll-up in a Report.
type ProgramSummary struct {
	ProgramID    string `json:"program_id"`
	Executions   uint64 `json:"executions"`
	Instructions uint64 `json:"instructions"`
	Samples      uint64 `json:"samples"`
}

// ProgramProfile is the persisted (store kind "profile") accumulated profile
// of one program: the calibration fit's input.
type ProgramProfile struct {
	ProgramID    string   `json:"program_id"`
	Executions   uint64   `json:"executions"`
	Instructions uint64   `json:"instructions"`
	Samples      uint64   `json:"samples"`
	Buckets      []Bucket `json:"buckets"`
	UpdatedAt    string   `json:"updated_at,omitempty"`
}

// mergeFrom folds another profile's counters and buckets into p.
func (p *ProgramProfile) mergeFrom(o *ProgramProfile) {
	p.Executions += o.Executions
	p.Instructions += o.Instructions
	p.Samples += o.Samples
	m := map[BucketKey]*Bucket{}
	for i := range p.Buckets {
		addBucket(m, &p.Buckets[i])
	}
	for i := range o.Buckets {
		addBucket(m, &o.Buckets[i])
	}
	p.Buckets = wireBuckets(m, nil)
}

// Report is the GET /profile response body for one node, and (via
// MergeReports) the cluster-merged view.
type Report struct {
	Node            string            `json:"node,omitempty"`
	Enabled         bool              `json:"enabled"`
	SampleRate      int               `json:"sample_rate"`
	Executions      uint64            `json:"executions"`
	Instructions    uint64            `json:"instructions"`
	Samples         uint64            `json:"samples"`
	NsPerUnit       float64           `json:"ns_per_unit,omitempty"`
	LatencyBoundsUS []float64         `json:"latency_bounds_us"`
	ByteBounds      []float64         `json:"byte_bounds"`
	Buckets         []Bucket          `json:"buckets"`
	DriftTotal      uint64            `json:"drift_total"`
	DriftCounts     map[string]uint64 `json:"drift_counts,omitempty"`
	Drift           []DriftEvent      `json:"drift,omitempty"`
	Programs        []ProgramSummary  `json:"programs,omitempty"`
	Calibration     *Calibration      `json:"calibration,omitempty"`
}

func latencyBoundsUS() []float64 {
	out := make([]float64, len(latencyBounds))
	for i, s := range latencyBounds {
		out[i] = s * 1e6
	}
	return out
}

// Report snapshots the collector.
func (c *Collector) Report() Report {
	rep := Report{
		Enabled:         c.Enabled(),
		LatencyBoundsUS: latencyBoundsUS(),
		ByteBounds:      append([]float64(nil), ByteBounds...),
		Buckets:         []Bucket{},
	}
	if c == nil {
		return rep
	}
	rep.Node = c.cfg.Node
	rep.SampleRate = c.cfg.SampleRate
	cal := c.calib.Load()
	rep.Calibration = cal

	c.mu.Lock()
	defer c.mu.Unlock()
	rep.Executions = c.executions
	rep.Instructions = c.instructions
	rep.Samples = c.samples
	if c.totalUnits > 0 {
		rep.NsPerUnit = c.totalNs / c.totalUnits
	}
	rep.Buckets = wireBuckets(c.buckets, cal)
	rep.DriftTotal = c.driftTotal
	if len(c.driftCounts) > 0 {
		rep.DriftCounts = make(map[string]uint64, len(c.driftCounts))
		for k, v := range c.driftCounts {
			rep.DriftCounts[k] = v
		}
	}
	// Ring order → chronological order.
	for i := 0; i < len(c.drift); i++ {
		rep.Drift = append(rep.Drift, c.drift[(c.driftNext+i)%len(c.drift)])
	}
	for id, pa := range c.programs {
		rep.Programs = append(rep.Programs, ProgramSummary{
			ProgramID:    id,
			Executions:   pa.executions,
			Instructions: pa.instructions,
			Samples:      pa.samples,
		})
	}
	sort.Slice(rep.Programs, func(i, j int) bool { return rep.Programs[i].ProgramID < rep.Programs[j].ProgramID })
	return rep
}

// MergeReports combines per-node reports into one cluster view: counters and
// buckets sum (each sample was recorded by exactly one node, so summing never
// double-counts), drift events interleave, and program summaries merge by id.
func MergeReports(node string, reports []Report) Report {
	merged := Report{
		Node:            node,
		LatencyBoundsUS: latencyBoundsUS(),
		ByteBounds:      append([]float64(nil), ByteBounds...),
		Buckets:         []Bucket{},
	}
	buckets := map[BucketKey]*Bucket{}
	programs := map[string]*ProgramSummary{}
	var totalNs, totalUnits float64
	for _, rep := range reports {
		if rep.Enabled {
			merged.Enabled = true
		}
		if rep.SampleRate > merged.SampleRate {
			merged.SampleRate = rep.SampleRate
		}
		merged.Executions += rep.Executions
		merged.Instructions += rep.Instructions
		merged.Samples += rep.Samples
		merged.DriftTotal += rep.DriftTotal
		for k, v := range rep.DriftCounts {
			if merged.DriftCounts == nil {
				merged.DriftCounts = map[string]uint64{}
			}
			merged.DriftCounts[k] += v
		}
		for i := range rep.Buckets {
			b := &rep.Buckets[i]
			addBucket(buckets, b)
			if b.key().priced() && b.Units > 0 {
				totalNs += b.TotalNS
				totalUnits += b.Units
			}
		}
		merged.Drift = append(merged.Drift, rep.Drift...)
		for _, ps := range rep.Programs {
			if agg, ok := programs[ps.ProgramID]; ok {
				agg.Executions += ps.Executions
				agg.Instructions += ps.Instructions
				agg.Samples += ps.Samples
			} else {
				cp := ps
				programs[ps.ProgramID] = &cp
			}
		}
		if merged.Calibration == nil {
			merged.Calibration = rep.Calibration
		}
	}
	merged.Buckets = wireBuckets(buckets, merged.Calibration)
	if totalUnits > 0 {
		merged.NsPerUnit = totalNs / totalUnits
	}
	sort.Slice(merged.Drift, func(i, j int) bool { return merged.Drift[i].At.Before(merged.Drift[j].At) })
	if len(merged.Drift) > 256 {
		merged.Drift = merged.Drift[len(merged.Drift)-256:]
	}
	for _, ps := range programs {
		merged.Programs = append(merged.Programs, *ps)
	}
	sort.Slice(merged.Programs, func(i, j int) bool { return merged.Programs[i].ProgramID < merged.Programs[j].ProgramID })
	return merged
}

// WriteProm renders the collector as eva_profile_* Prometheus families.
func (c *Collector) WriteProm(p *obs.PromWriter) {
	rep := c.Report()
	p.Meta("eva_profile_executions_total", "Executions sampled by the instruction profiler.", "counter")
	p.Sample("eva_profile_executions_total", nil, float64(rep.Executions))
	p.Meta("eva_profile_instructions_total", "Instructions seen by the profiler (sampled or skipped).", "counter")
	p.Sample("eva_profile_instructions_total", nil, float64(rep.Instructions))
	p.Meta("eva_profile_samples_total", "Instructions actually sampled (one per sample-rate stride).", "counter")
	p.Sample("eva_profile_samples_total", nil, float64(rep.Samples))
	p.Meta("eva_profile_drift_total", "Sampled instructions diverging from compiler expectations, by kind.", "counter")
	for _, kind := range []string{DriftKindLevel, DriftKindScale, DriftKindCost} {
		p.Sample("eva_profile_drift_total", map[string]string{"kind": kind}, float64(rep.DriftCounts[kind]))
	}
	if rep.NsPerUnit > 0 {
		p.Meta("eva_profile_ns_per_unit", "Measured nanoseconds per abstract cost-model unit (global ratio).", "gauge")
		p.Sample("eva_profile_ns_per_unit", nil, rep.NsPerUnit)
	}
	if len(rep.Buckets) > 0 {
		p.Meta("eva_profile_op_duration_seconds", "Per-instruction wall time by opcode and post-op ring level.", "histogram")
		for i := range rep.Buckets {
			b := &rep.Buckets[i]
			p.Histogram("eva_profile_op_duration_seconds", bucketLabels(b), obs.HistogramSnapshot{
				Bounds: latencyBounds,
				Counts: b.Latency,
				Sum:    b.TotalNS / 1e9,
				Count:  b.Count,
			})
		}
		p.Meta("eva_profile_op_result_bytes", "Per-instruction result footprint by opcode and post-op ring level.", "histogram")
		for i := range rep.Buckets {
			b := &rep.Buckets[i]
			p.Histogram("eva_profile_op_result_bytes", bucketLabels(b), obs.HistogramSnapshot{
				Bounds: ByteBounds,
				Counts: b.Sizes,
				Sum:    b.Bytes,
				Count:  b.Count,
			})
		}
	}
	if cal := rep.Calibration; cal != nil {
		p.Meta("eva_profile_calibration_ns_per_unit", "Fitted per-opcode cost coefficients (ns per cost-model unit).", "gauge")
		for _, op := range sortedKeys(cal.NsPerUnit) {
			p.Sample("eva_profile_calibration_ns_per_unit", map[string]string{"op": op}, cal.NsPerUnit[op])
		}
	}
}

func bucketLabels(b *Bucket) map[string]string {
	return map[string]string{
		"op":      b.Op,
		"level":   strconv.Itoa(b.Level),
		"hoisted": strconv.FormatBool(b.Hoisted),
		"fused":   strconv.FormatBool(b.Fused),
	}
}

func sortedKeys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func encodeJSON(v any) ([]byte, error)    { return json.Marshal(v) }
func decodeJSON(data []byte, v any) error { return json.Unmarshal(data, v) }
