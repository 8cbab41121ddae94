package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call the runner made into a layer (or one instruction
// reported through RunOptions.OnInstruction). Times are nanoseconds since the
// tracer was created. Op is the traced operation the span belongs to, or -1
// for set-up and probe spans; Parent is the id of the enclosing span, or -1.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the span's duration minus the part of it its child spans
	// cover; filled in by finish.
	Self int64 `json:"self_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary and install no
// callbacks.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

const noSpan = -1

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return noSpan
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, End: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin and returns its duration.
func (t *tracer) end(id int) time.Duration {
	if t == nil || id == noSpan {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	d := now - t.spans[id].Start
	t.mu.Unlock()
	return time.Duration(d)
}

// add records a span that ended just now and lasted wall — the shape of an
// OnInstruction record, which reports a duration after the fact.
func (t *tracer) add(name string, parent, op int, wall time.Duration) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, Start: now - int64(wall), End: now})
	t.mu.Unlock()
}

// finish computes every span's self time: its duration minus the union of
// the intervals its children cover (children of a parallel run overlap, so
// summing them would over-subtract).
func (t *tracer) finish() {
	children := map[int][]int{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(t.spans[k].Start, edge), min(t.spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// perOp sums, for every traced operation that has spans whose name matches,
// their durations in milliseconds and counts them; both slices are ordered
// by operation id.
func (t *tracer) perOp(match func(name string) bool) (ms, n []float64) {
	type acc struct{ ms, n float64 }
	sums := map[int]*acc{}
	var ops []int
	for _, s := range t.spans {
		if s.Op < 0 || !match(s.Name) {
			continue
		}
		a := sums[s.Op]
		if a == nil {
			a = &acc{}
			sums[s.Op] = a
			ops = append(ops, s.Op)
		}
		a.ms += float64(s.End-s.Start) / 1e6
		a.n++
	}
	sort.Ints(ops)
	for _, op := range ops {
		ms = append(ms, sums[op].ms)
		n = append(n, sums[op].n)
	}
	return ms, n
}

// named matches spans with exactly this name.
func named(name string) func(string) bool {
	return func(s string) bool { return s == name }
}

// setupMS sums the durations of the set-up and probe spans (Op < 0) with the
// given name, in milliseconds.
func (t *tracer) setupMS(name string) float64 {
	total := 0.0
	for _, s := range t.spans {
		if s.Op < 0 && s.Name == name {
			total += float64(s.End-s.Start) / 1e6
		}
	}
	return total
}

// write stores the spans as one JSON document.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
