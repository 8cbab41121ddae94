package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"eva/internal/ring"
)

// config is one invocation of the runner.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tiny shrinks a run to one set-up, no warm-up and one timed operation
	// per client (a traced one in a traced run). The tests use it; its
	// timings mean nothing.
	tiny   bool
	outDir string    // where <workload>.trace.json goes
	table  io.Writer // human-readable metric table
}

const (
	// setupReps set-ups are timed per run and the median reported, as the
	// contract asks, so one slow key generation does not decide setup_s.
	setupReps = 5
	// warmupOps untimed operations per client precede the first timed one.
	warmupOps = 3
)

// workload is one named set of inputs. Everything a workload measures it
// measures from outside, by timing its own calls into the layers.
type workload interface {
	// clients is the number of closed-loop callers issuing operations.
	clients() int
	// tailPercentile is the percentile latency_tail_ms reports.
	tailPercentile() float64
	// setup builds everything an operation needs from the seed. It is called
	// several times; close releases what the previous call built. tr is nil
	// except on the last set-up of a traced run.
	setup(tr *tracer) error
	// op runs the i-th operation of a client and checks its output against
	// the independent reference. id is the operation's span id when traced.
	op(client, i int, tr *tracer, id int) (maxAbsErr float64, err error)
	// finish runs checks too expensive to repeat per operation.
	finish() (maxAbsErr float64, err error)
	// probes measures single layers directly (traced runs only, after
	// warm-up), and layers derives the per-layer metrics once the timed
	// phase is over.
	probes(tr *tracer, lm layerMetrics) error
	layers(tr *tracer, lm layerMetrics, lat latencies)
	close()
}

func newWorkload(cfg config, workers int) (workload, error) {
	switch cfg.workload {
	case "nn_infer":
		return &nnInfer{seed: cfg.seed, workers: workers}, nil
	case "apps_secure":
		return &appsSecure{seed: cfg.seed}, nil
	case "compile_full":
		return &compileFull{seed: cfg.seed}, nil
	case "serve_jobs":
		return &serveJobs{seed: cfg.seed, workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q; want one of %v", cfg.workload, workloadNames)
}

// latencies are the timed phase's per-operation wall times in milliseconds:
// all of them, the ones measured with no spans recorded, and the traced ones.
type latencies struct{ all, plain, traced []float64 }

func (l *latencies) add(ms float64, traced bool) {
	l.all = append(l.all, ms)
	if traced {
		l.traced = append(l.traced, ms)
	} else {
		l.plain = append(l.plain, ms)
	}
}

// run executes one workload and returns the result the last output line
// carries.
func run(cfg config) (*result, error) {
	procs := min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	ring.SetWorkers(procs)

	w, err := newWorkload(cfg, procs)
	if err != nil {
		return nil, err
	}
	return runWorkload(cfg, w)
}

// tally accumulates what a run measures.
type tally struct {
	mu        sync.Mutex // guards the fields the clients of the timed phase write
	lat       latencies  // of the operations that succeeded
	attempted int
	failed    int
	maxErr    float64
	firstErr  error
	wall      float64 // seconds of timed phase
	setupS    []float64
	allocMB   float64
	gcPauseMS float64
}

func (t *tally) fail(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// runWorkload is run for a workload already constructed: set-ups, warm-up,
// probes (traced runs), the timed phase, the final checks.
func runWorkload(cfg config, w workload) (*result, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	reps, warm := setupReps, warmupOps
	if cfg.tiny {
		reps, warm = 1, 0
	}
	t := &tally{}
	defer w.close()
	for r := 0; r < reps; r++ {
		if r > 0 {
			w.close()
		}
		var setupTracer *tracer
		if r == reps-1 {
			setupTracer = tr // one set-up's spans are enough
		}
		start := time.Now()
		if err := w.setup(setupTracer); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		t.setupS = append(t.setupS, time.Since(start).Seconds())
	}
	for c := 0; c < w.clients(); c++ {
		for i := 0; i < warm; i++ {
			if _, err := w.op(c, -1-i, nil, noSpan); err != nil {
				return nil, fmt.Errorf("%s: warm-up: %w", cfg.workload, err)
			}
		}
	}
	lm := layerMetrics{}
	if cfg.trace {
		if err := w.probes(tr, lm); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", cfg.workload, err)
		}
	}

	t.timedPhase(cfg, w, tr)

	e, err := w.finish()
	t.maxErr = max(t.maxErr, e)
	if err != nil {
		t.fail(err)
	}
	if cfg.trace {
		tr.finish()
		w.layers(tr, lm, t.lat)
	}
	return t.report(cfg, w, tr, lm)
}

// timedPhase has every client issue operations back to back until the
// deadline; an operation in flight at the deadline completes and counts. In
// a traced run odd operations carry spans and even ones do not, so the two
// latency medians the overhead ratio divides come from the same stretch of
// time.
func (t *tally) timedPhase(cfg config, w workload, tr *tracer) {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < w.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if cfg.tiny && i > 0 || !cfg.tiny && !time.Now().Before(deadline) {
					return
				}
				traced := cfg.trace && (cfg.tiny || i%2 == 1)
				var opTracer *tracer
				id := noSpan
				if traced {
					opTracer, id = tr, c+i*w.clients()
				}
				t0 := time.Now()
				e, err := w.op(c, i, opTracer, id)
				ms := float64(time.Since(t0)) / 1e6
				t.mu.Lock()
				t.attempted++
				if err != nil {
					t.fail(err)
				} else {
					t.lat.add(ms, traced)
				}
				t.maxErr = max(t.maxErr, e)
				t.mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	t.wall = time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	t.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
}

// report turns the tally into the result: the end-to-end metrics of an
// untraced run, the per-layer metrics of a traced one.
func (t *tally) report(cfg config, w workload, tr *tracer, lm layerMetrics) (*result, error) {
	if t.firstErr != nil {
		fmt.Fprintf(cfg.table, "FAILED operation: %v\n", t.firstErr)
	}
	lat := t.lat
	res := &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	e2e := map[string]float64{
		"setup_s":          median(t.setupS),
		"latency_p50_ms":   median(lat.plain),
		"latency_tail_ms":  percentile(lat.plain, w.tailPercentile()),
		"throughput_ops_s": float64(len(lat.all)) / t.wall,
	}
	fmt.Fprintf(cfg.table, "workload %s seed %d: %d operations in %.2f s (%d untraced latency samples, tail = p%g), %d failed\n",
		cfg.workload, cfg.seed, t.attempted, t.wall, len(lat.plain), w.tailPercentile(), t.failed)

	if !cfg.trace {
		if err := res.fill(endToEndMetrics, e2e, cfg.table); err != nil {
			return nil, err
		}
		return res, nil
	}
	printMetrics(cfg.table, endToEndMetrics, e2e)

	lm["proc.peak_rss_mb"] = peakRSSMB()
	lm["proc.alloc_mb_per_op"] = t.allocMB / float64(max(1, t.attempted))
	lm["proc.gc_pause_ms"] = t.gcPauseMS
	lm["ring.workers"] = float64(ring.Workers())
	lm["check.max_abs_err"] = t.maxErr
	if len(lat.plain) > 0 && len(lat.traced) > 0 {
		lm["trace.overhead_ratio"] = median(lat.traced) / median(lat.plain)
	}
	if err := res.fill(perLayerMetrics, lm, cfg.table); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.outDir, cfg.workload+".trace.json")
	if err := tr.write(path, cfg.workload, cfg.seed); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(cfg.table, "%d spans written to %s\n", len(tr.spans), path)
	return res, nil
}

// peakRSSMB is the process's peak resident set from getrusage (kilobytes on
// Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// layerMetrics collects per-layer values by name. A layer a workload never
// enters keeps the value 0: the work was not done.
type layerMetrics map[string]float64

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object on the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill stores exactly the declared metrics into the result, and fails on a
// value set under a name the manifest does not declare.
func (r *result) fill(defs []metricDef, values map[string]float64, table io.Writer) error {
	declared := map[string]bool{}
	for _, d := range defs {
		declared[d.name] = true
		r.Metrics[d.name] = metricValue{values[d.name], d.unit}
	}
	var stray []string
	for name := range values {
		if !declared[name] {
			stray = append(stray, name)
		}
	}
	if len(stray) > 0 {
		sort.Strings(stray)
		return fmt.Errorf("metrics %v are measured but not declared", stray)
	}
	printMetrics(table, defs, values)
	return nil
}

func printMetrics(w io.Writer, defs []metricDef, values map[string]float64) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// exitCode is non-zero when any operation failed or returned a wrong output.
func (r *result) exitCode() int {
	if r.Correct {
		return 0
	}
	return 1
}
