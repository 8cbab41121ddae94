// Command evaload is a load generator for the evaserve jobs API: it drives N
// concurrent asynchronous jobs end to end (submit → stream progress → fetch
// result), retries submissions the server sheds with 429 + Retry-After, and
// prints throughput and latency percentiles. CI runs it against an
// in-process server; with -addr it targets a live evaserve running in -demo
// mode.
//
// Usage:
//
//	evaload [-addr http://host:8080] [-jobs 50] [-concurrency 8] [-batches 2]
//	        [-timeout 10m] [-job-workers 2] [-job-queue 64] [-job-memory-mb 8192]
//	        [-coalesce]
//
// With no -addr, evaload starts an in-process evaserve (demo mode) on a
// loopback port and drives that, making it a self-contained smoke test: it
// exits non-zero if any job loses its result or fails.
//
// With -coalesce, evaload benchmarks the request coalescer: it drives the
// same narrow-width rotation-free program first through the plain jobs API
// (one execution per request) and then through POST /jobs?coalesce=1 (up to
// 8 concurrent callers packed into one shared execution), verifies every
// caller's results against the cleartext reference in both phases, and
// reports amortized per-request latency percentiles, throughput, and the
// coalesced-over-unbatched speedup plus the server's occupancy metrics.
//
// Cluster routing, owner failover, pipelines, the instruction profiler and
// job traces are checked by the end-to-end tests of internal/cluster and
// internal/serve, not here.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"eva/eva"
	"eva/internal/serve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			return // -h is a successful invocation
		}
		fmt.Fprintln(os.Stderr, "evaload:", err)
		os.Exit(1)
	}
}

// loadSource is the program every job executes: a squaring (relinearize +
// rescale), a rotation (Galois key), and a cipher-plain product — the same
// opcode classes the e2e tests exercise, heavy enough that a job does real
// backend work.
const loadSource = `program load vec=8;
input x @30;
input y @30;
s = x * x + y;
r = rotl(s, 1);
out = (s + r) * 0.5@30;
output out @30;`

// coalesceSource is the program the -coalesce benchmark drives: width-8
// inputs in a 64-slot vector give the coalescer a capacity of 8 callers per
// shared batch, and the squaring keeps relinearize + rescale on the hot
// path. loadSource itself rotates, which coalescing forbids (rotations would
// mix co-batched callers' slot ranges).
const coalesceSource = `program coalesce vec=64;
input x width=8 @30;
input y width=8 @30;
s = x * x + y;
out = s * 0.5@30;
output out @30;`

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("evaload", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr        = fs.String("addr", "", "evaserve base URL (empty = start an in-process demo server)")
		jobCount    = fs.Int("jobs", 50, "total jobs to run")
		concurrency = fs.Int("concurrency", 8, "jobs in flight at once")
		batches     = fs.Int("batches", 2, "batches per job")
		timeout     = fs.Duration("timeout", 10*time.Minute, "overall deadline")
		jobWorkers  = fs.Int("job-workers", 0, "in-process server: async job workers (0 = 2)")
		jobQueue    = fs.Int("job-queue", 0, "in-process server: job queue depth (0 = 64)")
		jobMemMB    = fs.Int64("job-memory-mb", 0, "in-process server: job memory budget in MiB (0 = 8192)")
		coalesce    = fs.Bool("coalesce", false, "benchmark POST /jobs?coalesce=1 against the unbatched jobs API")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	var client *eva.Client
	if *addr != "" {
		client = eva.NewClient(*addr)
	} else {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := serve.NewServer(serve.Config{
			AllowServerKeygen:    true,
			JobWorkers:           *jobWorkers,
			JobQueueDepth:        *jobQueue,
			JobMemoryBudgetBytes: *jobMemMB << 20,
		})
		defer srv.Close()
		httpSrv := &http.Server{Handler: srv.Handler()}
		go httpSrv.Serve(ln)
		defer httpSrv.Close()
		url := "http://" + ln.Addr().String()
		client = eva.NewClient(url)
		fmt.Fprintf(stdout, "in-process evaserve on %s\n", url)
	}

	if *coalesce {
		return runCoalesceBench(ctx, stdout, client, *jobCount, *concurrency)
	}

	comp, err := client.Compile(ctx, eva.CompileRequest{
		Source:  loadSource,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	ectx, err := client.NewKeygenContext(ctx, comp.ID, 42)
	if err != nil {
		return fmt.Errorf("context (the server must run -demo): %w", err)
	}
	fmt.Fprintf(stdout, "program %s, context %s, %d jobs x %d batches, concurrency %d\n",
		comp.ID, ectx.ContextID, *jobCount, *batches, *concurrency)

	outcomes := make([]outcome, *jobCount)
	sem := make(chan struct{}, max(1, *concurrency))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < *jobCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			outcomes[i] = runJob(ctx, client, comp.ID, ectx.ContextID, *batches, i)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var latencies []time.Duration
	var waits []float64
	completed, lost, retries := 0, 0, 0
	for i, o := range outcomes {
		retries += o.retries
		if o.err != nil {
			lost++
			fmt.Fprintf(stderr, "job %d: %v\n", i, o.err)
			continue
		}
		completed++
		latencies = append(latencies, o.latency)
		waits = append(waits, o.wait)
	}

	fmt.Fprintf(stdout, "completed %d/%d jobs in %.2fs (%.1f jobs/s), %d shed-retries, %d lost\n",
		completed, *jobCount, elapsed.Seconds(), float64(completed)/elapsed.Seconds(), retries, lost)
	if len(latencies) > 0 {
		sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
		sort.Float64s(waits)
		fmt.Fprintf(stdout, "latency p50 %.1fms  p90 %.1fms  p99 %.1fms  max %.1fms\n",
			ms(pct(latencies, 0.50)), ms(pct(latencies, 0.90)), ms(pct(latencies, 0.99)), ms(latencies[len(latencies)-1]))
		fmt.Fprintf(stdout, "queue wait p50 %.1fms  p90 %.1fms\n",
			pct(waits, 0.50), pct(waits, 0.90))
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d jobs lost their results", lost, *jobCount)
	}
	return nil
}

// runJob drives one job end to end; shed (429) and routing-unavailable
// (502/503) submissions are retried by the client's backoff helper.
func runJob(ctx context.Context, client *eva.Client, programID, contextID string, batches, seed int) outcome {
	req := eva.JobRequest{ProgramID: programID, ContextID: contextID}
	for b := 0; b < batches; b++ {
		v := float64(seed%7 + b + 1)
		req.Batches = append(req.Batches, eva.ExecuteBatch{
			Values: map[string][]float64{
				"x": {v, v + 1, v + 2, v + 3, v + 4, v + 5, v + 6, v + 7},
				"y": {1, 2, 3, 4, 5, 6, 7, 8},
			},
		})
	}
	start := time.Now()
	var status eva.JobStatusInfo
	retries := 0
	err := client.DoWithRetry(ctx,
		eva.RetryPolicy{MaxAttempts: -1, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second},
		func(ctx context.Context) error {
			res, err := client.Submit(ctx, req.ProgramID, req.ContextID, req.Batches, eva.SubmitOptions{})
			status = res.Job
			return err
		},
		func(attempt int, err error) { retries++ })
	if err != nil {
		return outcome{retries: retries, err: fmt.Errorf("submit: %w", err)}
	}
	// Wait and fetch; a 409 on fetch means a cluster router (under -addr)
	// requeued the job after its node died between "done" and the fetch —
	// wait again.
	for {
		final, err := client.WaitJob(ctx, status.JobID)
		if err != nil {
			return outcome{retries: retries, err: fmt.Errorf("wait: %w", err)}
		}
		if final.Status != "done" {
			return outcome{retries: retries, err: fmt.Errorf("terminal status %q: %s", final.Status, final.Error)}
		}
		res, err := client.FetchJobResult(ctx, status.JobID)
		if err != nil {
			if apiErr, ok := err.(*eva.APIError); ok && apiErr.Status == http.StatusConflict {
				continue
			}
			return outcome{retries: retries, err: fmt.Errorf("fetch: %w", err)}
		}
		if len(res.Results) != batches {
			return outcome{retries: retries, err: fmt.Errorf("%d results; want %d", len(res.Results), batches)}
		}
		for i, br := range res.Results {
			if br.Error != "" {
				return outcome{retries: retries, err: fmt.Errorf("batch %d: %s", i, br.Error)}
			}
			out := br.Values["out"]
			if len(out) == 0 || math.IsNaN(out[0]) {
				return outcome{retries: retries, err: fmt.Errorf("batch %d: missing output", i)}
			}
		}
		return outcome{latency: time.Since(start), wait: final.WaitMillis, retries: retries}
	}
}

// outcome is the result of driving one job end to end.
type outcome struct {
	latency time.Duration
	wait    float64
	retries int
	err     error
}

// runCoalesceBench drives coalesceSource through the plain jobs API (the
// unbatched baseline) and then through POST /jobs?coalesce=1, verifying
// every caller's decrypted output against the cleartext reference, and
// reports amortized per-request latency percentiles, throughput, and the
// coalesced-over-unbatched speedup.
func runCoalesceBench(ctx context.Context, stdout io.Writer, client *eva.Client, jobCount, concurrency int) error {
	comp, err := client.Compile(ctx, eva.CompileRequest{
		Source:  coalesceSource,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	ectx, err := client.NewKeygenContext(ctx, comp.ID, 42)
	if err != nil {
		return fmt.Errorf("context (the server must run -demo): %w", err)
	}
	fmt.Fprintf(stdout, "coalesce bench: program %s, context %s, %d requests, concurrency %d\n",
		comp.ID, ectx.ContextID, jobCount, concurrency)

	// inputs gives caller i its own width-8 vectors; check verifies a
	// caller's decrypted slice against the cleartext (x²+y)·0.5 within the
	// CKKS approximation tolerance — co-batched callers must come back with
	// exactly their own data.
	inputs := func(i int) (x, y []float64) {
		x, y = make([]float64, 8), make([]float64, 8)
		for k := range x {
			x[k] = float64(i%7+1) + float64(k)*0.25
			y[k] = float64(k + 1)
		}
		return
	}
	check := func(i int, out []float64) error {
		x, y := inputs(i)
		if len(out) < len(x) {
			return fmt.Errorf("request %d: %d output slots; want >= %d", i, len(out), len(x))
		}
		for k := range x {
			want := (x[k]*x[k] + y[k]) * 0.5
			if math.Abs(out[k]-want) > 1e-2 {
				return fmt.Errorf("request %d slot %d: got %v, want %v", i, k, out[k], want)
			}
		}
		return nil
	}
	request := func(i int) eva.JobRequest {
		x, y := inputs(i)
		return eva.JobRequest{
			ProgramID: comp.ID,
			ContextID: ectx.ContextID,
			Batches:   []eva.ExecuteBatch{{Values: map[string][]float64{"x": x, "y": y}}},
		}
	}
	retry := eva.RetryPolicy{MaxAttempts: -1, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second}

	// Phase 1: unbatched baseline — one full job per request.
	baseLat, baseElapsed, err := drivePhase(ctx, jobCount, concurrency, func(ctx context.Context, i int) error {
		req := request(i)
		var status eva.JobStatusInfo
		err := client.DoWithRetry(ctx, retry, func(ctx context.Context) error {
			res, err := client.Submit(ctx, req.ProgramID, req.ContextID, req.Batches, eva.SubmitOptions{})
			status = res.Job
			return err
		}, nil)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		final, err := client.WaitJob(ctx, status.JobID)
		if err != nil {
			return fmt.Errorf("wait: %w", err)
		}
		if final.Status != "done" {
			return fmt.Errorf("terminal status %q: %s", final.Status, final.Error)
		}
		res, err := client.FetchJobResult(ctx, status.JobID)
		if err != nil {
			return fmt.Errorf("fetch: %w", err)
		}
		if len(res.Results) != 1 {
			return fmt.Errorf("%d results; want 1", len(res.Results))
		}
		if res.Results[0].Error != "" {
			return fmt.Errorf("batch: %s", res.Results[0].Error)
		}
		return check(i, res.Results[0].Values["out"])
	})
	if err != nil {
		return fmt.Errorf("unbatched phase: %w", err)
	}
	baseTput := float64(jobCount) / baseElapsed.Seconds()
	fmt.Fprintf(stdout, "unbatched: %d requests in %.2fs (%.1f req/s)  p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		jobCount, baseElapsed.Seconds(), baseTput,
		ms(pct(baseLat, 0.50)), ms(pct(baseLat, 0.90)), ms(pct(baseLat, 0.99)))

	// Phase 2: coalesced — concurrent callers share batched executions; each
	// call blocks until its batch ran, so its wall time IS the amortized
	// per-request latency.
	coalLat, coalElapsed, err := drivePhase(ctx, jobCount, concurrency, func(ctx context.Context, i int) error {
		req := request(i)
		var resp eva.CoalesceResponse
		err := client.DoWithRetry(ctx, retry, func(ctx context.Context) error {
			res, err := client.Submit(ctx, req.ProgramID, req.ContextID, req.Batches, eva.SubmitOptions{Coalesce: true})
			if err == nil {
				resp = *res.Coalesced
			}
			return err
		}, nil)
		if err != nil {
			return fmt.Errorf("submit: %w", err)
		}
		if resp.Result.Error != "" {
			return fmt.Errorf("batch %s: %s", resp.BatchJobID, resp.Result.Error)
		}
		return check(i, resp.Result.Values["out"])
	})
	if err != nil {
		return fmt.Errorf("coalesced phase: %w", err)
	}
	coalTput := float64(jobCount) / coalElapsed.Seconds()
	fmt.Fprintf(stdout, "coalesced: %d requests in %.2fs (%.1f req/s)  amortized p50 %.1fms  p90 %.1fms  p99 %.1fms\n",
		jobCount, coalElapsed.Seconds(), coalTput,
		ms(pct(coalLat, 0.50)), ms(pct(coalLat, 0.90)), ms(pct(coalLat, 0.99)))
	fmt.Fprintf(stdout, "speedup: %.1fx throughput over unbatched\n", coalTput/baseTput)

	if resp, err := client.DoRaw(ctx, http.MethodGet, "/metrics", nil, nil); err == nil {
		defer resp.Body.Close()
		var rep serve.MetricsReport
		if json.NewDecoder(resp.Body).Decode(&rep) == nil && rep.Coalesce != nil {
			cs := rep.Coalesce
			fmt.Fprintf(stdout, "server coalesce metrics: %d batches for %d requests (mean size %.1f), slot occupancy %.2f, amortized %.1fms/request\n",
				cs.Batches, cs.Requests, cs.MeanBatchSize, cs.Occupancy, cs.AmortizedRequestMS)
		}
	}
	return nil
}

// drivePhase runs jobCount requests through one at the given concurrency and
// returns the sorted per-request latencies plus the phase's wall time. Any
// request failure fails the whole phase — this is a correctness smoke as
// much as a benchmark.
func drivePhase(ctx context.Context, jobCount, concurrency int, one func(ctx context.Context, i int) error) ([]time.Duration, time.Duration, error) {
	latencies := make([]time.Duration, jobCount)
	errs := make([]error, jobCount)
	sem := make(chan struct{}, max(1, concurrency))
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < jobCount; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			reqStart := time.Now()
			errs[i] = one(ctx, i)
			latencies[i] = time.Since(reqStart)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return nil, elapsed, fmt.Errorf("request %d: %w", i, err)
		}
	}
	sort.Slice(latencies, func(a, b int) bool { return latencies[a] < latencies[b] })
	return latencies, elapsed, nil
}

// pct returns the q-quantile of an ascending-sorted slice (nearest-rank).
func pct[T time.Duration | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
