// Command evaload is a load generator for the evaserve jobs API: it drives N
// concurrent asynchronous jobs end to end (submit → stream progress → fetch
// result), retries submissions the server sheds with 429 + Retry-After, and
// prints throughput and latency percentiles. CI's nightly load smoke runs it
// against an in-process server; with -addr it targets a live evaserve
// running in -demo mode.
//
// Usage:
//
//	evaload [-addr http://host:8080] [-jobs 50] [-concurrency 8] [-batches 2]
//	        [-timeout 10m] [-job-workers 2] [-job-queue 64] [-job-memory-mb 8192]
//	        [-coalesce] [-pipeline] [-cluster 0] [-kill-owner] [-trace]
//	        [-profile-sample 0] [-profile]
//
// With -trace, evaload ends the run by fetching the slowest completed job's
// server-side trace (GET /jobs/{id}/trace) and printing its span tree — the
// phase breakdown of where that job's latency went (queue wait, per-opcode
// execution, store write; routing hops in cluster mode).
//
// With -profile, evaload ends the run by fetching the server's
// per-instruction profile (GET /profile; the merged cluster view under
// -cluster), printing the hottest per-opcode buckets and any scale/level/cost
// drift, and fitting a cost-model calibration from the recorded samples; the
// run fails if the profiler recorded nothing or the fit comes back empty.
// -profile-sample sets the in-process server's sampling stride (1 = every
// instruction, as the nightly smoke runs it).
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
// With -pipeline, evaload smokes the encrypted pipeline endpoint: it submits
// a two-stage chain (stage 2 consumes stage 1's output handle server-side),
// verifies the decrypted final result against the cleartext reference, and
// then submits an over-deep chain that the chaining checker must reject at
// submit with a structured 422.
//
// With -cluster N (N >= 2), evaload instead boots an in-process N-node
// evaserve cluster (each node durable in its own temp directory) and drives
// the load through a router node that does not own the test context, so
// every job is forwarded across the ring. Adding -kill-owner kills the
// context's owner node after a quarter of the jobs have finished: the
// surviving replica must absorb the requeued jobs and the run must still
// end with zero lost results — the nightly owner-failover smoke.
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eva/eva"
	"eva/internal/cluster"
	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/serve"
	"eva/internal/store"
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
		clusterN    = fs.Int("cluster", 0, "boot an in-process N-node cluster and drive it through a router (0 = single node)")
		killOwner   = fs.Bool("kill-owner", false, "cluster mode: kill the context owner after 25% of jobs complete")
		coalesce    = fs.Bool("coalesce", false, "benchmark POST /jobs?coalesce=1 against the unbatched jobs API")
		pipeline    = fs.Bool("pipeline", false, "smoke POST /pipelines: a two-stage encrypted chain verified against the cleartext reference, plus an incompatible chain rejected with 422")
		traceFlag   = fs.Bool("trace", false, "after the run, print the slowest job's phase breakdown from its server-side trace")
		profSample  = fs.Int("profile-sample", 0, "in-process server: instruction profiler stride (0 = 16, 1 = all, <0 = off)")
		profFlag    = fs.Bool("profile", false, "after the run, fetch /profile, print the per-opcode breakdown, and fit a calibration from it (fails if the fit is empty)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	if *clusterN != 0 && *addr != "" {
		return fmt.Errorf("-cluster starts its own in-process nodes; drop -addr")
	}
	if *coalesce && *clusterN != 0 {
		return fmt.Errorf("-coalesce measures a single node; drop -cluster")
	}
	if *clusterN != 0 && *clusterN < 2 {
		return fmt.Errorf("-cluster needs at least 2 nodes")
	}
	if *killOwner && *clusterN == 0 {
		return fmt.Errorf("-kill-owner needs -cluster")
	}

	srvCfg := serve.Config{
		AllowServerKeygen:    true,
		JobWorkers:           *jobWorkers,
		JobQueueDepth:        *jobQueue,
		JobMemoryBudgetBytes: *jobMemMB << 20,
		ProfileSampleRate:    *profSample,
	}

	var client *eva.Client
	var nodes []*loadNode
	switch {
	case *clusterN > 0:
		var err error
		if nodes, err = startCluster(stdout, *clusterN, srvCfg); err != nil {
			return err
		}
		defer func() {
			for _, n := range nodes {
				n.stop()
			}
		}()
		client = nodes[0].client // placement is refined after the context exists
	case *addr == "":
		node, err := startNode(srvCfg, "", nil, "")
		if err != nil {
			return err
		}
		defer node.stop()
		nodes = []*loadNode{node}
		client = node.client
		fmt.Fprintf(stdout, "in-process evaserve on %s\n", node.url)
	default:
		client = eva.NewClient(*addr)
	}

	if *coalesce {
		return runCoalesceBench(ctx, stdout, client, *jobCount, *concurrency)
	}
	if *pipeline {
		return runPipelineSmoke(ctx, stdout, client)
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

	// Cluster mode: route the load through a node that does NOT own the
	// context, so every job crosses the ring; with -kill-owner, arm the
	// owner's execution.
	var owner *loadNode
	var completedCount atomic.Int64
	if *clusterN > 0 {
		candidates := nodes[0].cluster.ContextCandidates(ectx.ContextID)
		ownerID := candidates[0]
		isCandidate := map[string]bool{}
		for _, c := range candidates {
			isCandidate[c] = true
		}
		var router *loadNode
		for _, n := range nodes {
			if n.id == ownerID {
				owner = n
			}
			// Prefer a router outside the candidate set so every request
			// crosses the ring; fall back to the replica.
			if n.id != ownerID && (router == nil || !isCandidate[n.id] && isCandidate[router.id]) {
				router = n
			}
		}
		if router == nil || owner == nil {
			return fmt.Errorf("cluster: could not pick a router distinct from owner %s", ownerID)
		}
		client = router.client
		fmt.Fprintf(stdout, "cluster: context %s owned by %s (replicas %v), routing via %s\n",
			ectx.ContextID, ownerID, candidates[1:], router.id)
		if *killOwner {
			threshold := int64(*jobCount / 4)
			go func() {
				for completedCount.Load() < threshold {
					select {
					case <-ctx.Done():
						return
					case <-time.After(10 * time.Millisecond):
					}
				}
				fmt.Fprintf(stdout, "cluster: killing owner %s after %d jobs completed\n", owner.id, completedCount.Load())
				owner.stop()
			}()
		}
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
			if outcomes[i].err == nil {
				completedCount.Add(1)
			}
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
	if *traceFlag {
		slowest := -1
		for i, o := range outcomes {
			if o.err == nil && o.jobID != "" && (slowest < 0 || o.latency > outcomes[slowest].latency) {
				slowest = i
			}
		}
		if slowest >= 0 {
			printJobTrace(ctx, stdout, client, outcomes[slowest].jobID, outcomes[slowest].latency)
		}
	}
	if *profFlag {
		if err := reportProfile(ctx, stdout, client, *clusterN > 0); err != nil {
			return err
		}
	}
	if *clusterN > 0 && *killOwner && owner != nil {
		var requeues uint64
		for _, n := range nodes {
			if n != owner {
				requeues += n.cluster.Stats().Requeues
			}
		}
		fmt.Fprintf(stdout, "cluster: %d jobs requeued off the killed owner\n", requeues)
	}
	if lost > 0 {
		return fmt.Errorf("%d of %d jobs lost their results", lost, *jobCount)
	}
	return nil
}

// loadNode is one in-process evaserve (optionally a cluster member).
type loadNode struct {
	id       string
	url      string
	dataDir  string
	srv      *serve.Server
	cluster  *cluster.Cluster
	httpSrv  *http.Server
	client   *eva.Client
	stopOnce sync.Once // the kill-owner goroutine races the deferred cleanup
}

func (n *loadNode) stop() {
	n.stopOnce.Do(func() {
		n.httpSrv.Close()
		n.srv.Close()
		if n.cluster != nil {
			n.cluster.Close()
		}
		if n.dataDir != "" {
			os.RemoveAll(n.dataDir)
		}
	})
}

// startNode boots one in-process server. When peers is non-empty the node
// joins the cluster under nodeID with a durable store at dataDir.
func startNode(cfg serve.Config, nodeID string, peers map[string]string, dataDir string) (*loadNode, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return startNodeOn(ln, cfg, nodeID, peers, dataDir)
}

func startNodeOn(ln net.Listener, cfg serve.Config, nodeID string, peers map[string]string, dataDir string) (*loadNode, error) {
	var st store.Store
	if dataDir != "" {
		fsStore, err := store.OpenFS(dataDir)
		if err != nil {
			return nil, err
		}
		st = fsStore
	}
	cfg.Store = st
	cfg.NodeID = nodeID
	cfg.AllowContextTransfer = len(peers) > 0
	srv := serve.NewServer(cfg)
	node := &loadNode{
		id:      nodeID,
		url:     "http://" + ln.Addr().String(),
		dataDir: dataDir,
		srv:     srv,
	}
	handler := srv.Handler()
	if len(peers) > 0 {
		cl, err := cluster.New(srv, cluster.Config{Self: nodeID, Peers: peers, Store: st})
		if err != nil {
			return nil, err
		}
		node.cluster = cl
		handler = cl.Handler()
	}
	node.httpSrv = &http.Server{Handler: handler}
	go node.httpSrv.Serve(ln)
	node.client = eva.NewClient(node.url)
	return node, nil
}

// startCluster boots n in-process nodes with static membership, each
// durable in its own temp directory.
func startCluster(stdout io.Writer, n int, cfg serve.Config) ([]*loadNode, error) {
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*loadNode, n)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		peers := map[string]string{}
		for j := range urls {
			if j != i {
				peers[fmt.Sprintf("n%d", j+1)] = urls[j]
			}
		}
		dir, err := os.MkdirTemp("", "evaload-"+id+"-*")
		if err != nil {
			return nil, err
		}
		node, err := startNodeOn(listeners[i], cfg, id, peers, dir)
		if err != nil {
			return nil, err
		}
		nodes[i] = node
		fmt.Fprintf(stdout, "cluster node %s on %s (data %s)\n", id, node.url, dir)
	}
	return nodes, nil
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
	// Wait and fetch; a 409 on fetch means the job was requeued after its
	// node died between "done" and the fetch — wait again.
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
		return outcome{jobID: status.JobID, latency: time.Since(start), wait: final.WaitMillis, retries: retries}
	}
}

// outcome is the result of driving one job end to end.
type outcome struct {
	jobID   string
	latency time.Duration
	wait    float64
	retries int
	err     error
}

// reportProfile fetches the server's instruction-profiler aggregate after
// the run, prints the hottest per-(opcode, level) buckets and any drift, and
// fits a calibration from the recorded samples — failing the run when the
// profiler recorded nothing (the nightly smoke's assertion that the flight
// recorder actually flew).
func reportProfile(ctx context.Context, stdout io.Writer, client *eva.Client, clusterMode bool) error {
	var rep eva.ProfileReport
	if clusterMode {
		cp, err := client.FetchClusterProfile(ctx)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		rep = cp.Merged
	} else {
		var err error
		if rep, err = client.FetchProfile(ctx); err != nil {
			return fmt.Errorf("profile: %w", err)
		}
	}
	fmt.Fprintf(stdout, "profile: %d executions, %d instructions, %d sampled, %d drift events\n",
		rep.Executions, rep.Instructions, rep.Samples, rep.DriftTotal)
	buckets := append([]profile.Bucket(nil), rep.Buckets...)
	sort.Slice(buckets, func(a, b int) bool { return buckets[a].TotalNS > buckets[b].TotalNS })
	for i, b := range buckets {
		if i == 8 {
			fmt.Fprintf(stdout, "  ... %d more buckets\n", len(buckets)-i)
			break
		}
		fmt.Fprintf(stdout, "  %-14s L%-2d n=%-6d mean %8.1fus  max %8.1fus\n",
			b.Op, b.Level, b.Count, b.MeanUS, b.MaxNS/1e3)
	}
	for kind, n := range rep.DriftCounts {
		fmt.Fprintf(stdout, "  drift %s: %d\n", kind, n)
	}
	if rep.Samples == 0 {
		return fmt.Errorf("profile: server recorded no samples (is -profile-sample >= 0?)")
	}
	cal, err := profile.Fit([]profile.ProgramProfile{{
		ProgramID:    "evaload",
		Executions:   rep.Executions,
		Instructions: rep.Instructions,
		Samples:      rep.Samples,
		Buckets:      rep.Buckets,
	}})
	if err != nil {
		return fmt.Errorf("profile: calibration fit: %w", err)
	}
	if len(cal.NsPerUnit) == 0 || cal.BaselineNsPerUnit <= 0 {
		return fmt.Errorf("profile: calibration fit is empty: %+v", cal)
	}
	ops := make([]string, 0, len(cal.NsPerUnit))
	for op := range cal.NsPerUnit {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprintf(stdout, "calibration fit (baseline %.4g ns/unit, %d samples):\n", cal.BaselineNsPerUnit, cal.Samples)
	for _, op := range ops {
		fmt.Fprintf(stdout, "  %-14s %.4g ns/unit\n", op, cal.NsPerUnit[op])
	}
	return nil
}

// printJobTrace fetches a job's server-side trace and prints its span tree —
// the phase breakdown (queue wait vs coalesce wait vs execution vs store
// write) of where the job's latency went.
func printJobTrace(ctx context.Context, stdout io.Writer, client *eva.Client, jobID string, latency time.Duration) {
	tr, err := client.FetchJobTrace(ctx, jobID)
	if err != nil {
		fmt.Fprintf(stdout, "trace: slowest job %s: %v\n", jobID, err)
		return
	}
	fmt.Fprintf(stdout, "slowest job %s: %.1fms client-observed (trace %s, node %s, %.1fms server-side):\n",
		jobID, ms(latency), tr.TraceID, tr.Node, tr.DurationMS)
	var walk func(sp obs.SpanJSON, depth int)
	walk = func(sp obs.SpanJSON, depth int) {
		line := fmt.Sprintf("  %s%s", strings.Repeat("  ", depth), sp.Name)
		fmt.Fprintf(stdout, "%-36s %9.2fms", line, sp.DurationMS)
		if len(sp.Attrs) > 0 {
			keys := make([]string, 0, len(sp.Attrs))
			for k := range sp.Attrs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				fmt.Fprintf(stdout, "  %s=%s", k, sp.Attrs[k])
			}
		}
		fmt.Fprintln(stdout)
		for _, ch := range sp.Children {
			walk(ch, depth+1)
		}
	}
	for _, sp := range tr.Spans {
		walk(sp, 0)
	}
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

// Stage programs of the -pipeline smoke. Both compile with the same options
// (MaxRescaleLog 30 keeps each product's rescale at the 2^30 waterline;
// ExtraLevels 1 adds the headroom the chaining consumes), so they share one
// parameter chain, and with the same keygen seed their demo contexts share
// keys — the conditions under which stage outputs are consumable downstream.
const (
	pipelineStage1 = `program pstage1 vec=8;
input x @30;
input y @30;
out = x * y;
output out @30;`
	pipelineStage2 = `program pstage2 vec=8;
input z @30;
out2 = z * 0.5@30;
output out2 @30;`
)

// runPipelineSmoke drives POST /pipelines end to end: a two-stage encrypted
// chain (stage 2 consumes stage 1's output server-side, zero client-side
// ciphertext round-trips) whose decrypted result must match the cleartext
// reference, then an over-deep chain that must be rejected at submit with a
// structured 422 — the chaining checker working is part of the contract.
func runPipelineSmoke(ctx context.Context, stdout io.Writer, client *eva.Client) error {
	opts := &serve.CompileOptionsJSON{AllowInsecure: true, MaxRescaleLog: 30, ExtraLevels: 1}
	compile := func(src string) (string, error) {
		comp, err := client.Compile(ctx, eva.CompileRequest{Source: src, Options: opts})
		if err != nil {
			return "", fmt.Errorf("compile: %w", err)
		}
		return comp.ID, nil
	}
	p1, err := compile(pipelineStage1)
	if err != nil {
		return err
	}
	p2, err := compile(pipelineStage2)
	if err != nil {
		return err
	}
	mkctx := func(programID string) (string, error) {
		ec, err := client.NewKeygenContext(ctx, programID, 7)
		if err != nil {
			return "", fmt.Errorf("context (the server must run -demo): %w", err)
		}
		return ec.ContextID, nil
	}
	c1, err := mkctx(p1)
	if err != nil {
		return err
	}
	c2, err := mkctx(p2)
	if err != nil {
		return err
	}

	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	stageRef := func(stage int, output string) eva.PipelineInput {
		return eva.PipelineInput{Stage: &stage, Output: output}
	}

	start := time.Now()
	st, err := client.SubmitPipeline(ctx, eva.PipelineRequest{
		Stages: []eva.PipelineStage{
			{ProgramID: p1, ContextID: c1, Inputs: map[string]eva.PipelineInput{
				"x": {Values: xs}, "y": {Values: ys},
			}},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]eva.PipelineInput{
				"z": stageRef(0, "out"),
			}, Output: "values"},
		},
	})
	if err != nil {
		return fmt.Errorf("pipeline submit: %w", err)
	}
	res, err := client.WaitResult(ctx, st.JobID)
	if err != nil {
		return fmt.Errorf("pipeline wait: %w", err)
	}
	if len(res.Results) != 2 {
		return fmt.Errorf("pipeline returned %d stage results; want 2", len(res.Results))
	}
	out := res.Results[1].Values["out2"]
	if len(out) != len(xs) {
		return fmt.Errorf("final stage returned %d values; want %d", len(out), len(xs))
	}
	for i := range xs {
		want := xs[i] * ys[i] * 0.5
		if math.Abs(out[i]-want) > 1e-2 {
			return fmt.Errorf("pipeline output[%d] = %v; cleartext reference %v", i, out[i], want)
		}
	}
	fmt.Fprintf(stdout, "pipeline: 2-stage chain (job %s) verified against the cleartext reference in %.1fms\n",
		st.JobID, ms(time.Since(start)))

	// Negative path: chain until the level budget runs dry; the checker must
	// reject the submission — a mid-run failure here would mean the static
	// check let an impossible chain through.
	deep := eva.PipelineRequest{Stages: []eva.PipelineStage{
		{ProgramID: p1, ContextID: c1, Inputs: map[string]eva.PipelineInput{
			"x": {Values: xs}, "y": {Values: ys},
		}},
	}}
	for i := 1; i <= 3; i++ {
		deep.Stages = append(deep.Stages, eva.PipelineStage{
			ProgramID: p2, ContextID: c2,
			Inputs: map[string]eva.PipelineInput{"z": stageRef(i-1, outputName(i))},
		})
	}
	if _, err := client.SubmitPipeline(ctx, deep); err == nil {
		return fmt.Errorf("over-deep chain was accepted; the chaining checker must reject it at submit")
	} else if apiErr, ok := err.(*eva.APIError); !ok || apiErr.Status != http.StatusUnprocessableEntity {
		return fmt.Errorf("over-deep chain: got %v; want a structured 422", err)
	}
	fmt.Fprintln(stdout, "pipeline: incompatible chain rejected at submit with 422")
	return nil
}

// outputName names stage i's encrypted output in the -pipeline smoke.
func outputName(stage int) string {
	if stage == 1 {
		return "out" // stage 0 is pstage1
	}
	return "out2"
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
