package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/handle"
	"eva/internal/serve"
	"eva/internal/store"
)

// clusterProgram matches the opcode mix of the serve e2e program: square
// (relinearize+rescale), rotate (Galois key), cipher-plain arithmetic.
const clusterProgram = `program clustere2e vec=8;
input x @30;
input y @30;
s = x * x + y;
r = rotl(s, 1);
out = (s + r) * 0.5@30;
output out @30;`

var clusterBatch = serve.ExecuteBatch{Values: map[string][]float64{
	"x": {1, 2, 3, 4, 5, 6, 7, 8},
	"y": {8, 7, 6, 5, 4, 3, 2, 1},
}}

// testNode is one in-process cluster member with a real TCP listener.
type testNode struct {
	id      string
	url     string
	store   store.Store
	srv     *serve.Server
	cluster *Cluster
	httpSrv *http.Server
	client  *eva.Client
	killed  bool
}

// kill simulates a crash: the listener closes and every in-flight job dies.
func (n *testNode) kill() {
	n.killed = true
	n.httpSrv.Close()
	n.srv.Close()
	n.cluster.Close()
}

// startTestCluster boots n nodes with static membership. dirs[i], when
// non-empty, backs node i with a filesystem store (otherwise memory).
func startTestCluster(t *testing.T, n int, jobWorkers int) []*testNode {
	t.Helper()
	listeners := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		id := fmt.Sprintf("n%d", i+1)
		st := store.NewMemory()
		srv := serve.NewServer(serve.Config{
			Store:                st,
			NodeID:               id,
			AllowServerKeygen:    true,
			AllowContextTransfer: true,
			JobWorkers:           jobWorkers,
			// Sample every instruction so the profiler scatter tests see
			// deterministic counts.
			ProfileSampleRate: 1,
		})
		peers := map[string]string{}
		for j := range nodes {
			if j != i {
				peers[fmt.Sprintf("n%d", j+1)] = urls[j]
			}
		}
		cl, err := New(srv, Config{
			Self:  id,
			Peers: peers,
			Store: st,
			// Tests drive probes explicitly for determinism.
			probeInterval: -1,
		})
		if err != nil {
			t.Fatal(err)
		}
		httpSrv := &http.Server{Handler: cl.Handler()}
		go httpSrv.Serve(listeners[i])
		nodes[i] = &testNode{
			id: id, url: urls[i], store: st, srv: srv,
			cluster: cl, httpSrv: httpSrv, client: eva.NewClient(urls[i]),
		}
	}
	t.Cleanup(func() {
		for _, node := range nodes {
			if !node.killed {
				node.kill()
			}
		}
	})
	return nodes
}

func nodeByID(nodes []*testNode, id string) *testNode {
	for _, n := range nodes {
		if n.id == id {
			return n
		}
	}
	return nil
}

// compileAndContext compiles the shared program and installs a demo
// context through the given router node.
func compileAndContext(t *testing.T, ctx context.Context, router *testNode) (programID, contextID string) {
	t.Helper()
	comp, err := router.client.Compile(ctx, eva.CompileRequest{
		Source:  clusterProgram,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatalf("compile via %s: %v", router.id, err)
	}
	ectx, err := router.client.NewKeygenContext(ctx, comp.ID, 42)
	if err != nil {
		t.Fatalf("context via %s: %v", router.id, err)
	}
	return comp.ID, ectx.ContextID
}

// TestClusterRoutingAndScatter: any node serves compile and jobs for any
// context (forwarding to the owner), /programs and /metrics aggregate the
// membership, and the forwarded/local counters move.
func TestClusterRoutingAndScatter(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	nodes := startTestCluster(t, 3, 0)
	programID, contextID := compileAndContext(t, ctx, nodes[0])

	// Run a job through every node: owners serve locally, the rest forward.
	var want []float64
	for _, node := range nodes {
		sub, err := node.client.Submit(ctx, programID, contextID, []serve.ExecuteBatch{clusterBatch}, eva.SubmitOptions{})
		if err != nil {
			t.Fatalf("submit via %s: %v", node.id, err)
		}
		res, err := node.client.WaitResult(ctx, sub.Job.JobID)
		if err != nil {
			t.Fatalf("execute via %s: %v", node.id, err)
		}
		if res.Results[0].Error != "" {
			t.Fatalf("execute via %s: %s", node.id, res.Results[0].Error)
		}
		out := res.Results[0].Values["out"]
		if len(out) == 0 {
			t.Fatalf("execute via %s returned no output", node.id)
		}
		if want == nil {
			want = out
		}
		for i := range out {
			if math.Abs(out[i]-want[i]) > 1e-3 {
				t.Fatalf("node %s diverged at [%d]: %v vs %v", node.id, i, out[i], want[i])
			}
		}
	}

	// No node runs a program outside the jobs API.
	resp, err := http.Post(nodes[1].url+"/execute/"+programID, "application/json",
		strings.NewReader(`{"context_id":"`+contextID+`","batches":[{}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound && resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /execute/{id} on a cluster node: status %d, want 404 or 405", resp.StatusCode)
	}

	// The context must live on exactly its candidate nodes' stores.
	candidates := nodes[0].cluster.ContextCandidates(contextID)
	if len(candidates) != 2 {
		t.Fatalf("context candidates = %v, want 2 nodes", candidates)
	}
	for _, cand := range candidates {
		node := nodeByID(nodes, cand)
		if _, err := node.store.Get("context", contextID); err != nil {
			t.Errorf("candidate %s does not hold context %s: %v", cand, contextID, err)
		}
	}

	// Scatter-gather /programs: every node's listing appears.
	resp, err = http.Get(nodes[2].url + "/programs")
	if err != nil {
		t.Fatal(err)
	}
	var perNode []struct {
		Node     string              `json:"node"`
		Programs []serve.ProgramInfo `json:"programs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&perNode); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(perNode) != 3 {
		t.Fatalf("scatter /programs covered %d nodes, want 3", len(perNode))
	}
	holders := 0
	for _, np := range perNode {
		for _, p := range np.Programs {
			if p.ID == programID {
				holders++
			}
		}
	}
	if holders == 0 {
		t.Error("no node reports the compiled program")
	}

	// /metrics carries the cluster section; scope=cluster aggregates.
	resp, err = http.Get(nodes[1].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Cluster Stats        `json:"cluster"`
		Store   *store.Stats `json:"store"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&metrics); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if metrics.Cluster.Self != "n2" || metrics.Cluster.Nodes != 3 {
		t.Errorf("cluster metrics section: %+v", metrics.Cluster)
	}
	if metrics.Store == nil {
		t.Error("metrics store section missing")
	}
	total := uint64(0)
	for _, nodeSide := range nodes {
		st := nodeSide.cluster.Stats()
		for _, v := range st.Forwarded {
			total += v
		}
	}
	if total == 0 {
		t.Error("no requests were forwarded anywhere in a 3-node cluster")
	}

	resp, err = http.Get(nodes[0].url + "/metrics?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	var scoped struct {
		Scope string                     `json:"scope"`
		Nodes map[string]json.RawMessage `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scoped); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if scoped.Scope != "cluster" || len(scoped.Nodes) != 3 {
		t.Errorf("scoped metrics: scope=%q nodes=%d", scoped.Scope, len(scoped.Nodes))
	}
}

// TestClusterOwnerKilledMidJob is the acceptance e2e: jobs are admitted
// through a router, their owner node is killed while they are queued or
// running, and every job must still complete on a surviving replica with
// its result delivered — zero lost results.
func TestClusterOwnerKilledMidJob(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	// One job worker per node serializes the owner's queue so most jobs are
	// still pending when the owner dies.
	nodes := startTestCluster(t, 3, 1)
	programID, contextID := compileAndContext(t, ctx, nodes[0])

	candidates := nodes[0].cluster.ContextCandidates(contextID)
	owner := nodeByID(nodes, candidates[0])
	var router *testNode
	for _, n := range nodes {
		if n.id != owner.id {
			router = n
			break
		}
	}
	t.Logf("context %s: owner %s, replicas %v, router %s", contextID, owner.id, candidates[1:], router.id)

	const jobCount = 6
	batches := []eva.ExecuteBatch{clusterBatch, clusterBatch, clusterBatch, clusterBatch}
	jobIDs := make([]string, jobCount)
	for i := range jobIDs {
		sub, err := router.client.Submit(ctx, programID, contextID, batches, eva.SubmitOptions{})
		if err != nil {
			t.Fatalf("submit %d via %s: %v", i, router.id, err)
		}
		st := sub.Job
		if !strings.Contains(st.JobID, "~") {
			t.Fatalf("job id %q is not cluster-routed", st.JobID)
		}
		jobIDs[i] = st.JobID
	}

	// Kill the owner while the queue drains.
	owner.kill()

	for i, id := range jobIDs {
		final, err := router.client.WaitJob(ctx, id)
		if err != nil {
			t.Fatalf("wait job %d (%s): %v", i, id, err)
		}
		if final.Status != "done" {
			t.Fatalf("job %d (%s): terminal status %q: %s", i, id, final.Status, final.Error)
		}
		var res eva.JobResult
		// A fetch can race a requeue (409); poll until delivered.
		for {
			res, err = router.client.FetchJobResult(ctx, id)
			if err == nil {
				break
			}
			if apiErr, ok := err.(*eva.APIError); ok && apiErr.Status == http.StatusConflict {
				if _, werr := router.client.WaitJob(ctx, id); werr != nil {
					t.Fatalf("re-wait job %d: %v", i, werr)
				}
				continue
			}
			t.Fatalf("fetch job %d (%s): %v", i, id, err)
		}
		if len(res.Results) != len(batches) {
			t.Fatalf("job %d: %d results, want %d", i, len(res.Results), len(batches))
		}
		for bi, br := range res.Results {
			if br.Error != "" {
				t.Fatalf("job %d batch %d: %s", i, bi, br.Error)
			}
			if out := br.Values["out"]; len(out) == 0 || math.IsNaN(out[0]) {
				t.Fatalf("job %d batch %d: missing output", i, bi)
			}
		}
	}

	if st := router.cluster.Stats(); st.Requeues == 0 {
		t.Error("owner died mid-run but the router never requeued a job")
	}
	if !router.cluster.healthy(owner.id) {
		t.Logf("owner %s correctly marked down", owner.id)
	} else {
		t.Error("dead owner still marked healthy on the router")
	}
}

// TestClusterHandlePlacementAndPipeline is the handle-tier e2e: ciphertext
// handles stored through arbitrary nodes are routed to their context's ring
// candidates, fetched by scatter from nodes that do not hold them, deleted
// everywhere by broadcast, and — the acceptance scenario — a handle that
// physically lives on a node outside the executing context's candidate set
// is still resolved when a job referencing it is submitted via a third
// node. A routed two-stage pipeline closes the loop.
func TestClusterHandlePlacementAndPipeline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	nodes := startTestCluster(t, 3, 1)

	// The two stage programs compile with identical options, so they share
	// one parameter chain (same fingerprint) and — with the same keygen
	// seed — identical demo keys; ExtraLevels gives stage 2 the headroom to
	// accept stage 1's rescaled output.
	opts := &serve.CompileOptionsJSON{AllowInsecure: true, MaxRescaleLog: 30, ExtraLevels: 1}
	compile := func(src string) string {
		comp, err := nodes[0].client.Compile(ctx, eva.CompileRequest{Source: src, Options: opts})
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		return comp.ID
	}
	p1 := compile(`program cstage1 vec=8;
input x @30;
input y @30;
out = x * y;
output out @30;`)
	p2 := compile(`program cstage2 vec=8;
input z @30;
out2 = z * 0.5@30;
output out2 @30;`)
	mkctx := func(programID string, via *testNode) string {
		ec, err := via.client.NewKeygenContext(ctx, programID, 7)
		if err != nil {
			t.Fatalf("context for %s via %s: %v", programID, via.id, err)
		}
		return ec.ContextID
	}
	c1 := mkctx(p1, nodes[1])
	c2 := mkctx(p2, nodes[2])

	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	ys := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	want := make([]float64, 8)
	for i := range want {
		want[i] = xs[i] * ys[i] * 0.5
	}

	nonCandidate := func(contextID string) *testNode {
		cands := nodes[0].cluster.ContextCandidates(contextID)
		for _, n := range nodes {
			member := false
			for _, c := range cands {
				if n.id == c {
					member = true
				}
			}
			if !member {
				return n
			}
		}
		t.Fatalf("every node is a candidate of %s", contextID)
		return nil
	}

	// Stage 1 as a routed job with handle output, submitted via a node that
	// does not own c1.
	owner1 := nodes[0].cluster.ContextCandidates(c1)[0]
	var router *testNode
	for _, n := range nodes {
		if n.id != owner1 {
			router = n
			break
		}
	}
	sub, err := router.client.Submit(ctx, p1, c1,
		[]eva.ExecuteBatch{{Values: map[string][]float64{"x": xs, "y": ys}}},
		eva.SubmitOptions{Output: "handle"})
	if err != nil {
		t.Fatalf("submit stage-1 job via %s: %v", router.id, err)
	}
	st := sub.Job
	if fin, err := router.client.WaitJob(ctx, st.JobID); err != nil || fin.Status != "done" {
		t.Fatalf("wait stage-1 job: err=%v status=%q error=%q", err, fin.Status, fin.Error)
	}
	res, err := router.client.FetchJobResult(ctx, st.JobID)
	if err != nil {
		t.Fatalf("fetch stage-1 result: %v", err)
	}
	handleID := res.Results[0].Handles["out"]
	if handleID == "" {
		t.Fatalf("stage-1 job returned no output handle: %+v", res.Results[0])
	}

	// Scatter fetch: a node outside c1's candidate set does not hold the
	// handle and must find it on a peer.
	outsider1 := nonCandidate(c1)
	rec, err := outsider1.client.FetchHandle(ctx, handleID)
	if err != nil {
		t.Fatalf("scatter fetch via %s: %v", outsider1.id, err)
	}
	if rec.Meta.ContextID != c1 || len(rec.Cipher) == 0 {
		t.Fatalf("fetched record: context %q, %d cipher bytes", rec.Meta.ContextID, len(rec.Cipher))
	}

	// Routed store: PUT through the non-owner routes to c1's owner and
	// dedups to the same content address.
	meta, err := outsider1.client.StoreCiphertext(ctx, c1, rec.Cipher)
	if err != nil {
		t.Fatalf("routed store via %s: %v", outsider1.id, err)
	}
	if meta.ID != handleID {
		t.Fatalf("routed store addressed %s, want %s", meta.ID, handleID)
	}

	// Broadcast delete removes every copy; the scatter then misses.
	if err := nodes[2].client.DeleteHandle(ctx, handleID); err != nil {
		t.Fatalf("broadcast delete: %v", err)
	}
	if _, err := nodes[0].client.FetchHandle(ctx, handleID); err == nil {
		t.Fatal("handle still resolvable after broadcast delete")
	}

	// Acceptance scenario: plant the record only on a node outside c2's
	// candidate set, then submit a stage-2 job via a different node. The
	// job routes to c2's owner, whose local registry misses; the serve
	// layer's cluster fetcher must pull the handle from the outsider peer.
	outsider2 := nonCandidate(c2)
	if _, err := outsider2.srv.Handles().Install(&handle.Record{Meta: rec.Meta, Data: rec.Cipher}); err != nil {
		t.Fatalf("planting handle on %s: %v", outsider2.id, err)
	}
	var via *testNode
	for _, n := range nodes {
		if n.id != outsider2.id {
			via = n
			break
		}
	}
	sub2, err := via.client.Submit(ctx, p2, c2,
		[]eva.ExecuteBatch{{Handles: map[string]string{"z": handleID}}},
		eva.SubmitOptions{Output: "values"})
	if err != nil {
		t.Fatalf("submit handle-input job via %s: %v", via.id, err)
	}
	st2 := sub2.Job
	if _, err := via.client.WaitJob(ctx, st2.JobID); err != nil {
		t.Fatalf("wait handle-input job: %v", err)
	}
	res2, err := via.client.FetchJobResult(ctx, st2.JobID)
	if err != nil {
		t.Fatalf("fetch handle-input result: %v", err)
	}
	if res2.Results[0].Error != "" {
		t.Fatalf("handle-input batch failed: %s", res2.Results[0].Error)
	}
	out := res2.Results[0].Values["out2"]
	if len(out) == 0 {
		t.Fatal("handle-chained job returned no decrypted values")
	}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-2 {
			t.Fatalf("handle-chained output[%d] = %v, want %v", i, out[i], want[i])
		}
	}

	// Routed pipeline: both stages in one submit via a node of the client's
	// choosing; the cluster ships every stage's program and context to the
	// executing node and the job id routes like any cluster job.
	pst, err := nodes[2].client.SubmitPipeline(ctx, eva.PipelineRequest{
		Stages: []eva.PipelineStage{
			{ProgramID: p1, ContextID: c1, Inputs: map[string]eva.PipelineInput{
				"x": {Values: xs}, "y": {Values: ys},
			}},
			{ProgramID: p2, ContextID: c2, Inputs: map[string]eva.PipelineInput{
				"z": {Stage: intPtr(0), Output: "out"},
			}, Output: "values"},
		},
	})
	if err != nil {
		t.Fatalf("submit pipeline via %s: %v", nodes[2].id, err)
	}
	if !strings.Contains(pst.JobID, "~") {
		t.Fatalf("pipeline job id %q is not cluster-routed", pst.JobID)
	}
	pres, err := nodes[0].client.WaitResult(ctx, pst.JobID)
	if err != nil {
		t.Fatalf("wait pipeline via %s: %v", nodes[0].id, err)
	}
	if len(pres.Results) != 2 {
		t.Fatalf("pipeline returned %d stage results, want 2", len(pres.Results))
	}
	final := pres.Results[1].Values["out2"]
	for i := range want {
		if math.Abs(final[i]-want[i]) > 1e-2 {
			t.Fatalf("pipeline output[%d] = %v, want %v", i, final[i], want[i])
		}
	}
}

func intPtr(v int) *int { return &v }

// TestRoutedJobSweepConfig: the retention and sweep bounds drive
// sweepRoutedJobs, shrunk through Config's unexported fields so no
// production clocks run in tests, and an unset bound is its constant.
func TestRoutedJobSweepConfig(t *testing.T) {
	srv := serve.NewServer(serve.Config{AllowServerKeygen: true})
	defer srv.Close()
	c, err := New(srv, Config{
		Self:                "solo",
		probeInterval:       -1,
		routedJobRetention:  time.Hour,
		retiredJobRetention: time.Minute,
		sweepInterval:       time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	now := time.Now()
	recs := map[string]*routedJob{
		"live-old":      {Suffix: "live-old", CreatedAt: now.Add(-2 * time.Hour)},
		"live-fresh":    {Suffix: "live-fresh", CreatedAt: now},
		"retired-old":   {Suffix: "retired-old", Delivered: true, CreatedAt: now.Add(-2 * time.Hour), RetiredAt: now.Add(-2 * time.Minute)},
		"retired-fresh": {Suffix: "retired-fresh", Delivered: true, CreatedAt: now, RetiredAt: now},
	}
	c.mu.Lock()
	for k, v := range recs {
		c.cjobs[k] = v
	}
	c.mu.Unlock()

	c.sweepRoutedJobs()

	c.mu.Lock()
	defer c.mu.Unlock()
	for _, gone := range []string{"live-old", "retired-old"} {
		if _, ok := c.cjobs[gone]; ok {
			t.Errorf("record %q survived the sweep", gone)
		}
	}
	for _, kept := range []string{"live-fresh", "retired-fresh"} {
		if _, ok := c.cjobs[kept]; !ok {
			t.Errorf("record %q was swept before its retention expired", kept)
		}
	}

	// The bounds are the documented constants, and a node that sets none
	// of them runs on them.
	if routedJobRetention != 24*time.Hour || retiredJobRetention != 10*time.Minute || sweepInterval != time.Minute {
		t.Errorf("constants = %v/%v/%v, want 24h/10m/1m", routedJobRetention, retiredJobRetention, sweepInterval)
	}
	if replicas != 2 || vnodes != 64 || probeInterval != 2*time.Second || probeTimeout != time.Second {
		t.Errorf("constants = %d replicas, %d vnodes, probe every %v with timeout %v; want 2, 64, 2s, 1s",
			replicas, vnodes, probeInterval, probeTimeout)
	}
	d, err := New(srv, Config{Self: "solo2", probeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.cfg.routedJobRetention != routedJobRetention || d.cfg.retiredJobRetention != retiredJobRetention || d.cfg.sweepInterval != sweepInterval {
		t.Errorf("unset bounds = %v/%v/%v, want the constants",
			d.cfg.routedJobRetention, d.cfg.retiredJobRetention, d.cfg.sweepInterval)
	}
}

// TestClusterProbeRequeuesProactively: the health prober, not a client
// poll, notices a dead owner and moves its jobs.
func TestClusterProbeRequeuesProactively(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	nodes := startTestCluster(t, 3, 1)
	programID, contextID := compileAndContext(t, ctx, nodes[0])
	candidates := nodes[0].cluster.ContextCandidates(contextID)
	owner := nodeByID(nodes, candidates[0])
	var router *testNode
	for _, n := range nodes {
		if n.id != owner.id {
			router = n
			break
		}
	}

	batches := []eva.ExecuteBatch{clusterBatch, clusterBatch, clusterBatch, clusterBatch}
	var ids []string
	for i := 0; i < 3; i++ {
		sub, err := router.client.Submit(ctx, programID, contextID, batches, eva.SubmitOptions{})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		ids = append(ids, sub.Job.JobID)
	}
	owner.kill()

	// One probe cycle must detect the death and requeue without any client
	// touching the jobs.
	router.cluster.Probe(ctx)
	if st := router.cluster.Stats(); st.Requeues == 0 {
		t.Fatal("probe cycle did not requeue jobs off the dead owner")
	}
	for _, id := range ids {
		final, err := router.client.WaitJob(ctx, id)
		if err != nil || final.Status != "done" {
			t.Fatalf("job %s after proactive requeue: %v %s %s", id, err, final.Status, final.Error)
		}
	}
}
