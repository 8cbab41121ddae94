package cluster

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/obs"
)

// TestClusterTracePropagation: a job submitted through a node that does NOT
// own its context answers with the ingress trace id, and the owner's span
// tree — fetched through the cluster's GET /jobs/{id}/trace proxy — carries
// that same trace id, the forwarded-from marker, and the queue/execute
// phases. Several jobs run concurrently so -race exercises the tracer under
// contention.
func TestClusterTracePropagation(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	nodes := startTestCluster(t, 3, 1)
	programID, contextID := compileAndContext(t, ctx, nodes[0])

	candidates := nodes[0].cluster.contextCandidates(contextID)
	ownerID := candidates[0]
	owner := nodeByID(nodes, ownerID)
	var router *testNode
	for _, n := range nodes {
		if n.id != ownerID {
			router = n
			break
		}
	}
	if owner == nil || router == nil {
		t.Fatalf("no router distinct from owner %s", ownerID)
	}

	batches := []eva.ExecuteBatch{clusterBatch}

	const jobs = 4
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := router.client.Submit(ctx, programID, contextID, batches, eva.SubmitOptions{})
			if err != nil {
				t.Errorf("submit via %s: %v", router.id, err)
				return
			}
			st := sub.Job
			if st.TraceID == "" {
				t.Errorf("job %s: no trace id in the submit response", st.JobID)
				return
			}
			final, err := router.client.WaitJob(ctx, st.JobID)
			if err != nil || final.Status != "done" {
				t.Errorf("job %s: wait: %v (status %+v)", st.JobID, err, final)
				return
			}
			if _, err := router.client.FetchJobResult(ctx, st.JobID); err != nil {
				t.Errorf("job %s: fetch: %v", st.JobID, err)
				return
			}

			// The trace proxy must resolve the routed id to the worker and
			// hand back the ingress trace.
			tr, err := router.client.FetchJobTrace(ctx, st.JobID)
			if err != nil {
				t.Errorf("job %s: trace: %v", st.JobID, err)
				return
			}
			if tr.TraceID != st.TraceID {
				t.Errorf("job %s: owner trace id %q; want ingress id %q", st.JobID, tr.TraceID, st.TraceID)
			}
			if tr.JobID != st.JobID {
				t.Errorf("trace names job %q; want the cluster id %q", tr.JobID, st.JobID)
			}
			if tr.Node != ownerID {
				t.Errorf("trace recorded on node %q; want owner %q", tr.Node, ownerID)
			}

			names := map[string]int{}
			forwardedFrom := ""
			var walk func(spans []obs.SpanJSON)
			walk = func(spans []obs.SpanJSON) {
				for _, sp := range spans {
					names[sp.Name]++
					if sp.Name == "route:jobs_submit" && sp.Attrs["forwarded_from"] != "" {
						forwardedFrom = sp.Attrs["forwarded_from"]
					}
					walk(sp.Children)
				}
			}
			walk(tr.Spans)
			for _, want := range []string{"route:jobs_submit", "queue_wait", "execute", "store_write"} {
				if names[want] == 0 {
					t.Errorf("job %s: span %q missing from the owner's tree (have %v)", st.JobID, want, names)
				}
			}
			if forwardedFrom != router.id {
				t.Errorf("job %s: forwarded_from = %q; want router %q", st.JobID, forwardedFrom, router.id)
			}
		}()
	}
	wg.Wait()

	// The router's own ring also finished an ingress trace per submission.
	recent := router.srv.Tracer().Recent(0, 32)
	if len(recent) == 0 {
		t.Error("router finished no ingress traces")
	}

	// A plain (non-routed) trace request still works through the cluster
	// handler's fallthrough, and unknown ids 404.
	resp, err := http.Get(router.url + "/jobs/" + router.id + "~doesnotexist/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("trace of unknown routed job: status %d; want 404", resp.StatusCode)
	}
}
