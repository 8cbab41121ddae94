package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"

	"eva/internal/profile"
	"eva/internal/serve"
)

// doLocal sends a request straight to one node's local serve layer by
// setting the forwarded header, bypassing cluster routing — the way a peer's
// forwarded request arrives. It lets the test place executions (and so
// profiler samples) on a specific node regardless of ring ownership.
func doLocal[T any](t *testing.T, node *testNode, method, path string, body any) T {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, node.url+path, &buf)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(headerForwarded, "test")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s on %s: status %d: %s", method, path, node.id, resp.StatusCode, data)
	}
	var out T
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatalf("%s %s on %s: %v in %s", method, path, node.id, err, data)
	}
	return out
}

// TestClusterProfileScatter: every node records its own samples; GET
// /profile?scope=cluster from any node returns the per-node reports plus a
// merged view whose counters are exactly the sum — each instruction sampled
// by one node, never double-counted.
func TestClusterProfileScatter(t *testing.T) {
	nodes := startTestCluster(t, 3, 0)

	// Run one batch locally on EVERY node (forwarded header bypasses
	// routing), so all three collectors hold samples.
	var programID string
	for i, node := range nodes {
		comp := doLocal[serve.CompileResponse](t, node, http.MethodPost, "/compile", serve.CompileRequest{
			Source:  clusterProgram,
			Options: &serve.CompileOptionsJSON{AllowInsecure: true},
		})
		programID = comp.ID
		ectx := doLocal[serve.ContextResponse](t, node, http.MethodPost, "/contexts", serve.ContextRequest{
			ProgramID: comp.ID,
			Keygen:    &serve.KeygenJSON{Seed: uint64(100 + i)},
		})
		job := doLocal[serve.JobStatus](t, node, http.MethodPost, "/jobs", serve.JobRequest{
			ProgramID: comp.ID,
			ContextID: ectx.ContextID,
			Batches:   []serve.ExecuteBatch{clusterBatch},
		})
		// A job submitted past routing keeps a plain id, which every node
		// serves locally.
		exec, err := node.client.WaitResult(context.Background(), job.JobID)
		if err != nil {
			t.Fatalf("job on %s: %v", node.id, err)
		}
		if exec.Results[0].Error != "" {
			t.Fatalf("execute on %s: %s", node.id, exec.Results[0].Error)
		}
	}

	// Per-node ground truth via each node's plain /profile.
	var wantSamples, wantExecs, wantMultiply uint64
	perNode := map[string]profile.Report{}
	for _, node := range nodes {
		rep := doLocal[profile.Report](t, node, http.MethodGet, "/profile", nil)
		if rep.Samples == 0 {
			t.Fatalf("node %s recorded no samples", node.id)
		}
		if rep.Node != node.id {
			t.Errorf("node %s reports node id %q", node.id, rep.Node)
		}
		perNode[node.id] = rep
		wantSamples += rep.Samples
		wantExecs += rep.Executions
		for _, b := range rep.Buckets {
			if b.Op == "MULTIPLY" {
				wantMultiply += b.Count
			}
		}
	}

	// Scatter-gather through the first node, no forwarded header.
	resp, err := http.Get(nodes[0].url + "/profile?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scatter: status %d", resp.StatusCode)
	}
	var scatter struct {
		Scope  string                    `json:"scope"`
		Nodes  map[string]profile.Report `json:"nodes"`
		Merged profile.Report            `json:"merged"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&scatter); err != nil {
		t.Fatal(err)
	}
	if scatter.Scope != "cluster" {
		t.Fatalf("scope %q; want cluster", scatter.Scope)
	}
	if len(scatter.Nodes) != 3 {
		t.Fatalf("scatter covered %d nodes; want 3", len(scatter.Nodes))
	}
	for id, want := range perNode {
		if got := scatter.Nodes[id].Samples; got != want.Samples {
			t.Errorf("node %s scatter samples %d != local %d", id, got, want.Samples)
		}
	}

	m := scatter.Merged
	if m.Samples != wantSamples || m.Executions != wantExecs {
		t.Errorf("merged samples=%d execs=%d; want %d/%d", m.Samples, m.Executions, wantSamples, wantExecs)
	}
	var gotMultiply uint64
	for _, b := range m.Buckets {
		if b.Op == "MULTIPLY" {
			gotMultiply += b.Count
		}
	}
	if gotMultiply != wantMultiply {
		t.Errorf("merged MULTIPLY count %d; want sum %d", gotMultiply, wantMultiply)
	}
	// The shared program appears once in the merged per-program roll-up,
	// carrying all three nodes' executions.
	var progExecs uint64
	matches := 0
	for _, ps := range m.Programs {
		if ps.ProgramID == programID {
			matches++
			progExecs = ps.Executions
		}
	}
	if matches != 1 {
		t.Fatalf("program appears %d times in merged roll-up; want once", matches)
	}
	if progExecs != wantExecs {
		t.Errorf("merged program executions %d; want %d", progExecs, wantExecs)
	}

	// A downed node degrades to an error entry without failing the scatter.
	nodes[2].kill()
	nodes[0].cluster.markDown(nodes[2].id, fmt.Errorf("killed by test"))
	resp2, err := http.Get(nodes[0].url + "/profile?scope=cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var degraded struct {
		Nodes  map[string]json.RawMessage `json:"nodes"`
		Merged profile.Report             `json:"merged"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(degraded.Nodes[nodes[2].id], []byte("error")) {
		t.Errorf("downed node entry carries no error: %s", degraded.Nodes[nodes[2].id])
	}
	if m2 := degraded.Merged; m2.Samples != wantSamples-perNode[nodes[2].id].Samples {
		t.Errorf("degraded merge samples %d; want %d", m2.Samples, wantSamples-perNode[nodes[2].id].Samples)
	}
}
