package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/serve"
	"eva/internal/store"
)

// routedJobPutFailingStore refuses every write of a routed-job record while
// failing is set.
type routedJobPutFailingStore struct {
	store.Store
	failing atomic.Bool
}

func (f *routedJobPutFailingStore) Put(kind, id string, data []byte) error {
	if kind == kindRoutedJob && f.failing.Load() {
		return errors.New("disk full")
	}
	return f.Store.Put(kind, id, data)
}

// syncBuffer is a log sink that cluster goroutines and the test share.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRoutedJobAcknowledgedOnlyWhenDurable: a router whose store cannot
// write the routed-job record answers 503 with Retry-After — not a 202 for
// an id a restart forgets — logs at warn and cancels the job it forwarded.
// Once the store recovers, an acknowledged job survives a restart of the
// router onto the same store.
func TestRoutedJobAcknowledgedOnlyWhenDurable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var logs syncBuffer
	st := &routedJobPutFailingStore{Store: store.NewMemory()}
	st.failing.Store(true)
	srv := serve.NewServer(serve.Config{Store: st, NodeID: "solo", AllowServerKeygen: true})
	defer srv.Close()
	c, err := New(srv, Config{Self: "solo", Store: st, probeInterval: -1, Logger: slog.New(slog.NewJSONHandler(&logs, nil))})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	defer ts.Close()
	programID, contextID := compileAndContext(t, ctx, &testNode{id: "solo", client: eva.NewClient(ts.URL)})

	body, err := json.Marshal(serve.JobRequest{ProgramID: programID, ContextID: contextID, Batches: []serve.ExecuteBatch{clusterBatch}})
	if err != nil {
		t.Fatal(err)
	}
	submit := func(t *testing.T) (int, serve.JobStatus) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable && resp.Header.Get("Retry-After") == "" {
			t.Error("503 without Retry-After")
		}
		var js serve.JobStatus
		json.NewDecoder(resp.Body).Decode(&js)
		return resp.StatusCode, js
	}

	if code, _ := submit(t); code != http.StatusServiceUnavailable {
		t.Fatalf("submit with a failing store: %d, want 503", code)
	}
	var warned map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logs.String()), "\n") {
		var rec map[string]any
		if json.Unmarshal([]byte(line), &rec) == nil && strings.HasPrefix(rec["msg"].(string), "routed job refused") {
			warned = rec
		}
	}
	if warned == nil || warned["level"] != "WARN" || !strings.Contains(warned["error"].(string), "disk full") {
		t.Fatalf("no refusal warning with the store's error in the log:\n%s", logs.String())
	}
	// The node took the cancel. It is best effort: a running job stops at
	// its next check, and one that finishes first stays done.
	if warned["cancel_error"] != nil {
		t.Fatalf("cancelling the refused job failed: %v", warned["cancel_error"])
	}
	localID, _ := warned["local_id"].(string)
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		snap, ok := srv.Jobs().Get(localID)
		if !ok {
			t.Fatalf("the refused job %q is unknown to its node", localID)
		}
		if snap.Status == "cancelled" || snap.Status == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the refused job is still %s", snap.Status)
		}
	}
	c.mu.Lock()
	kept := len(c.cjobs)
	c.mu.Unlock()
	if kept != 0 {
		t.Errorf("%d routed-job records kept for a refused job", kept)
	}

	st.failing.Store(false)
	code, js := submit(t)
	if code != http.StatusAccepted {
		t.Fatalf("submit after the store recovered: %d, want 202", code)
	}
	c.Close()
	restarted, err := New(srv, Config{Self: "solo", Store: st, probeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	ts2 := httptest.NewServer(restarted.Handler())
	defer ts2.Close()
	resp, err := http.Get(ts2.URL + "/jobs/" + js.JobID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status of acknowledged job %s after a restart: %d, want 200", js.JobID, resp.StatusCode)
	}
}
