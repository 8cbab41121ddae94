package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestRunServesAndShutsDown is the end-to-end smoke test: bind an ephemeral
// port, hit /healthz over real HTTP, then deliver the shutdown signal and
// check the server exits cleanly.
func TestRunServesAndShutsDown(t *testing.T) {
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0"}, &out, io.Discard, sig, func(addr string) { addrCh <- addr })
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before starting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/healthz", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Fatalf("healthz status %q", health.Status)
	}

	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on clean shutdown", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "listening on") || !strings.Contains(out.String(), "shutting down") {
		t.Errorf("unexpected lifecycle output:\n%s", out.String())
	}
}

// TestRunGracefulDrain: a SIGTERM with a job in flight must drain it —
// the job completes, its result is persisted in the -data-dir store, and
// the process reports a clean drain.
func TestRunGracefulDrain(t *testing.T) {
	dir := t.TempDir()
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-demo", "-data-dir", dir, "-drain-timeout", "30s"},
			&out, io.Discard, sig, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before starting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	base := "http://" + addr

	post := func(path string, body string) map[string]any {
		t.Helper()
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode >= 300 {
			t.Fatalf("POST %s: status %d: %v", path, resp.StatusCode, v)
		}
		return v
	}
	comp := post("/compile", `{"source":"program drain vec=4;\ninput x @30;\nout = x * x;\noutput out @30;","options":{"allow_insecure":true}}`)
	progID, _ := comp["id"].(string)
	ctxResp := post("/contexts", fmt.Sprintf(`{"program_id":%q,"keygen":{"seed":5}}`, progID))
	ctxID, _ := ctxResp["context_id"].(string)
	job := post("/jobs", fmt.Sprintf(`{"program_id":%q,"context_id":%q,"batches":[{"values":{"x":[1,2,3,4]}}]}`, progID, ctxID))
	jobID, _ := job["job_id"].(string)
	if jobID == "" {
		t.Fatalf("no job id in %v", job)
	}

	// Shut down immediately: the drain must let the job finish.
	sig <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v on graceful drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("server did not shut down")
	}
	if !strings.Contains(out.String(), "drained cleanly") {
		t.Errorf("no clean drain reported:\n%s", out.String())
	}

	// The drained job's result must be durable: restart onto the same
	// data-dir and fetch it.
	sig2 := make(chan os.Signal, 1)
	addrCh2 := make(chan string, 1)
	done2 := make(chan error, 1)
	go func() {
		done2 <- run([]string{"-addr", "127.0.0.1:0", "-demo", "-data-dir", dir},
			io.Discard, io.Discard, sig2, func(addr string) { addrCh2 <- addr })
	}()
	select {
	case addr = <-addrCh2:
	case err := <-done2:
		t.Fatalf("restarted server exited: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("restarted server did not start")
	}
	resp, err := http.Get("http://" + addr + "/jobs/" + jobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var result struct {
		Status  string `json:"status"`
		Results []struct {
			Values map[string][]float64 `json:"values"`
		} `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&result); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || result.Status != "done" || len(result.Results) != 1 {
		t.Fatalf("post-restart result fetch: status %d, %+v", resp.StatusCode, result)
	}
	sig2 <- os.Interrupt
	if err := <-done2; err != nil {
		t.Fatalf("restarted server shutdown: %v", err)
	}
}

func TestParsePeers(t *testing.T) {
	peers, err := parsePeers("n2=http://h2:8080, n3=http://h3:8080/")
	if err != nil {
		t.Fatal(err)
	}
	if peers["n2"] != "http://h2:8080" || peers["n3"] != "http://h3:8080" {
		t.Fatalf("parsed %v", peers)
	}
	for _, bad := range []string{"n2", "=url", "n2=", "n2=u,n2=v"} {
		if _, err := parsePeers(bad); err == nil {
			t.Errorf("parsePeers(%q) accepted", bad)
		}
	}
}

func TestRunPeersRequireNodeID(t *testing.T) {
	err := run([]string{"-peers", "n2=http://h2:8080"}, io.Discard, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-node-id") {
		t.Fatalf("err = %v; want a -node-id requirement", err)
	}
}

func TestRunBadFlags(t *testing.T) {
	if err := run([]string{"-nonsense"}, io.Discard, io.Discard, nil, nil); err == nil {
		t.Error("expected an error for an unknown flag")
	}
}

// TestFlagSet pins evaserve's flags: a value only becomes a flag when some
// deployment needs a second value of it, so adding one means adding it here.
func TestFlagSet(t *testing.T) {
	var usage strings.Builder
	if err := run([]string{"-h"}, io.Discard, &usage, nil, nil); err != flag.ErrHelp {
		t.Fatalf("run -h = %v, want flag.ErrHelp", err)
	}
	var got []string
	for _, line := range strings.Split(usage.String(), "\n") {
		if name, ok := strings.CutPrefix(line, "  -"); ok {
			got = append(got, strings.Fields(name)[0])
		}
	}
	want := []string{
		"addr", "calibrate", "calibration", "data-dir", "demo", "drain-timeout",
		"job-memory-mb", "job-queue", "job-workers", "log-format", "log-level",
		"node-id", "peers", "pprof-addr", "profile-sample", "slow-trace",
	}
	if !slices.Equal(got, want) {
		t.Errorf("evaserve flags = %v (%d)\nwant %v (%d)", got, len(got), want, len(want))
	}
}

func TestRunBadAddr(t *testing.T) {
	err := run([]string{"-addr", "256.0.0.1:bad"}, io.Discard, io.Discard, nil, nil)
	if err == nil {
		t.Error("expected an error for an unbindable address")
	}
}

// TestPprofEndpoint boots the server with -pprof-addr on an ephemeral port,
// parses the announced profiler address from stdout, and smoke-tests the
// pprof index and a sample profile. The profiler must NOT be reachable on
// the public API address.
func TestPprofEndpoint(t *testing.T) {
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	var out strings.Builder
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-pprof-addr", "127.0.0.1:0"},
			&out, io.Discard, sig, func(addr string) { addrCh <- addr })
	}()

	var apiAddr string
	select {
	case apiAddr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before starting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	defer func() {
		sig <- os.Interrupt
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}()

	// The pprof line is printed before the started callback fires.
	var pprofAddr string
	for _, line := range strings.Split(out.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "evaserve pprof listening on "); ok {
			pprofAddr = strings.TrimSpace(rest)
		}
	}
	if pprofAddr == "" {
		t.Fatalf("no pprof address announced:\n%s", out.String())
	}

	resp, err := http.Get(fmt.Sprintf("http://%s/debug/pprof/", pprofAddr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: status %d", resp.StatusCode)
	}
	if !strings.Contains(string(body), "goroutine") {
		t.Errorf("pprof index does not list profiles:\n%.300s", body)
	}
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/goroutine?debug=1", pprofAddr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("goroutine profile: status %d", resp.StatusCode)
	}

	// Isolation: the public API must not expose the profiler.
	resp, err = http.Get(fmt.Sprintf("http://%s/debug/pprof/", apiAddr))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Error("profiler reachable on the public API address")
	}
}
