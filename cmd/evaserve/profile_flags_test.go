package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eva/eva"
	"eva/internal/profile"
	"eva/internal/serve"
)

const profileTestProgram = `program profsmoke vec=8;
input x @30;
input y @30;
s = x * x + y;
out = rotl(s, 1) * 0.5@30;
output out @30;`

// startNode boots evaserve with the given extra flags and returns its address
// and a shutdown function that waits for a clean exit.
func startNode(t *testing.T, extra ...string) (string, func()) {
	t.Helper()
	sig := make(chan os.Signal, 1)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() {
		done <- run(args, io.Discard, io.Discard, sig, func(addr string) { addrCh <- addr })
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("server exited before starting: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server did not start")
	}
	return addr, func() {
		sig <- os.Interrupt
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("shutdown: %v", err)
			}
		case <-time.After(15 * time.Second):
			t.Fatal("server did not shut down")
		}
	}
}

// runDemoBatch compiles the smoke program, installs a demo context, and
// runs one batch against the node as a job.
func runDemoBatch(t *testing.T, addr string) {
	t.Helper()
	ctx := context.Background()
	c := eva.NewClient("http://" + addr)
	comp, err := c.Compile(ctx, eva.CompileRequest{
		Source:  profileTestProgram,
		Options: &serve.CompileOptionsJSON{AllowInsecure: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ectx, err := c.NewKeygenContext(ctx, comp.ID, 11)
	if err != nil {
		t.Fatal(err)
	}
	sub, err := c.Submit(ctx, comp.ID, ectx.ContextID, []eva.ExecuteBatch{{Values: map[string][]float64{
		"x": {1, 2, 3, 4, 5, 6, 7, 8},
		"y": {8, 7, 6, 5, 4, 3, 2, 1},
	}}}, eva.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.WaitResult(ctx, sub.Job.JobID)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Results[0].Error != "" {
		t.Fatalf("execute: %+v", res)
	}
}

func fetchProfile(t *testing.T, addr string) profile.Report {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/profile")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep profile.Report
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCalibrateFlow is the operator walkthrough end to end: run a durable
// node with full sampling, execute a batch, shut down (flushing profiles),
// fit a calibration offline with -calibrate, and check a restarted node
// loads it — and that -calibration FILE installs the same fit on a fresh
// non-durable node.
func TestCalibrateFlow(t *testing.T) {
	dir := t.TempDir()

	addr, shutdown := startNode(t, "-demo", "-data-dir", dir, "-profile-sample", "1")
	runDemoBatch(t, addr)
	rep := fetchProfile(t, addr)
	if !rep.Enabled || rep.Samples == 0 {
		t.Fatalf("profiler recorded nothing: %+v", rep)
	}
	shutdown()

	// Offline calibration pass: fits, saves, prints, exits.
	var out strings.Builder
	if err := run([]string{"-calibrate", "-data-dir", dir}, &out, io.Discard, nil, nil); err != nil {
		t.Fatalf("-calibrate: %v", err)
	}
	var cal profile.Calibration
	if err := json.Unmarshal([]byte(out.String()), &cal); err != nil {
		t.Fatalf("-calibrate printed %q: %v", out.String(), err)
	}
	if cal.Samples == 0 || cal.BaselineNsPerUnit <= 0 {
		t.Fatalf("degenerate fit: %+v", cal)
	}

	// A restarted durable node loads the saved calibration.
	addr2, shutdown2 := startNode(t, "-demo", "-data-dir", dir, "-profile-sample", "1")
	if rep := fetchProfile(t, addr2); rep.Calibration == nil || rep.Calibration.Samples != cal.Samples {
		t.Fatalf("restarted node did not load calibration: %+v", rep.Calibration)
	}
	shutdown2()

	// -calibration FILE installs the fit without a data dir.
	calFile := filepath.Join(dir, "fit.json")
	if err := os.WriteFile(calFile, []byte(out.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	addr3, shutdown3 := startNode(t, "-demo", "-calibration", calFile)
	defer shutdown3()
	if rep := fetchProfile(t, addr3); rep.Calibration == nil || rep.Calibration.Samples != cal.Samples {
		t.Fatalf("-calibration file not installed: %+v", rep.Calibration)
	}
}

// TestCalibrateRequiresDataDir: the offline pass refuses to run without a
// store to read profiles from.
func TestCalibrateRequiresDataDir(t *testing.T) {
	err := run([]string{"-calibrate"}, io.Discard, io.Discard, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "-data-dir") {
		t.Fatalf("want -data-dir error, got %v", err)
	}
}

// TestProfileSampleOff: -profile-sample -1 disables the recorder.
func TestProfileSampleOff(t *testing.T) {
	addr, shutdown := startNode(t, "-demo", "-profile-sample", "-1")
	defer shutdown()
	runDemoBatch(t, addr)
	if rep := fetchProfile(t, addr); rep.Enabled || rep.Samples != 0 {
		t.Fatalf("disabled profiler recorded: %+v", rep)
	}
}
