package serve

import (
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"eva/internal/profile"
	"eva/internal/store"
)

// TestProfileEndToEnd: with sampling at every instruction, one executed job
// surfaces in GET /profile (buckets, per-program roll-up), in the Prometheus
// exposition (eva_profile_* families), and — after a flush — in the durable
// store as a kind-"profile" artifact that LoadProfiles can feed to Fit. The
// job runs profile.MinOpSamples batches, so every opcode has the samples Fit
// needs for a coefficient of its own.
func TestProfileEndToEnd(t *testing.T) {
	st := store.NewMemory()
	f := newJobsFixture(t, Config{ProfileSampleRate: 1, Store: st})

	execResp := runJob(t, f.client, f.url, JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   slices.Repeat([]ExecuteBatch{{Values: f.inputs}}, profile.MinOpSamples),
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("execute: %s", execResp.Results[0].Error)
	}

	rep := getJSON[profile.Report](t, f.client, f.url+"/profile")
	if !rep.Enabled || rep.SampleRate != 1 {
		t.Fatalf("report enabled=%v rate=%d; want enabled at rate 1", rep.Enabled, rep.SampleRate)
	}
	if rep.Executions == 0 || rep.Instructions == 0 || rep.Samples == 0 {
		t.Fatalf("empty report after execute: %+v", rep)
	}
	if rep.Samples != rep.Instructions {
		t.Errorf("rate 1 sampled %d of %d instructions", rep.Samples, rep.Instructions)
	}
	if len(rep.Buckets) == 0 {
		t.Fatal("report has no buckets")
	}
	ops := map[string]bool{}
	for _, b := range rep.Buckets {
		ops[b.Op] = true
		if b.Count == 0 || b.TotalNS < 0 {
			t.Errorf("bucket %s/L%d: count=%d total_ns=%v", b.Op, b.Level, b.Count, b.TotalNS)
		}
	}
	// The e2e program squares (multiply+relinearize+rescale) and rotates.
	for _, op := range []string{"MULTIPLY", "RELINEARIZE", "RESCALE", "ROTATE_LEFT"} {
		if !ops[op] {
			t.Errorf("no bucket for op %s (have %v)", op, ops)
		}
	}
	found := false
	for _, ps := range rep.Programs {
		if ps.ProgramID == f.programID {
			found = true
			if ps.Samples == 0 {
				t.Error("program roll-up has zero samples")
			}
		}
	}
	if !found {
		t.Errorf("program %s missing from report programs %v", f.programID, rep.Programs)
	}
	// Real executions match the compiler's scale/level expectations exactly:
	// the flight recorder must not cry wolf.
	if rep.DriftCounts[profile.DriftKindLevel] != 0 || rep.DriftCounts[profile.DriftKindScale] != 0 {
		t.Errorf("spurious level/scale drift on a healthy execution: %v", rep.DriftCounts)
	}

	// The same aggregates are exported as Prometheus families.
	promResp, err := f.client.Get(f.url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, fam := range []string{"eva_profile_executions_total", "eva_profile_samples_total", "eva_profile_op_duration_seconds"} {
		if !strings.Contains(body, fam) {
			t.Errorf("prometheus exposition missing %s", fam)
		}
	}

	// Flush persists the per-program profile; the calibration pass can load
	// and fit it.
	f.srv.Profiles().Flush()
	profiles, err := profile.LoadProfiles(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 1 || profiles[0].ProgramID != f.programID {
		t.Fatalf("store holds %d profiles; want the executed program's", len(profiles))
	}
	cal, err := profile.Fit(profiles)
	if err != nil {
		t.Fatalf("fit on persisted profile: %v", err)
	}
	if len(cal.NsPerUnit) == 0 || cal.BaselineNsPerUnit <= 0 {
		t.Fatalf("degenerate calibration from persisted profile: %+v", cal)
	}
}

// TestProfileDisabled: a negative sample rate turns the recorder off without
// touching the execution path, and /profile reports it honestly.
func TestProfileDisabled(t *testing.T) {
	f := newJobsFixture(t, Config{ProfileSampleRate: -1})
	execResp := runJob(t, f.client, f.url, JobRequest{
		ProgramID: f.programID,
		ContextID: f.contextID,
		Batches:   []ExecuteBatch{{Values: f.inputs}},
	})
	if execResp.Results[0].Error != "" {
		t.Fatalf("execute with profiler off: %s", execResp.Results[0].Error)
	}
	rep := getJSON[profile.Report](t, f.client, f.url+"/profile")
	if rep.Enabled || rep.Samples != 0 || len(rep.Buckets) != 0 {
		t.Fatalf("disabled profiler still recorded: %+v", rep)
	}
}

// TestCompilePredictedMillis: once a calibration is installed, /compile
// responses carry a calibrated wall-time estimate for the program.
func TestCompilePredictedMillis(t *testing.T) {
	ts, srv := newTestServer(t, Config{})
	client := ts.Client()

	comp, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: status %d", resp.StatusCode)
	}
	if comp.PredictedMillis != 0 {
		t.Errorf("uncalibrated compile predicted %vms; want omitted", comp.PredictedMillis)
	}

	srv.Profiles().SetCalibration(&profile.Calibration{
		BaselineNsPerUnit: 0.5,
		NsPerUnit:         map[string]float64{"MULTIPLY": 1.25},
		Samples:           1000,
	})
	comp2, resp := postJSON[CompileResponse](t, client, ts.URL+"/compile", compileRequest(t, e2eProgram(t)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompile: status %d", resp.StatusCode)
	}
	if comp2.PredictedMillis <= 0 {
		t.Fatal("calibrated compile carries no predicted_ms")
	}
}

// TestProfileCalibrationLoadedAtStartup: a calibration persisted in the store
// is installed when the server starts, and shows up in /profile.
func TestProfileCalibrationLoadedAtStartup(t *testing.T) {
	st := store.NewMemory()
	cal := &profile.Calibration{
		BaselineNsPerUnit: 2,
		NsPerUnit:         map[string]float64{"RESCALE": 7},
		Samples:           64,
	}
	if err := profile.SaveCalibration(st, cal); err != nil {
		t.Fatal(err)
	}
	ts, _ := newTestServer(t, Config{Store: st})
	rep := getJSON[profile.Report](t, ts.Client(), ts.URL+"/profile")
	if rep.Calibration == nil {
		t.Fatal("server did not load the stored calibration")
	}
	if rep.Calibration.NsPerUnit["RESCALE"] != 7 || rep.Calibration.Samples != 64 {
		t.Fatalf("loaded calibration mangled: %+v", rep.Calibration)
	}
}
