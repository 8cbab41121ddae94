package main

import (
	"io"
	"testing"

	"eva/eva"
)

// fakeWorkload computes serveSource in cleartext and, when corrupt is set,
// damages one slot of the "program output" before the checker sees it.
type fakeWorkload struct {
	corrupt bool
}

func (f *fakeWorkload) clients() int                            { return 1 }
func (f *fakeWorkload) tailPercentile() float64                 { return 75 }
func (f *fakeWorkload) setup(*tracer) error                     { return nil }
func (f *fakeWorkload) finish() (float64, error)                { return 0, nil }
func (f *fakeWorkload) probes(*tracer, layerMetrics) error      { return nil }
func (f *fakeWorkload) layers(*tracer, layerMetrics, latencies) {}
func (f *fakeWorkload) close()                                  {}
func (f *fakeWorkload) op(_, _ int, _ *tracer, _ int) (float64, error) {
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{8, 7, 6, 5, 4, 3, 2, 1}
	want := serveReference(x, y)
	got := append([]float64(nil), want...)
	if f.corrupt {
		got[5] += 0.5
	}
	return compareOutputs(map[string][]float64{"out": got}, map[string][]float64{"out": want}, serveTolerance)
}

// TestCorruptedSlotFailsTheRun corrupts one output slot and expects the
// operation counted failed and a non-zero exit code.
func TestCorruptedSlotFailsTheRun(t *testing.T) {
	for _, corrupt := range []bool{false, true} {
		res, err := runWorkload(config{workload: "fake", tiny: true, table: io.Discard}, &fakeWorkload{corrupt: corrupt})
		if err != nil {
			t.Fatal(err)
		}
		if res.Attempted != 1 {
			t.Fatalf("attempted = %d; want 1", res.Attempted)
		}
		if corrupt {
			if res.Failed != 1 || res.Correct || res.exitCode() == 0 {
				t.Errorf("corrupted slot: failed=%d correct=%v exit=%d; want 1, false, non-zero", res.Failed, res.Correct, res.exitCode())
			}
			if got := res.Metrics["throughput_ops_s"].Value; got != 0 {
				t.Errorf("a failed operation counted towards throughput: %g", got)
			}
		} else if res.Failed != 0 || !res.Correct || res.exitCode() != 0 {
			t.Errorf("clean run: failed=%d correct=%v exit=%d", res.Failed, res.Correct, res.exitCode())
		}
	}
}

// TestCorruptedJobResultFails corrupts one value of one batch of a job
// result, and separately a batch error and a missing batch.
func TestCorruptedJobResultFails(t *testing.T) {
	w := &serveJobs{seed: 7}
	batches, want := w.jobInputs(0, 0)
	clean := func() eva.JobResult {
		var res eva.JobResult
		for b := range batches {
			res.Results = append(res.Results, eva.BatchResult{
				Values: map[string][]float64{"out": append([]float64(nil), want[b]...)},
			})
		}
		return res
	}
	if _, err := checkJobResult(clean(), want); err != nil {
		t.Fatalf("clean result rejected: %v", err)
	}
	res := clean()
	res.Results[1].Values["out"][3] += 1
	e, err := checkJobResult(res, want)
	if err == nil {
		t.Error("corrupted value accepted")
	}
	if e < 1-1e-9 {
		t.Errorf("max_abs_err = %g; the corruption was 1", e)
	}
	res = clean()
	res.Results[0].Error = "boom"
	if _, err := checkJobResult(res, want); err == nil {
		t.Error("batch error accepted")
	}
	res = clean()
	res.Results = res.Results[:1]
	if _, err := checkJobResult(res, want); err == nil {
		t.Error("missing batch accepted")
	}
	res = clean()
	delete(res.Results[0].Values, "out")
	if _, err := checkJobResult(res, want); err == nil {
		t.Error("missing output accepted")
	}
}

// TestToleranceScalesWithMagnitude pins compareOutputs's tolerance rule.
func TestToleranceScalesWithMagnitude(t *testing.T) {
	want := map[string][]float64{"out": {1000, 0}}
	if _, err := compareOutputs(map[string][]float64{"out": {1000.5, 0.5}}, want, 1e-3); err != nil {
		t.Errorf("0.5 off beside a value of 1000 at 1e-3: %v", err)
	}
	if _, err := compareOutputs(map[string][]float64{"out": {1002, 0}}, want, 1e-3); err == nil {
		t.Error("2 off beside a value of 1000 at 1e-3: accepted")
	}
	if _, err := compareOutputs(map[string][]float64{"out": {1000}}, want, 1e-3); err == nil {
		t.Error("short output accepted")
	}
}
