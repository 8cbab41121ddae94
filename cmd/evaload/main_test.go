package main

import (
	"strings"
	"testing"
)

// TestLoadSmoke drives a small in-process load end to end: every job must
// complete and deliver its result.
func TestLoadSmoke(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-jobs", "6", "-concurrency", "3", "-batches", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "completed 6/6 jobs") {
		t.Errorf("missing completion line:\n%s", out)
	}
	if !strings.Contains(out, "0 lost") {
		t.Errorf("missing lost count:\n%s", out)
	}
	if !strings.Contains(out, "latency p50") {
		t.Errorf("missing percentile line:\n%s", out)
	}
}

// TestLoadProfileSmoke is the nightly profiler assertion: with full
// sampling, the post-run profile fetch must show samples and produce a
// non-empty calibration fit. Four jobs of four batches give every opcode the
// 16 samples (profile.MinOpSamples) a coefficient of its own needs.
func TestLoadProfileSmoke(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-jobs", "4", "-concurrency", "2", "-batches", "4",
		"-profile-sample", "1", "-profile"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "profile:") || strings.Contains(out, "0 sampled") {
		t.Errorf("missing profile summary:\n%s", out)
	}
	if !strings.Contains(out, "calibration fit") || !strings.Contains(out, "ns/unit") {
		t.Errorf("missing calibration fit:\n%s", out)
	}
	if !strings.Contains(out, "MULTIPLY") {
		t.Errorf("fit names no opcodes:\n%s", out)
	}
}

// TestLoadSurvivesTinyQueue: with a deliberately starved queue the load
// generator must absorb 429s via Retry-After and still lose nothing.
func TestLoadSurvivesTinyQueue(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-jobs", "8", "-concurrency", "8", "-batches", "1",
		"-job-workers", "1", "-job-queue", "1"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stdout.String(), "completed 8/8 jobs") {
		t.Errorf("not all jobs completed:\n%s", stdout.String())
	}
}

// TestClusterSmoke drives a 3-node in-process cluster through a router
// node: every job crosses the ring and none may be lost.
func TestClusterSmoke(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-cluster", "3", "-jobs", "6", "-concurrency", "3", "-batches", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "completed 6/6 jobs") || !strings.Contains(out, "0 lost") {
		t.Errorf("cluster run incomplete:\n%s", out)
	}
	if !strings.Contains(out, "routing via") {
		t.Errorf("no routing line:\n%s", out)
	}
}

// TestClusterKillOwnerSmoke is the owner-failover smoke: the context's
// owner is killed a quarter of the way through and the run must still lose
// zero results.
func TestClusterKillOwnerSmoke(t *testing.T) {
	var stdout, stderr strings.Builder
	err := run([]string{"-cluster", "3", "-kill-owner", "-jobs", "8", "-concurrency", "4", "-batches", "2"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("run: %v\nstdout: %s\nstderr: %s", err, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "completed 8/8 jobs") || !strings.Contains(out, "0 lost") {
		t.Errorf("kill-owner run incomplete:\n%s", out)
	}
	if !strings.Contains(out, "killing owner") {
		t.Errorf("owner was never killed:\n%s", out)
	}
}

func TestClusterFlagValidation(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-cluster", "1"}, &stdout, &stderr); err == nil {
		t.Error("-cluster 1 accepted")
	}
	if err := run([]string{"-kill-owner"}, &stdout, &stderr); err == nil {
		t.Error("-kill-owner without -cluster accepted")
	}
	if err := run([]string{"-cluster", "3", "-addr", "http://x"}, &stdout, &stderr); err == nil {
		t.Error("-cluster with -addr accepted")
	}
}

func TestBadFlags(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
}
