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

func TestBadFlags(t *testing.T) {
	var stdout, stderr strings.Builder
	if err := run([]string{"-definitely-not-a-flag"}, &stdout, &stderr); err == nil {
		t.Fatal("bad flag accepted")
	}
}
