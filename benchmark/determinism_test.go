package main

import (
	"reflect"
	"strings"
	"testing"
)

// exactMetric reports whether a per-layer metric is a count of the compiled
// program or of its execution, which must repeat exactly for a fixed seed.
func exactMetric(name string) bool {
	return strings.HasPrefix(name, "rewrite.") && !strings.HasSuffix(name, "_ms") ||
		strings.HasPrefix(name, "analysis.") && !strings.HasSuffix(name, "_ms") ||
		strings.HasPrefix(name, "ckks.") && strings.HasSuffix(name, "_n") ||
		strings.HasPrefix(name, "ckks.hoisted_") ||
		name == "execute.instructions"
}

// TestCountsRepeat runs every workload twice with one seed and once with
// another: the counts agree across all three, and max_abs_err — a function
// of the generated inputs and keys alone — repeats for the same seed on the
// in-process workloads.
func TestCountsRepeat(t *testing.T) {
	for _, w := range workloadNames {
		a := tinyRun(t, w, 1, true, false).Metrics
		b := tinyRun(t, w, 1, true, true).Metrics
		c := tinyRun(t, w, 2, true, false).Metrics
		exact := 0
		for name := range a {
			if !exactMetric(name) {
				continue
			}
			exact++
			if a[name].Value != b[name].Value || a[name].Value != c[name].Value {
				t.Errorf("%s %s: %g, then %g with the same seed, %g with another", w, name, a[name].Value, b[name].Value, c[name].Value)
			}
		}
		if exact != 19 { // 10 of the compiler, 9 of the execution
			t.Errorf("%s: %d exact metrics found; want 19", w, exact)
		}
		if w == "serve_jobs" {
			continue // two clients race for the server, so job order varies
		}
		const e = "check.max_abs_err"
		if a[e].Value != b[e].Value {
			t.Errorf("%s %s: %g, then %g with the same seed", w, e, a[e].Value, b[e].Value)
		}
		if w != "compile_full" && a[e].Value == c[e].Value {
			t.Errorf("%s %s: %g with seeds 1 and 2; the inputs did not change", w, e, a[e].Value)
		}
	}
}

// TestSeedDrivesInputs checks the generators the test above cannot see
// through max_abs_err: the compiler's images and the jobs' batches.
func TestSeedDrivesInputs(t *testing.T) {
	one, two, again := &compileFull{seed: 1}, &compileFull{seed: 2}, &compileFull{seed: 1}
	for _, w := range []*compileFull{one, two, again} {
		if err := w.setup(nil); err != nil {
			t.Fatal(err)
		}
	}
	if reflect.DeepEqual(one.progs[0].image, two.progs[0].image) {
		t.Error("compile_full: seeds 1 and 2 generate the same image")
	}
	if !reflect.DeepEqual(one.progs[0].image, again.progs[0].image) {
		t.Error("compile_full: seed 1 generates two different images")
	}
	a, _ := (&serveJobs{seed: 1}).jobInputs(0, 0)
	b, _ := (&serveJobs{seed: 2}).jobInputs(0, 0)
	c, _ := (&serveJobs{seed: 1}).jobInputs(0, 0)
	d, _ := (&serveJobs{seed: 1}).jobInputs(1, 0)
	if reflect.DeepEqual(a, b) || reflect.DeepEqual(a, d) {
		t.Error("serve_jobs: another seed or client generates the same batches")
	}
	if !reflect.DeepEqual(a, c) {
		t.Error("serve_jobs: one seed generates two different jobs")
	}
}
