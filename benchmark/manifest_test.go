package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

const manifestPath = "../BENCHMARK.json"

// TestManifestMatchesRunner is the manifest_invalid guard: BENCHMARK.json
// must satisfy the driver's contract and declare exactly what the runner
// emits.
func TestManifestMatchesRunner(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v; the benchmark lives in benchmark/ alone", m.Paths)
	}
	var names []string
	for _, w := range m.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads = %v; the runner has %v", names, workloadNames)
	}
	var e2e, layers []metricDef
	for _, e := range m.EndToEnd {
		e2e = append(e2e, metricDef{e.Name, e.Unit, e.Better})
	}
	for _, e := range m.PerLayer {
		layers = append(layers, metricDef{e.Name, e.Unit, e.Better})
	}
	if !reflect.DeepEqual(e2e, endToEndMetrics) {
		t.Errorf("end_to_end = %v; the runner emits %v", e2e, endToEndMetrics)
	}
	if !reflect.DeepEqual(layers, perLayerMetrics) {
		t.Errorf("per_layer = %v; the runner emits %v", layers, perLayerMetrics)
	}
}

// TestManifestRejects feeds validate one broken copy of the real manifest
// per rule of the contract.
func TestManifestRejects(t *testing.T) {
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	many := func(n int, entry string) string {
		var parts []string
		for i := 0; i < n; i++ {
			parts = append(parts, fmt.Sprintf(entry, i))
		}
		return "[" + strings.Join(parts, ",") + "]"
	}
	cases := []struct {
		name   string
		mutate func(m map[string]any)
	}{
		{"name with a space", func(m map[string]any) { m["workloads"].([]any)[0].(map[string]any)["name"] = "nn infer" }},
		{"name starting with a dot", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["name"] = ".build" }},
		{"name of 65 characters", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["name"] = strings.Repeat("a", 65) }},
		{"name used twice", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["name"] = "setup_s" }},
		{"one workload", func(m map[string]any) { m["workloads"] = m["workloads"].([]any)[:1] }},
		{"nine workloads", func(m map[string]any) {
			m["workloads"] = json.RawMessage(many(9, `{"name": "w%d", "why": "x"}`))
		}},
		{"why of two lines", func(m map[string]any) { m["workloads"].([]any)[0].(map[string]any)["why"] = "a\nb" }},
		{"why of 201 characters", func(m map[string]any) {
			m["workloads"].([]any)[0].(map[string]any)["why"] = strings.Repeat("y", 201)
		}},
		{"workload with an extra key", func(m map[string]any) { m["workloads"].([]any)[0].(map[string]any)["ops"] = 45 }},
		{"seventeen end-to-end metrics", func(m map[string]any) {
			var extra []any
			json.Unmarshal([]byte(many(13, `{"name": "extra%d", "unit": "s", "better": "lower", "bound": 0.1}`)), &extra)
			m["end_to_end"] = append(m["end_to_end"].([]any), extra...)
		}},
		{"129 per-layer metrics", func(m map[string]any) {
			m["per_layer"] = json.RawMessage(many(129, `{"name": "m%d", "unit": "ms", "better": "lower"}`))
		}},
		{"no setup_s", func(m map[string]any) { m["end_to_end"] = m["end_to_end"].([]any)[1:] }},
		{"setup_s in ms", func(m map[string]any) { m["end_to_end"].([]any)[0].(map[string]any)["unit"] = "ms" }},
		{"end-to-end metric without a bound", func(m map[string]any) { delete(m["end_to_end"].([]any)[1].(map[string]any), "bound") }},
		{"bound above 0.25", func(m map[string]any) { m["end_to_end"].([]any)[1].(map[string]any)["bound"] = 0.3 }},
		{"per-layer metric with a bound", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["bound"] = 0.1 }},
		{"unit with a space", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["unit"] = "m s" }},
		{"better = faster", func(m map[string]any) { m["per_layer"].([]any)[0].(map[string]any)["better"] = "faster" }},
		{"path leaving the repo", func(m map[string]any) { m["paths"] = []string{"../benchmark"} }},
		{"absolute path", func(m map[string]any) { m["paths"] = []string{"/root/benchmark"} }},
		{"no paths", func(m map[string]any) { m["paths"] = []string{} }},
		{"command naming a file outside paths", func(m map[string]any) { m["command"] = []string{"bash", "cmd/evabench/run.sh"} }},
		{"command with an absolute path", func(m map[string]any) { m["command"] = []string{"/bin/bash", "benchmark/run.sh"} }},
		{"run_seconds 0", func(m map[string]any) { m["run_seconds"] = 0 }},
		{"run_seconds 61", func(m map[string]any) { m["run_seconds"] = 61 }},
		{"run_seconds 2.5", func(m map[string]any) { m["run_seconds"] = 2.5 }},
		{"no run_seconds", func(m map[string]any) { delete(m, "run_seconds") }},
		{"unknown top-level key", func(m map[string]any) { m["notes"] = "x" }},
		{"runs that overrun the driver's budget", func(m map[string]any) { m["run_seconds"] = 40 }},
	}
	for _, c := range cases {
		var m map[string]any
		if err := json.Unmarshal(data, &m); err != nil {
			t.Fatal(err)
		}
		c.mutate(m)
		broken, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := parseManifest(broken); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := parseManifest(append(data, make([]byte, manifestMaxBytes)...)); err == nil {
		t.Error("a manifest above 64 KiB: accepted")
	}
}

// tinyRuns memoizes tiny-mode runs so the tests below share them.
var tinyRuns = struct {
	sync.Mutex
	m map[string]*result
}{m: map[string]*result{}}

func tinyRun(t *testing.T, workload string, seed int64, trace, fresh bool) *result {
	t.Helper()
	key := fmt.Sprintf("%s/%d/%v", workload, seed, trace)
	tinyRuns.Lock()
	defer tinyRuns.Unlock()
	if r := tinyRuns.m[key]; r != nil && !fresh {
		return r
	}
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir) // the server's data directory
	r, err := run(config{workload: workload, seed: seed, trace: trace, tiny: true, outDir: dir, table: io.Discard})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Fatalf("%s seed %d trace %v: correct=%v attempted=%d failed=%d", workload, seed, trace, r.Correct, r.Attempted, r.Failed)
	}
	if trace {
		if _, err := os.Stat(dir + "/" + workload + ".trace.json"); err != nil {
			t.Errorf("%s: no span file: %v", workload, err)
		}
	}
	tinyRuns.m[key] = r
	return r
}

// TestWorkloadsEmitDeclaredMetrics runs every workload for one operation and
// checks, in both directions, that the emitted metric names and units are
// the declared ones: the end-to-end metrics untraced, the per-layer metrics
// traced.
func TestWorkloadsEmitDeclaredMetrics(t *testing.T) {
	m, err := loadManifest(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range m.Workloads {
		for _, trace := range []bool{false, true} {
			want := map[string]string{}
			if trace {
				for _, e := range m.PerLayer {
					want[e.Name] = e.Unit
				}
			} else {
				for _, e := range m.EndToEnd {
					want[e.Name] = e.Unit
				}
			}
			got := map[string]string{}
			for name, v := range tinyRun(t, w.Name, 1, trace, false).Metrics {
				got[name] = v.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v: emitted %v; declared %v", w.Name, trace, sortedKeys(got), sortedKeys(want))
			}
		}
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
