// Command benchjson converts `go test -bench` text output into a stable JSON
// document, so the performance trajectory of the backend can be tracked
// machine-readably across PRs (BENCH_backend.json at the repository root is
// generated with it), and compares two such documents as a CI
// bench-regression gate.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchtime=1x ./internal/ring | benchjson -o BENCH_backend.json
//	benchjson -compare -threshold 0.25 old.json new.json
//
// Each benchmark line becomes one entry carrying the benchmark name (with
// the -GOMAXPROCS suffix stripped), the package it came from, the iteration
// count, and every reported metric (ns/op, B/op, allocs/op, and any custom
// b.ReportMetric unit) keyed by unit.
//
// In -compare mode, every benchmark whose name matches -track (default: the
// hot backend ops NTT, BasisConvert, Rotate, RotateHoisted, Relinearize
// (RelinearizeRescale too), KeyGeneration, NewParameters (a context's
// set-up before key generation), Rescale and Decode, the serving tier's
// CoalescedExecute and
// HandleResolve, the end-to-end HetensorMatmul, ProfiledExecute and
// PlannedExecute workloads, the fused MulPlainAccumulate kernel, and the
// compiler's Compile) is compared between the two documents on the -metric value (default ns/op); if
// any tracked benchmark got slower by more than -threshold (a fraction:
// 0.25 = 25%), benchjson prints the offenders and exits non-zero, failing the
// build.
// Reports carrying repeated runs (-count=N) collapse to the per-name
// minimum, and -ref names a reference benchmark whose old/new ratio
// normalizes away uniform machine-speed differences (CI runners are not the
// machine the baseline was recorded on).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Report is the emitted JSON document.
type Report struct {
	Schema     string   `json:"schema"`
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			return // -h is a successful invocation
		}
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(stderr)
	outPath := fs.String("o", "", "write JSON to this file instead of stdout")
	compare := fs.Bool("compare", false, "compare two JSON reports (old.json new.json) instead of parsing bench output")
	threshold := fs.Float64("threshold", 0.25, "compare mode: allowed fractional slowdown per tracked benchmark")
	track := fs.String("track", "NTT|BasisConvert|Rotate|RotateHoisted|Relinearize|KeyGeneration|NewParameters|Rescale|Decode|CoalescedExecute|HandleResolve|HetensorMatmul|ProfiledExecute|PlannedExecute|MulPlainAccumulate|Compile", "compare mode: regexp of benchmark names to gate on")
	ref := fs.String("ref", "", "compare mode: regexp of a reference benchmark used to normalize machine speed (empty = raw times)")
	metric := fs.String("metric", "ns/op", "compare mode: metric to compare")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("compare mode needs exactly two files: benchjson -compare old.json new.json")
		}
		return runCompare(fs.Arg(0), fs.Arg(1), *threshold, *track, *ref, *metric, stdout)
	}
	report, err := Parse(stdin)
	if err != nil {
		return err
	}
	if len(report.Benchmarks) == 0 {
		return fmt.Errorf("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if *outPath != "" {
		return os.WriteFile(*outPath, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

// gomaxprocsSuffix matches the "-8" style suffix the testing package appends
// to benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// Parse reads `go test -bench` output and collects every benchmark line.
func Parse(r io.Reader) (*Report, error) {
	report := &Report{Schema: "eva-bench/v1"}
	pkg := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			report.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			report.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			report.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok := parseBenchLine(line)
			if !ok {
				continue
			}
			res.Pkg = pkg
			report.Benchmarks = append(report.Benchmarks, res)
		}
	}
	return report, sc.Err()
}

// parseBenchLine parses one line of the form
//
//	BenchmarkName/sub-8   100   12345 ns/op   67 B/op   8 allocs/op   1.5 custom-unit
//
// returning ok=false for lines that do not carry an iteration count and at
// least one (value, unit) pair.
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	res := Result{
		Name:       gomaxprocsSuffix.ReplaceAllString(fields[0], ""),
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Result{}, false
		}
		res.Metrics[fields[i+1]] = v
	}
	return res, true
}
