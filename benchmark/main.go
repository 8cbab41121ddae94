// Command benchmark is the repository's benchmark: four named workloads
// that drive the EVA compiler, the CKKS executor and the evaserve job path
// from outside, check every output against an independent cleartext
// reference, and print the metrics BENCHMARK.json declares.
//
//	go run ./benchmark -workload nn_infer -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -compare A.jsonl B.jsonl
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics — the end-to-end metrics with -trace 0, the per-layer
// metrics with -trace 1. README.md in this directory explains the workloads
// and how each per-layer metric maps to an end-to-end one.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(mainCode(os.Args[1:]))
}

func mainCode(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
		seed     = fs.Int64("seed", 1, "seed of every generated input: weights, images, application inputs, keys")
		seconds  = fs.Float64("seconds", 20, "length of the timed phase")
		trace    = fs.Int("trace", 0, "1 = record spans, write benchmark/out/<workload>.trace.json and print the per-layer metrics")
		out      = fs.String("out", "", "append the result line, tagged with workload and seed, to this file (input of -compare)")
		compare  = fs.Bool("compare", false, "compare two -out files: benchmark -compare A.jsonl B.jsonl")
		manifest = fs.String("manifest", "BENCHMARK.json", "manifest -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two result files")
			return 2
		}
		if err := compareFiles(os.Stdout, *manifest, fs.Arg(0), fs.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "benchmark: -trace takes 0 or 1")
		return 2
	}
	res, err := run(config{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		outDir: "benchmark/out", table: os.Stdout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, record{Workload: *workload, Seed: *seed, Trace: *trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	return res.exitCode()
}
