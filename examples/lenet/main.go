// Encrypted neural-network inference through the tensor frontend (the CHET
// retargeting of Section 7.2): a LeNet-5-style network classifies an
// encrypted image, and the same program is also compiled with the CHET-style
// baseline pipeline so the encryption-parameter and latency differences that
// drive Tables 5 and 6 can be observed directly.
//
// Run with:
//
//	go run ./examples/lenet [-divisor 8] [-input 8] [-workers 4]
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"time"

	"eva/eva"
	"eva/internal/chet"
	"eva/internal/nn"
)

func main() {
	divisor := flag.Int("divisor", 8, "channel divisor (1 = paper-scale channel counts)")
	inputSize := flag.Int("input", 8, "input image side (power of two)")
	workers := flag.Int("workers", 0, "executor threads (0 = GOMAXPROCS)")
	flag.Parse()

	cfg := nn.Config{InputSize: *inputSize, ChannelDivisor: *divisor}
	network := nn.LeNet5Small(cfg)
	rng := rand.New(rand.NewSource(3))
	weights := nn.RandomWeights(network, rng)

	program, err := nn.BuildProgram(network, weights)
	if err != nil {
		log.Fatal(err)
	}
	image := nn.RandomImage(network, rng)
	reference, err := eva.RunReference(program, image)
	if err != nil {
		log.Fatal(err)
	}
	refScores := reference["scores"][:network.NumClasses]
	fmt.Printf("network %s: %d-term tensor program, multiplicative depth %d\n",
		network.Name, program.NumTerms(), program.ComputeStats().MultDepth)

	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true

	// EVA pipeline.
	evaCompiled, err := eva.Compile(program, opts)
	if err != nil {
		log.Fatal(err)
	}
	// CHET baseline pipeline on the exact same tensor program.
	chetCompiled, err := chet.Compile(program, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EVA  parameters: logN=%d, logQ=%d bits, %d primes\n",
		evaCompiled.LogN, evaCompiled.Plan.LogQP(), evaCompiled.Plan.NumPrimes())
	fmt.Printf("CHET parameters: logN=%d, logQ=%d bits, %d primes\n",
		chetCompiled.LogN, chetCompiled.Plan.LogQP(), chetCompiled.Plan.NumPrimes())

	type pipeline struct {
		name     string
		compiled *eva.Compiled
		options  eva.RunOptions
	}
	pipelines := []pipeline{
		{"EVA", evaCompiled, eva.RunOptions{Workers: *workers, Scheduler: eva.SchedulerParallel}},
		{"CHET", chetCompiled, eva.RunOptions{Workers: *workers, Scheduler: eva.SchedulerBulkSynchronous}},
	}
	latencies := map[string]time.Duration{}
	for _, pl := range pipelines {
		ctx, keys, err := eva.NewContext(pl.compiled, nil)
		if err != nil {
			log.Fatal(err)
		}
		encrypted, err := eva.EncryptInputs(ctx, pl.compiled, keys, image, nil)
		if err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		outputs, err := eva.Run(ctx, pl.compiled, encrypted, pl.options)
		if err != nil {
			log.Fatal(err)
		}
		latencies[pl.name] = time.Since(start)
		scores := eva.DecryptOutputs(ctx, pl.compiled, keys, outputs)["scores"][:network.NumClasses]

		maxErr := 0.0
		for i := range refScores {
			maxErr = math.Max(maxErr, math.Abs(scores[i]-refScores[i]))
		}
		fmt.Printf("%-4s inference: %8v  predicted class %d (reference %d)  max score error %.2e\n",
			pl.name, latencies[pl.name].Round(1e6),
			nn.Argmax(scores, network.NumClasses), nn.Argmax(refScores, network.NumClasses), maxErr)
	}
	if latencies["EVA"] > 0 {
		fmt.Printf("speedup of EVA over the CHET baseline: %.2fx\n",
			float64(latencies["CHET"])/float64(latencies["EVA"]))
	}
}
