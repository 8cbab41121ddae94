// Command evabench regenerates the tables and figures of the paper's
// evaluation (Section 8): Tables 3-8 and Figure 7. By default it uses the
// scaled-down network configuration (nn.BenchConfig) so every experiment runs
// on a laptop; -full and -secure move toward the paper-scale setting.
//
// After the tables it prints a claims block: the paper's machine-independent
// results (Table 6's parameters, Table 5's cost and speedup, Table 4's and
// Table 8's accuracy) checked on the same runs. It exits non-zero if any
// claim fails.
//
// Usage:
//
//	evabench -table 5            # one table (3,4,5,6,7,8)
//	evabench -figure 7           # the strong-scaling figure
//	evabench -all                # everything
//	evabench -all -networks LeNet-5-small,Industrial -workers 8
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"eva/internal/apps"
	"eva/internal/bench"
	"eva/internal/nn"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			return // -h is a successful invocation
		}
		fmt.Fprintln(os.Stderr, "evabench:", err)
		os.Exit(1)
	}
}

// run executes the evabench command line. It is the testable core of main:
// all output goes to the supplied writers and every failure is returned
// rather than exiting the process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("evabench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.Int("table", 0, "regenerate one table (3-8)")
		figure   = fs.Int("figure", 0, "regenerate one figure (7)")
		all      = fs.Bool("all", false, "regenerate every table and figure")
		full     = fs.Bool("full", false, "use the paper-scale network configuration (slow)")
		secure   = fs.Bool("secure", false, "run at 128-bit-secure parameters (paper setting; slower); Table 6 always is")
		workers  = fs.Int("workers", 0, "executor threads (0 = GOMAXPROCS)")
		seed     = fs.Int64("seed", 1, "random seed")
		networks = fs.String("networks", "", "comma-separated subset of networks to evaluate")
		vecSize  = fs.Int("vec", 1024, "vector size for the Table 8 applications")
		imgSize  = fs.Int("image", 16, "image side for the Table 8 Sobel/Harris applications")
		threads  = fs.String("threads", "", "comma-separated thread counts for Figure 7 (default 1,2,4,GOMAXPROCS)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if !*all && *table == 0 && *figure == 0 {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -table, or -figure")
	}

	opts := bench.DefaultOptions()
	opts.Secure = *secure
	opts.Workers = *workers
	opts.Seed = *seed
	if *full {
		opts.Config = nn.FullConfig()
	}

	nets, err := selectNetworks(opts.Config, *networks)
	if err != nil {
		return err
	}
	show := func(n int) bool { return *all || *table == n }
	fig := *all || *figure == 7
	var counts []int
	if fig {
		if counts, err = parseThreads(*threads); err != nil {
			return err
		}
	}

	// Tables 4, 5 and 7 and Figure 7 read one run per network; Table 6 alone
	// needs only the compile at 128-bit security.
	var results, scaled []*bench.NetworkResult
	for _, n := range nets {
		// The paper's Figure 7 omits LeNet-5-small (too fast to scale).
		scale := fig && (*networks != "" || n.Name != "LeNet-5-small")
		var r *bench.NetworkResult
		switch {
		case scale || show(4) || show(5) || show(7):
			var scaling []int
			if scale {
				scaling = counts
			}
			fmt.Fprintf(stderr, "running %s (EVA + CHET pipelines)...\n", n.Name)
			r, err = bench.RunNetwork(n, opts, scaling)
		case show(6):
			fmt.Fprintf(stderr, "compiling %s at 128-bit security...\n", n.Name)
			r, err = bench.CompileNetwork(n, opts)
		default:
			continue
		}
		if err != nil {
			return err
		}
		results = append(results, r)
		if scale {
			scaled = append(scaled, r)
		}
	}

	var appResults []*bench.AppResult
	if show(8) {
		suite, err := apps.Suite(*vecSize, *imgSize)
		if err != nil {
			return err
		}
		for _, app := range suite {
			fmt.Fprintf(stderr, "running %s...\n", app.Name)
			r, err := bench.RunApplication(app, opts)
			if err != nil {
				return err
			}
			appResults = append(appResults, r)
		}
	}

	for i, printTable := range []func(){
		func() { bench.PrintTable3(stdout, nets) },
		func() { bench.PrintTable4(stdout, results) },
		func() { bench.PrintTable5(stdout, results) },
		func() { bench.PrintTable6(stdout, results) },
		func() { bench.PrintTable7(stdout, results) },
		func() { bench.PrintTable8(stdout, appResults) },
	} {
		if show(i + 3) {
			printTable()
			fmt.Fprintln(stdout)
		}
	}
	if fig {
		bench.PrintFigure7(stdout, scaled, counts)
		fmt.Fprintln(stdout)
	}
	if claims := bench.Claims(results, appResults); len(claims) > 0 {
		if failed := bench.PrintClaims(stdout, claims); failed > 0 {
			return fmt.Errorf("%d of %d claims failed", failed, len(claims))
		}
	}
	return nil
}

func selectNetworks(cfg nn.Config, filter string) ([]*nn.Network, error) {
	all := nn.All(cfg)
	if filter == "" {
		return all, nil
	}
	want := map[string]bool{}
	for _, name := range strings.Split(filter, ",") {
		want[strings.TrimSpace(strings.ToLower(name))] = true
	}
	var out []*nn.Network
	for _, n := range all {
		if want[strings.ToLower(n.Name)] {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no networks match %q", filter)
	}
	return out, nil
}

func parseThreads(s string) ([]int, error) {
	if s == "" {
		maxThreads := runtime.GOMAXPROCS(0)
		counts := []int{1, 2, 4}
		if maxThreads > 4 {
			counts = append(counts, maxThreads)
		}
		return counts, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		var v int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &v); err != nil || v <= 0 {
			return nil, fmt.Errorf("bad thread count %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
