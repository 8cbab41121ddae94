// Command evac is the EVA compiler driver: it reads an EVA program — in the
// JSON program format or as .eva source text — runs the compiler
// (transformation, validation, parameter selection, rotation selection), and
// reports the selected encryption parameters, rotation steps, and
// transformed program. It can emit the compiled program back in either
// format.
//
// Usage:
//
//	evac -in program.json [-out compiled.json] [-emit json|src] [-insecure] [-print]
//	evac -src program.eva [-out compiled.eva] [-emit src]
//	evac -demo x2y3 [-waterline 30] [-print]
//
// The -demo mode compiles the paper's running example (Figure 2) so the
// effect of the transformation passes can be inspected without writing a
// program first.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/rewrite"
)

// errFlagParse marks a command-line parse failure the FlagSet already
// reported (with usage) to stderr, so main must not print it again.
var errFlagParse = errors.New("invalid command line")

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if !errors.Is(err, errFlagParse) {
			fmt.Fprintln(os.Stderr, "evac:", err)
		}
		os.Exit(1)
	}
}

// run is the whole driver; main only maps its error to the exit status, so
// tests can drive the real command line in-process. Reports go to stdout,
// flag-parse diagnostics and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("evac", flag.ContinueOnError)
	var (
		inPath    = fs.String("in", "", "input program in the JSON program format")
		srcPath   = fs.String("src", "", "input program as .eva source text")
		outPath   = fs.String("out", "", "write the compiled program to this path")
		emit      = fs.String("emit", "json", "output format for -out: json (wire format) or src (.eva source)")
		demo      = fs.String("demo", "", "compile a built-in demo program instead of -in (x2y3)")
		insecure  = fs.Bool("insecure", false, "allow parameter sets below the 128-bit security level")
		printProg = fs.Bool("print", false, "print the transformed program instruction by instruction")
		waterline = fs.Float64("waterline", 0, "override the waterline scale (log2); 0 = maximum input scale")
		rescale   = fs.String("rescale", "waterline", "rescale insertion strategy: waterline, always, fixed, none")
		modswitch = fs.String("modswitch", "eager", "modulus-switch insertion strategy: eager, lazy, none")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return errFlagParse
	}

	prog, err := loadProgram(*inPath, *srcPath, *demo)
	if err != nil {
		return err
	}
	if *emit != "json" && *emit != "src" {
		return fmt.Errorf("unknown -emit format %q (want json or src)", *emit)
	}

	opts := compile.DefaultOptions()
	opts.AllowInsecure = *insecure
	opts.WaterlineLog = *waterline
	if opts.Rescale, err = rewrite.ParseRescaleStrategy(*rescale); err != nil {
		return err
	}
	if opts.ModSwitch, err = rewrite.ParseModSwitchStrategy(*modswitch); err != nil {
		return err
	}

	res, err := compile.Compile(prog, opts)
	if err != nil {
		return err
	}

	fmt.Fprintln(stdout, res.Summary())
	fmt.Fprintf(stdout, "prime bit sizes: special %v, chain (consumption order) %v\n", res.Plan.SpecialBits, res.Plan.BitSizes)
	fmt.Fprintf(stdout, "rotation steps requiring Galois keys: %v\n", res.RotationSteps)
	fmt.Fprintf(stdout, "critical output: %q, chain length %d\n", res.Plan.CriticalOutput, res.Plan.MaxChainLength)
	fmt.Fprintf(stdout, "instructions: input %d -> compiled %d (mult depth %d)\n",
		res.SourceStats.Terms, res.CompiledStats.Terms, res.CompiledStats.MultDepth)
	for op, count := range res.CompiledStats.Instructions {
		fmt.Fprintf(stdout, "  %-12s %d\n", op, count)
	}
	model := res.CostModel()
	fmt.Fprintf(stdout, "key switching: digits of %d chain primes, %.1f MB per switching key\n",
		model.DigitSize, float64(model.SwitchingKeyBytes())/1e6)
	est := res.Cost()
	fmt.Fprintf(stdout, "estimated cost: %.3g limb-element ops, critical path %.3g (ideal parallel speedup <= %.1fx)\n",
		est.Total, est.CriticalPath, est.ParallelSpeedupBound())
	if *printProg {
		fmt.Fprintln(stdout, "transformed program:")
		describeProgram(stdout, res.Program)
	}
	if *outPath != "" {
		if err := writeProgram(res.Program, *outPath, *emit); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "compiled program written to %s (%s)\n", *outPath, *emit)
	}
	return nil
}

func loadProgram(inPath, srcPath, demo string) (*core.Program, error) {
	set := 0
	for _, s := range []string{inPath, srcPath, demo} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return nil, fmt.Errorf("exactly one of -in, -src, or -demo is required")
	}
	switch {
	case demo != "":
		if demo != "x2y3" {
			return nil, fmt.Errorf("unknown demo %q (available: x2y3)", demo)
		}
		return demoProgram(), nil
	case srcPath != "":
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return nil, err
		}
		prog, err := lang.ParseProgram(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", srcPath, err)
		}
		return prog, nil
	default:
		f, err := os.Open(inPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return core.Deserialize(f)
	}
}

func writeProgram(p *core.Program, path, emit string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if emit == "src" {
		src, err := lang.Print(p)
		if err != nil {
			return err
		}
		_, err = io.WriteString(f, src)
		return err
	}
	return p.Serialize(f)
}

// demoProgram builds the x²y³ running example (Figure 2), so the effect of
// each transformation pass can be shown without writing a program first.
func demoProgram() *core.Program {
	p := core.MustNewProgram("x2y3", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 60)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	x2, _ := p.NewBinary(core.OpMultiply, x, x)
	y2, _ := p.NewBinary(core.OpMultiply, y, y)
	y3, _ := p.NewBinary(core.OpMultiply, y2, y)
	out, _ := p.NewBinary(core.OpMultiply, x2, y3)
	_ = p.AddOutput("out", out, 30)
	return p
}

// describeProgram renders a program's instructions in topological order, one
// per line.
func describeProgram(w io.Writer, p *core.Program) {
	order := p.TopoSort()
	types := core.InferTypes(order)
	for _, t := range order {
		line := fmt.Sprintf("  t%-4d %-12s", t.ID, t.Op)
		for _, parm := range t.Parms() {
			line += fmt.Sprintf(" t%d", parm.ID)
		}
		switch t.Op {
		case core.OpInput:
			line += fmt.Sprintf("  name=%q type=%s scale=2^%g", t.Name, t.InType, t.LogScale)
		case core.OpConstant:
			line += fmt.Sprintf("  width=%d scale=2^%g", t.VecWidth, t.LogScale)
		case core.OpRotateLeft, core.OpRotateRight:
			line += fmt.Sprintf("  by=%d", t.RotateBy)
		case core.OpRescale:
			line += fmt.Sprintf("  divisor=2^%g", t.LogScale)
		}
		line += fmt.Sprintf("  [%s]", types.Get(t))
		fmt.Fprintln(w, line)
	}
	for _, o := range p.Outputs() {
		fmt.Fprintf(w, "  output %q = t%d (desired scale 2^%g)\n", o.Name, o.Term.ID, o.LogScale)
	}
}
