package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eva/internal/core"
	"eva/internal/lang"
)

const quickstartEva = `program quickstart vec=8;
input x @30;
input y @30;
result = (x * x + y) * 0.5@30;
output result @30;
`

func TestRunDemo(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "x2y3", "-insecure", "-print"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"program \"x2y3\"", "rotation steps", "RESCALE", "transformed program:",
		"estimated cost: 1.26e+06 limb-element ops, critical path 8.37e+05 (ideal parallel speedup <= 1.5x)\n"} {
		if !strings.Contains(got, want) {
			t.Errorf("demo output missing %q:\n%s", want, got)
		}
	}
}

// TestRunSourceEndToEnd compiles a .eva file and emits the compiled program
// both as JSON and as source, checking each output re-loads.
func TestRunSourceEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "quickstart.eva")
	if err := os.WriteFile(srcPath, []byte(quickstartEva), 0o644); err != nil {
		t.Fatal(err)
	}

	jsonOut := filepath.Join(dir, "compiled.json")
	var out strings.Builder
	if err := run([]string{"-src", srcPath, "-insecure", "-out", jsonOut}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "compiled program written to") {
		t.Errorf("missing write confirmation:\n%s", out.String())
	}
	f, err := os.Open(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	compiled, err := core.Deserialize(f)
	if err != nil {
		t.Fatalf("emitted JSON does not deserialize: %v", err)
	}
	if compiled.Name != "quickstart" {
		t.Errorf("compiled program name %q", compiled.Name)
	}

	srcOut := filepath.Join(dir, "compiled.eva")
	out.Reset()
	if err := run([]string{"-src", srcPath, "-insecure", "-emit", "src", "-out", srcOut}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	emitted, err := os.ReadFile(srcOut)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := lang.ParseProgram(string(emitted))
	if err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, emitted)
	}
	if err := core.Equal(compiled, reparsed); err != nil {
		t.Errorf("JSON and source emissions differ: %v", err)
	}
	// The compiled form must contain the compiler-inserted instructions.
	if !strings.Contains(string(emitted), "rescale(") {
		t.Errorf("compiled source missing rescale:\n%s", emitted)
	}
}

func TestRunJSONInput(t *testing.T) {
	dir := t.TempDir()
	inPath := filepath.Join(dir, "prog.json")
	f, err := os.Create(inPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := demoProgram().Serialize(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out strings.Builder
	if err := run([]string{"-in", inPath, "-insecure"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "instructions:") {
		t.Errorf("unexpected output:\n%s", out.String())
	}
}

func TestRunFlagValidation(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out, io.Discard); err == nil {
		t.Error("no input flags accepted")
	}
	if err := run([]string{"-demo", "x2y3", "-in", "x.json"}, &out, io.Discard); err == nil {
		t.Error("conflicting input flags accepted")
	}
	if err := run([]string{"-demo", "x2y3", "-emit", "protobuf"}, &out, io.Discard); err == nil {
		t.Error("unknown -emit format accepted")
	}
}

// TestRunSourceErrorsArePositioned: a malformed .eva file fails with
// line:column diagnostics, not a generic message.
func TestRunSourceErrorsArePositioned(t *testing.T) {
	dir := t.TempDir()
	srcPath := filepath.Join(dir, "bad.eva")
	if err := os.WriteFile(srcPath, []byte("program p vec=8;\ninput x @30;\noutput o = x + zz @30;\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err := run([]string{"-src", srcPath, "-insecure"}, &out, io.Discard)
	if err == nil {
		t.Fatal("malformed source compiled")
	}
	if !strings.Contains(err.Error(), "3:16") || !strings.Contains(err.Error(), "undefined name") {
		t.Errorf("error lacks position or message: %v", err)
	}
}

func TestFigureDemoAndDescribe(t *testing.T) {
	p := demoProgram()
	if p.NumTerms() != 6 || len(p.Outputs()) != 1 {
		t.Fatalf("unexpected demo program shape: %d terms", p.NumTerms())
	}
	var buf strings.Builder
	describeProgram(&buf, p)
	out := buf.String()
	for _, want := range []string{"INPUT", "MULTIPLY", "output \"out\""} {
		if !strings.Contains(out, want) {
			t.Errorf("program description missing %q", want)
		}
	}
}
