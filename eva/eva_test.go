package eva_test

import (
	"bytes"
	"math"
	"testing"

	"eva/eva"
)

// TestPublicAPIWorkflow exercises the documented four-step workflow end to
// end through the public facade only.
func TestPublicAPIWorkflow(t *testing.T) {
	b := eva.NewBuilder("facade", 8)
	x := b.Input("x", 30)
	y := b.Input("y", 30)
	b.Output("poly", x.Square().Add(y).MulScalar(0.5, 30), 30)
	b.Output("shifted", x.RotateLeft(2), 30)
	program, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}

	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true
	compiled, err := eva.Compile(program, opts)
	if err != nil {
		t.Fatal(err)
	}
	if compiled.Plan.NumPrimes() < 2 || compiled.LogN < 10 {
		t.Fatalf("implausible compilation result: %s", compiled.Summary())
	}

	prng := eva.NewTestPRNG(99)
	ctx, keys, err := eva.NewContext(compiled, prng)
	if err != nil {
		t.Fatal(err)
	}
	inputs := eva.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}, "y": {1, 1, 1, 1, 1, 1, 1, 1}}
	encrypted, err := eva.EncryptInputs(ctx, compiled, keys, inputs, prng)
	if err != nil {
		t.Fatal(err)
	}
	outputs, err := eva.Run(ctx, compiled, encrypted, eva.RunOptions{Scheduler: eva.SchedulerParallel})
	if err != nil {
		t.Fatal(err)
	}
	decrypted := eva.DecryptOutputs(ctx, compiled, keys, outputs)
	reference, err := eva.RunReference(program, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range reference {
		got := decrypted[name]
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-3 {
				t.Fatalf("output %q slot %d: got %g want %g", name, i, got[i], want[i])
			}
		}
	}
}

// TestPublicAPISourceRoundTrip checks the textual language is reachable
// through the facade: ParseSource and FormatProgram are inverse up to the
// IR, and a source-parsed program compiles like a builder-built one.
func TestPublicAPISourceRoundTrip(t *testing.T) {
	program, err := eva.ParseSource(`
program facade vec=8;
input x @30;
input y @30;
output poly = (x * x + y) * 0.5@30 @30;
output shifted = rotl(x, 2) @30;
`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := eva.FormatProgram(program)
	if err != nil {
		t.Fatal(err)
	}
	again, err := eva.ParseSource(src)
	if err != nil {
		t.Fatalf("formatted source does not re-parse: %v\n%s", err, src)
	}
	if again.NumTerms() != program.NumTerms() || len(again.Outputs()) != 2 {
		t.Fatalf("round trip changed the program: %d terms vs %d", again.NumTerms(), program.NumTerms())
	}
	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true
	if _, err := eva.Compile(program, opts); err != nil {
		t.Fatalf("source-parsed program does not compile: %v", err)
	}
	if _, err := eva.ParseSource("program broken vec=8;\noutput o = zz @30;"); err == nil {
		t.Fatal("ParseSource accepted an undefined name")
	}
}

// TestPublicAPISchedulers checks the exported scheduler constants are usable
// through the facade.
func TestPublicAPISchedulers(t *testing.T) {
	b := eva.NewBuilder("sched", 8)
	x := b.Input("x", 30)
	b.Output("out", x.Square(), 30)
	program, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true
	compiled, err := eva.Compile(program, opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, keys, err := eva.NewContext(compiled, eva.NewTestPRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	enc, err := eva.EncryptInputs(ctx, compiled, keys, eva.Inputs{"x": {0.5, 0.25}}, eva.NewTestPRNG(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, sched := range []eva.RunOptions{
		{Scheduler: eva.SchedulerParallel},
		{Scheduler: eva.SchedulerBulkSynchronous},
		{Scheduler: eva.SchedulerSequential},
	} {
		out, err := eva.Run(ctx, compiled, enc, sched)
		if err != nil {
			t.Fatal(err)
		}
		got := eva.DecryptOutputs(ctx, compiled, keys, out)["out"]
		if math.Abs(got[0]-0.25) > 1e-3 {
			t.Fatalf("out[0] = %g, want 0.25", got[0])
		}
	}
}

// TestPublicAPIClientKeysRoundTrip is the paper's deployment model through
// the facade, in one process: the client serializes its program, the
// server deserializes and compiles it, the client generates the keys, and
// the server builds its context from the relinearization and rotation keys
// alone. The server's run decrypts, under the client's secret key, to the
// plain reference.
func TestPublicAPIClientKeysRoundTrip(t *testing.T) {
	b := eva.NewBuilder("client-keys", 8)
	x := b.Input("x", 30)
	b.Output("out", x.Square().Add(x.RotateLeft(1)), 30)
	program, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := program.Serialize(&wire); err != nil {
		t.Fatal(err)
	}
	received, err := eva.DeserializeProgram(&wire)
	if err != nil {
		t.Fatal(err)
	}
	opts := eva.DefaultCompileOptions()
	opts.AllowInsecure = true
	compiled, err := eva.Compile(received, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(compiled.RotationSteps) == 0 {
		t.Fatal("the program needs a rotation key; the test would not check one")
	}

	clientCtx, keys, err := eva.NewContext(compiled, eva.NewTestPRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	serverCtx, err := eva.NewEvaluationContext(compiled, keys.Relin, keys.Rot)
	if err != nil {
		t.Fatal(err)
	}
	inputs := eva.Inputs{"x": {1, 2, 3, 4, 5, 6, 7, 8}}
	encrypted, err := eva.EncryptInputs(clientCtx, compiled, keys, inputs, eva.NewTestPRNG(8))
	if err != nil {
		t.Fatal(err)
	}
	outputs, err := eva.Run(serverCtx, compiled, encrypted, eva.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := eva.DecryptOutputs(clientCtx, compiled, keys, outputs)["out"]
	want, err := eva.RunReference(program, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want["out"] {
		if math.Abs(got[i]-w) > 1e-3 {
			t.Fatalf("out[%d] = %g, want %g", i, got[i], w)
		}
	}
}
