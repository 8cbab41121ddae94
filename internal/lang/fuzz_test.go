package lang_test

import (
	"testing"

	"eva/internal/core"
	"eva/internal/lang"
)

// fuzzSeeds exercise every statement form, expression form, and a sample of
// malformed inputs so the fuzzers start from interesting corners.
var fuzzSeeds = []string{
	"",
	"program quickstart vec=8;\ninput x @30;\ninput y @30;\nresult = (x * x + y) * 0.5@30;\noutput result @30;",
	"program \"a b\" vec=4; input x: vector width=2 @30; input s: scalar @1.5; output o = x * s @30;",
	"program p vec=16; input x @30; output o = rescale(modswitch(relin(neg(x * x))), 30) @30;",
	"program p vec=8; input x @30; v = [1, -2.5, 3e2, 0.125]@25; output o = rotl(x, 2) + rotr(v * x, -3) @30;",
	"program p vec=8; input x @30; output o = -x - -2@30 @30;",
	"program p vec=7; input x @30; output o = x @30;",
	"program p vec=8; input x @30; output o = x + z @30;",
	"program p vec=8; input x @30; output o = ((((x)))) @30;",
	"program p vec=8; # comment\n// comment\ninput x @30; output o = x @30;",
	"program p vec=8; input x @30; output o = x * 1e999@30 @30;",
	"program p vec=8 input x @30",
	"@@@;;;[[]]\"unterminated",
}

// FuzzParse asserts the frontend never panics: arbitrary bytes either parse
// and lower into a structurally valid program or produce an ErrorList.
// evaserve feeds untrusted request bodies straight into this path.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			if prog != nil {
				t.Fatal("ParseProgram returned both a program and an error")
			}
			if _, ok := lang.AsErrorList(err); !ok {
				t.Fatalf("error is not positioned diagnostics: %v", err)
			}
			return
		}
		if _, err := prog.ValidateStructure(false); err != nil {
			t.Fatalf("lowered program is structurally invalid: %v", err)
		}
	})
}

// FuzzRoundTrip asserts the printer is canonical: any source that parses
// must print to source that re-parses to the identical IR.
func FuzzRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := lang.ParseProgram(src)
		if err != nil {
			t.Skip()
		}
		printed, err := lang.Print(prog)
		if err != nil {
			t.Fatalf("Print failed on a parsed program: %v\nsource:\n%s", err, src)
		}
		back, err := lang.ParseProgram(printed)
		if err != nil {
			t.Fatalf("printed source does not re-parse: %v\nprinted:\n%s", err, printed)
		}
		if err := core.Equal(prog, back); err != nil {
			t.Fatalf("round trip changed the program: %v\noriginal source:\n%s\nprinted:\n%s", err, src, printed)
		}
	})
}
