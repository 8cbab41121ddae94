package compile

import (
	"testing"

	"eva/internal/ckks"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// TestBind: one level group per set of inputs that meet, entered at one level
// no lower than any member's depth, and one mismatch per input that breaks
// the contract, naming the property at fault.
func TestBind(t *testing.T) {
	p := core.MustNewProgram("bind", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	z, _ := p.NewInput("z", core.TypeCipher, 8, 30)
	p.NewInput("dead", core.TypeCipher, 8, 30)
	k, _ := p.NewInput("k", core.TypeVector, 8, 30)
	xy, _ := p.NewBinary(core.OpMultiply, x, y)
	zk, _ := p.NewBinary(core.OpAdd, z, k)
	p.AddOutput("xy", xy, 30)
	p.AddOutput("zk", zk, 30)
	// Lazy mod-switching leaves z at depth 0; the eager strategy would pad it
	// to the program's depth.
	res, err := Compile(p, Options{MaxRescaleLog: 30, AllowInsecure: true, ModSwitch: rewrite.ModSwitchLazy})
	if err != nil {
		t.Fatal(err)
	}
	checkLowering(t, res)
	in := func(name string) Input {
		for _, in := range res.Inputs {
			if in.Term.Name == name {
				return in
			}
		}
		t.Fatalf("no input %q", name)
		return Input{}
	}
	gxy, gz := in("x").Group, in("z").Group
	if gxy != 0 || in("y").Group != 0 || gz != 2 || in("dead").Group != -1 || in("k").Group != -1 {
		t.Fatalf("groups x %d, y %d, z %d, dead %d, k %d; want x and y in x's, z in its own, dead and k in none",
			gxy, in("y").Group, gz, in("dead").Group, in("k").Group)
	}
	if in("x").Depth != 1 || in("z").Depth != 0 {
		t.Fatalf("depths x %d, z %d; the test needs 1 and 0", in("x").Depth, in("z").Depth)
	}
	params, err := ckks.NewParameters(res.ParametersLiteral())
	if err != nil {
		t.Fatal(err)
	}
	top := params.MaxLevel()
	if top < 2 {
		t.Fatalf("MaxLevel %d; the test needs 2 levels of headroom", top)
	}
	fresh := CipherArg{Level: top, LogScale: 30.2, Width: 8, Params: params.Fingerprint()}
	with := func(f func(*CipherArg)) CipherArg {
		a := fresh
		f(&a)
		return a
	}

	entry, ms := res.Bind(params, nil)
	if len(ms) != 0 || entry[gxy] != top || entry[gz] != top {
		t.Fatalf("no ciphertexts: entry %v, mismatches %v; want every group at %d", entry, ms, top)
	}
	// Groups enter independently: z alone may sit at level 0, its depth; a
	// Plain input's or a dead input's argument binds nothing.
	entry, ms = res.Bind(params, map[string]CipherArg{
		"x":    with(func(a *CipherArg) { a.Level = top - 1 }),
		"y":    with(func(a *CipherArg) { a.Level = top - 1; a.Params = "" }),
		"z":    with(func(a *CipherArg) { a.Level = 0 }),
		"dead": fresh,
		"k":    with(func(a *CipherArg) { a.Width = 1 }),
	})
	if len(ms) != 0 || entry[gxy] != top-1 || entry[gz] != 0 {
		t.Fatalf("entry %v, mismatches %v; want x,y at %d and z at 0", entry, ms, top-1)
	}

	for _, tc := range []struct {
		name  string
		args  map[string]CipherArg
		input string
		field string
	}{
		{"params", map[string]CipherArg{"x": with(func(a *CipherArg) { a.Params = "other" }), "y": fresh}, "x", "params"},
		{"width", map[string]CipherArg{"x": fresh, "y": with(func(a *CipherArg) { a.Width = 16 })}, "y", "width"},
		{"mixed levels", map[string]CipherArg{"x": fresh, "y": with(func(a *CipherArg) { a.Level = top - 1 })}, "x", "level"},
		{"below depth", map[string]CipherArg{"x": with(func(a *CipherArg) { a.Level = 0 })}, "x", "level"},
		{"scale", map[string]CipherArg{"z": with(func(a *CipherArg) { a.LogScale = 31 })}, "z", "scale"},
	} {
		_, ms := res.Bind(params, tc.args)
		if len(ms) != 1 || ms[0].Input != tc.input || ms[0].Field != tc.field {
			t.Errorf("%s: mismatches %+v, want one on input %s field %s", tc.name, ms, tc.input, tc.field)
		}
	}
	// Every violation is reported, in declaration order.
	_, ms = res.Bind(params, map[string]CipherArg{
		"x": with(func(a *CipherArg) { a.Level = 0 }),
		"y": with(func(a *CipherArg) { a.Level = 0 }),
		"z": with(func(a *CipherArg) { a.LogScale = 45 }),
	})
	if len(ms) != 3 || ms[0].Input != "x" || ms[1].Input != "y" || ms[2].Input != "z" {
		t.Errorf("mismatches %+v, want x, y and z", ms)
	}
}
