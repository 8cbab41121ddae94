package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eva/internal/apps"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/rewrite"
)

// randomDAG builds a random program over two Cipher inputs and one Vector
// input. Binary instructions often take one operand twice (x+x, x*x); some
// terms reach no output; after the outputs exist, unary instructions are
// inserted after random terms for a random subset of their uses, sometimes
// taking an output with them, so creation order stops being topological,
// and random parameter slots are rewired to terms that are not their
// descendants, so a term's uses by one child interleave with another's. With
// outputs false the program has none.
func randomDAG(rng *rand.Rand, outputs bool) *core.Program {
	p := core.MustNewProgram("dag", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	v, _ := p.NewInput("v", core.TypeVector, 8, 30)
	pool := []*core.Term{x, y, v}
	pick := func() *core.Term { return pool[rng.Intn(len(pool))] }
	for i, n := 0, 2+rng.Intn(40); i < n; i++ {
		a := pick()
		var t *core.Term
		switch rng.Intn(6) {
		case 0:
			t, _ = p.NewBinary(core.OpAdd, a, a)
		case 1:
			t, _ = p.NewBinary(core.OpMultiply, a, a)
		case 2:
			t, _ = p.NewBinary([]core.OpCode{core.OpAdd, core.OpSub, core.OpMultiply}[rng.Intn(3)], a, pick())
		case 3:
			t, _ = p.NewRotation(core.OpRotateLeft, a, 1+rng.Intn(7))
		case 4:
			c, _ := p.NewScalarConstant(2, 20)
			t, _ = p.NewBinary(core.OpMultiply, a, c)
		default:
			t, _ = p.NewUnary(core.OpNegate, a)
		}
		pool = append(pool, t)
	}
	if !outputs {
		return p
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		if err := p.AddOutput(fmt.Sprint("out", i), pool[len(pool)-1-rng.Intn(min(len(pool), 8))], 30); err != nil {
			panic(err)
		}
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		t := pick()
		m := p.InsertUnaryAfter(t, core.OpNegate, func(*core.Term, int) bool { return rng.Intn(2) == 0 })
		if rng.Intn(2) == 0 {
			p.RedirectOutputs(t, m)
		}
		pool = append(pool, m)
	}
	for i, n := 0, rng.Intn(8); i < n; i++ {
		c, a := pick(), pick()
		if c.IsLeaf() {
			continue
		}
		if rng.Intn(2) == 0 {
			a = c.Parm(0) // a child that takes one term twice
		}
		if !reaches(c, a) {
			p.SetParm(c, len(c.Parms())-1, a)
		}
	}
	return p
}

// reaches reports whether b is a or one of its descendants.
func reaches(a, b *core.Term) bool {
	if a == b {
		return true
	}
	for _, e := range a.UseEdges() {
		if reaches(e.Child, b) {
			return true
		}
	}
	return false
}

// TestTopoSortMatchesReferenceOnRandomDAGs compares TopoSort's order and live
// set with the map-based reference.
func TestTopoSortMatchesReferenceOnRandomDAGs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		p := randomDAG(rng, i%10 != 0)
		name := fmt.Sprintf("dag %d (%d terms, %d outputs)", i, p.NumTerms(), len(p.Outputs()))
		got := p.TopoSort()
		live := referenceLive(p)
		if len(got) != len(live) {
			t.Fatalf("%s: TopoSort emits %d terms, %d are live", name, len(got), len(live))
		}
		for _, term := range got {
			if !live[term] {
				t.Fatalf("%s: TopoSort emits dead term %s", name, term)
			}
		}
		if want := referenceTopoSort(p); !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, want %v", name, got, want)
		}
		requireDenseIDs(t, name, p)
	}
}

// requireDenseIDs checks the invariant per-term tables rely on: a program's
// i-th term has ID i+1.
func requireDenseIDs(t *testing.T, name string, p *core.Program) {
	t.Helper()
	for i, term := range p.Terms() {
		if term.ID != uint64(i+1) {
			t.Fatalf("%s: Terms()[%d].ID = %d, want %d", name, i, term.ID, i+1)
		}
	}
}

// TestTermIDsStayDense checks the ID invariant on every way a program comes
// to exist or change: lang lowering, Clone, Deserialize and every rewrite
// pass, applied one after another as Compile applies them and in their
// alternative strategies.
func TestTermIDsStayDense(t *testing.T) {
	progs := map[string]*core.Program{}
	sources, err := filepath.Glob("../../examples/*/*.eva")
	if err != nil || len(sources) == 0 {
		t.Fatalf("no example sources found (%v)", err)
	}
	for _, path := range sources {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		name := filepath.Base(path)
		if progs[name], err = lang.ParseProgram(string(src)); err != nil {
			t.Fatal(err)
		}
		requireDenseIDs(t, name+"/lang", progs[name])
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		progs["app/"+app.Name] = app.Program
	}

	type pass struct {
		name string
		run  func(*core.Program) error
	}
	pipelines := [][]pass{
		{
			{"FoldIdentityRotations", func(p *core.Program) error { rewrite.FoldIdentityRotations(p); return nil }},
			{"InsertRescaleWaterline", func(p *core.Program) error { return rewrite.InsertRescaleWaterline(p, 60, 0) }},
			{"InsertModSwitchEager", func(p *core.Program) error { rewrite.InsertModSwitchEager(p); return nil }},
			{"MatchScales", rewrite.MatchScales},
			{"InsertRelinearize", func(p *core.Program) error { rewrite.InsertRelinearize(p); return nil }},
		},
		{
			{"InsertRescaleFixed", func(p *core.Program) error { return rewrite.InsertRescaleFixed(p, 60) }},
			{"InsertModSwitchLazy", func(p *core.Program) error { rewrite.InsertModSwitchLazy(p); return nil }},
		},
	}
	for name, prog := range progs {
		var buf bytes.Buffer
		if err := prog.Serialize(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := core.Deserialize(&buf)
		if err != nil {
			t.Fatal(err)
		}
		requireDenseIDs(t, name+"/Deserialize", back)
		for _, pipeline := range pipelines {
			p := prog.Clone()
			requireDenseIDs(t, name+"/Clone", p)
			for _, ps := range pipeline {
				if err := ps.run(p); err != nil {
					t.Fatalf("%s/%s: %v", name, ps.name, err)
				}
				requireDenseIDs(t, name+"/"+ps.name, p)
				requireReferenceOrder(t, name+"/"+ps.name, p)
			}
			requireDenseIDs(t, name+"/Clone of rewritten", p.Clone())
		}
	}
}

// TestTermMapGrows: a table made before a pass inserts terms reads zero for
// them until they are set, and holds them once they are.
func TestTermMapGrows(t *testing.T) {
	p := core.MustNewProgram("grow", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	var zero core.TermMap[int]
	if zero.Get(x) != 0 {
		t.Fatal("an empty table holds a value")
	}
	m := core.NewTermMap[int](p)
	m.Set(x, 1)
	n := p.InsertUnaryAfter(x, core.OpNegate, nil)
	later, _ := p.NewUnary(core.OpNegate, n)
	if m.Get(n) != 0 || m.Get(later) != 0 {
		t.Fatal("a term created after the table reads non-zero")
	}
	m.Set(later, 3)
	m.Set(n, 2)
	if m.Get(x) != 1 || m.Get(n) != 2 || m.Get(later) != 3 {
		t.Fatalf("got %d %d %d, want 1 2 3", m.Get(x), m.Get(n), m.Get(later))
	}
}
