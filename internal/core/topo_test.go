package core_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"eva/internal/apps"
	"eva/internal/compile"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
)

// referenceLive is the set of terms TopoSort emits, kept as a map: every
// term reachable from an output, or every term if there are no outputs.
func referenceLive(p *core.Program) map[*core.Term]bool {
	live := map[*core.Term]bool{}
	var visit func(t *core.Term)
	visit = func(t *core.Term) {
		if live[t] {
			return
		}
		live[t] = true
		for _, parm := range t.Parms() {
			visit(parm)
		}
	}
	for _, o := range p.Outputs() {
		visit(o.Term)
	}
	if len(p.Outputs()) == 0 {
		for _, t := range p.Terms() {
			live[t] = true
		}
	}
	return live
}

// referenceTopoSort is TopoSort as it was written before it stopped
// allocating a set per emitted term and a map per sort: Kahn's algorithm over
// the live terms in creation order, where an emitted term retires all its
// edges to a child at the child's first use. Canonical serialization, and so
// every registry id, depends on this order.
func referenceTopoSort(p *core.Program) []*core.Term {
	live := referenceLive(p)
	indeg := map[*core.Term]int{}
	var queue, out []*core.Term
	for _, t := range p.Terms() {
		if !live[t] {
			continue
		}
		for _, parm := range t.Parms() {
			if live[parm] {
				indeg[t]++
			}
		}
		if indeg[t] == 0 {
			queue = append(queue, t)
		}
	}
	for len(queue) > 0 {
		t := queue[0]
		queue = queue[1:]
		out = append(out, t)
		seen := map[*core.Term]bool{}
		for _, c := range t.Uses() {
			if !live[c] || seen[c] {
				continue
			}
			seen[c] = true
			for _, parm := range c.Parms() {
				if parm == t {
					indeg[c]--
				}
			}
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	return out
}

func requireReferenceOrder(t *testing.T, name string, p *core.Program) {
	t.Helper()
	if got, want := p.TopoSort(), referenceTopoSort(p); !slices.Equal(got, want) {
		t.Errorf("%s: TopoSort differs from the reference order (%d vs %d terms)", name, len(got), len(want))
	}
}

// TestTopoSortInterleavedUses pins the case a per-use decrement would get
// wrong: a child that takes the term twice, through uses interleaved with
// another child's, is queued at its first use.
func TestTopoSortInterleavedUses(t *testing.T) {
	p := core.MustNewProgram("interleaved", 8)
	x, _ := p.NewInput("x", core.TypeCipher, 8, 30)
	y, _ := p.NewInput("y", core.TypeCipher, 8, 30)
	c, _ := p.NewBinary(core.OpAdd, x, y)
	d, _ := p.NewUnary(core.OpNegate, x)
	p.SetParm(c, 1, x) // x's uses are now (c, 0), (d, 0), (c, 1)
	out, _ := p.NewBinary(core.OpMultiply, c, d)
	if err := p.AddOutput("out", out, 30); err != nil {
		t.Fatal(err)
	}
	if got, want := p.TopoSort(), []*core.Term{x, c, d, out}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	requireReferenceOrder(t, "interleaved", p)
}

// TestTopoSortMatchesReference compares TopoSort with the reference on every
// program the repo compiles for real, before and after compilation.
func TestTopoSortMatchesReference(t *testing.T) {
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
		if progs[filepath.Base(path)], err = lang.ParseProgram(string(src)); err != nil {
			t.Fatal(err)
		}
	}
	suite, err := apps.Suite(64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range suite {
		progs["app/"+app.Name] = app.Program
	}
	configs := map[string]nn.Config{"bench": nn.BenchConfig()}
	if !raceEnabled {
		configs["full"] = nn.FullConfig()
	}
	rng := rand.New(rand.NewSource(1))
	for name, cfg := range configs {
		for _, net := range []*nn.Network{nn.Industrial(cfg), nn.SqueezeNetCIFAR(cfg)} {
			if progs["nn/"+name+"/"+net.Name], err = nn.BuildProgram(net, nn.RandomWeights(net, rng)); err != nil {
				t.Fatal(err)
			}
		}
	}

	opts := compile.DefaultOptions()
	opts.AllowInsecure = true
	for name, prog := range progs {
		requireReferenceOrder(t, name, prog)
		res, err := compile.Compile(prog, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireReferenceOrder(t, name+"/compiled", res.Program)
	}
}
