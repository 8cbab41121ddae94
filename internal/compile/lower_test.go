package compile

import (
	"maps"
	"reflect"
	"slices"
	"testing"

	"eva/internal/analysis"
	"eva/internal/core"
	"eva/internal/rewrite"
)

// checkLowering cross-checks a Result's dense form against derivations that
// do not share the lowering walk: the program's own type inference and
// statistics, the rotation steps of its rotations, Validate's chains, rewrite's
// scales and rotation sets, the term-graph estimators (cost always, peak
// memory where the program has no dead terms, whose uses the term-graph
// replay counts), each instruction's basis and each chain root's deferred
// leaves against the term-graph deferral, and — for programs with at most 64
// Cipher inputs — each input's depth against a reachability-mask fold.
func checkLowering(t testing.TB, res *Result) {
	t.Helper()
	prog := res.Program
	order := prog.TopoSort()
	types := core.InferTypes(order)
	chains, _, err := analysis.Validate(prog, res.Options.MaxRescaleLog)
	if err != nil {
		t.Fatal(err)
	}
	scales := rewrite.ComputeLogScales(prog)
	if len(res.Instrs) != len(order) {
		t.Fatalf("%d instructions for %d live terms", len(res.Instrs), len(order))
	}
	for i, in := range res.Instrs {
		term := order[i]
		switch {
		case in.Term != term:
			t.Fatalf("instruction %d is %s, the topological order has %s", i, in.Term, term)
		case in.Cipher != (types.Get(term) == core.TypeCipher):
			t.Fatalf("%s: Cipher %v, inferred type %s", term, in.Cipher, types.Get(term))
		case in.Level != len(chains[term]):
			t.Fatalf("%s: Level %d, chain %v", term, in.Level, chains[term])
		case in.LogScale != scales[term]:
			t.Fatalf("%s: LogScale %g, computed scale %g", term, in.LogScale, scales[term])
		}
	}
	if want := prog.ComputeStats(); !reflect.DeepEqual(res.CompiledStats, want) {
		t.Errorf("CompiledStats %+v, ComputeStats %+v", res.CompiledStats, want)
	}
	stepSet := map[int]bool{}
	for _, term := range order {
		if term.Op.IsRotation() {
			stepSet[term.EffectiveRotation()] = true
		}
	}
	if want := slices.Sorted(maps.Keys(stepSet)); !slices.Equal(res.RotationSteps, want) {
		t.Errorf("RotationSteps %v, program rotation steps %v", res.RotationSteps, want)
	}
	model := res.CostModel()
	if got, want := res.Cost(), referenceCost(model, prog); !reflect.DeepEqual(got, want) {
		t.Errorf("Cost %+v, the term-graph walk gives %+v", got, want)
	}
	deferred, finished, lifted := referenceDeferred(prog)
	for i, in := range res.Instrs {
		term := order[i]
		if (in.Basis == BasisQP) != deferred[term] {
			t.Errorf("%s: basis %d, the term-graph walk defers it: %v", term, in.Basis, deferred[term])
		}
		if w := in.Work; in.Chain != nil && (w.Leaves != finished[term] || (w.Leaves > 0 && w.Lift != lifted[term])) {
			t.Errorf("%s: finishes %d deferred leaves (lift %v), the term-graph walk %d (lift %v)", term, w.Leaves, w.Lift, finished[term], lifted[term])
		}
	}
	if prog.NumTerms() == len(res.Instrs) {
		if got, want := res.PeakMemoryBytes(), referencePeak(model, prog); got != want {
			t.Errorf("PeakMemoryBytes %d, the term-graph replay gives %d", got, want)
		}
	}
	sets := rewrite.RotationSets(prog)
	if len(res.Hoists) != len(sets) {
		t.Fatalf("%d hoist sets, rewrite finds %d rotation sets", len(res.Hoists), len(sets))
	}
	for s, set := range sets {
		steps := make([]int, len(set))
		for i, m := range set {
			steps[i] = m.EffectiveRotation()
			if in := res.Instrs[slices.Index(order, m)]; in.Hoist != int32(s) || in.HoistPos != int32(i) {
				t.Fatalf("%s is member %d of rotation set %d, lowered as %d of %d", m, i, s, in.HoistPos, in.Hoist)
			}
		}
		if !slices.Equal(res.Hoists[s].Steps, steps) {
			t.Errorf("hoist set %d steps %v, want %v", s, res.Hoists[s].Steps, steps)
		}
	}

	if len(res.Inputs) != len(prog.Inputs()) {
		t.Fatalf("%d inputs, the program declares %d", len(res.Inputs), len(prog.Inputs()))
	}
	depths := maskFoldDepths(prog, chains)
	for i, in := range res.Inputs {
		if in.Term != prog.Inputs()[i] {
			t.Fatalf("input %d is %s, declared %s", i, in.Term, prog.Inputs()[i])
		}
		if want, ok := depths[in.Term.Name]; ok && in.Depth != want {
			t.Errorf("input %q: depth %d, the mask fold says %d", in.Term.Name, in.Depth, want)
		}
	}
	checkGroups(t, res)
}

// checkGroups holds the level groups to their definition, computed by brute
// force: the Cipher inputs' reached-term sets, a pair of inputs related when
// the sets meet, and the groups the classes of that relation's transitive
// closure, each named by its first input. An output's group is that of any
// Cipher input it reaches.
func checkGroups(t testing.TB, res *Result) {
	t.Helper()
	order := res.Program.TopoSort()
	var live []int // indices into res.Inputs
	var reached []map[*core.Term]bool
	for k, in := range res.Inputs {
		if in.ID < 0 || in.Term.InType != core.TypeCipher {
			if in.Group != -1 {
				t.Errorf("input %q: group %d, want -1 (dead or Plain)", in.Term.Name, in.Group)
			}
			continue
		}
		set := map[*core.Term]bool{in.Term: true}
		for _, term := range order {
			for _, p := range term.Parms() {
				if set[p] {
					set[term] = true
				}
			}
		}
		live = append(live, k)
		reached = append(reached, set)
	}
	related := make([][]bool, len(live))
	for i := range related {
		related[i] = make([]bool, len(live))
		for j := range related[i] {
			for term := range reached[i] {
				if reached[j][term] {
					related[i][j] = true
					break
				}
			}
		}
	}
	for m := range live {
		for i := range live {
			for j := range live {
				related[i][j] = related[i][j] || related[i][m] && related[m][j]
			}
		}
	}
	for i, k := range live {
		first := live[slices.Index(related[i], true)]
		if in := res.Inputs[k]; in.Group != first {
			t.Fatalf("input %q: group %d, want %d (the first input it shares a term with, transitively)", in.Term.Name, in.Group, first)
		}
	}
	for _, o := range res.Outputs {
		want := -1
		for i, k := range live {
			if reached[i][res.Instrs[o.ID].Term] {
				want = res.Inputs[k].Group
			}
		}
		if o.Group != want {
			t.Errorf("output %q: group %d, want %d", o.Name, o.Group, want)
		}
	}
}

// maskFoldDepths is the required-level rule the serving tier used before the
// compiler published input depths: per Cipher input, the longest chain of
// any term the input reaches, with inputs tracked as bits in a reachability
// mask folded forward over the terms. The fold needs a topological order;
// the serving tier's version walked Program.Terms(), creation order, which
// rewrites break (a RESCALE inserted after a product is created after the
// product's consumers), so it undercounted. It returns nil above 64 Cipher
// inputs, where the mask runs out of bits.
func maskFoldDepths(prog *core.Program, chains map[*core.Term]analysis.Chain) map[string]int {
	req := map[string]int{}
	idx := map[*core.Term]int{}
	var names []string
	for _, in := range prog.Inputs() {
		if in.InType == core.TypeCipher {
			idx[in] = len(names)
			names = append(names, in.Name)
			req[in.Name] = 0
		}
	}
	if len(names) > 64 {
		return nil
	}
	masks := map[*core.Term]uint64{}
	for _, t := range prog.TopoSort() {
		var m uint64
		if i, ok := idx[t]; ok {
			m |= 1 << uint(i)
		}
		for _, p := range t.Parms() {
			m |= masks[p]
		}
		if m == 0 {
			continue
		}
		masks[t] = m
		d := len(chains[t])
		if d == 0 {
			continue
		}
		for i, name := range names {
			if m&(1<<uint(i)) != 0 && d > req[name] {
				req[name] = d
			}
		}
	}
	return req
}

// TestChainAdmission: Lower fuses a sum of products only when the fused
// kernel accepts its operands — every leaf ciphertext of degree 1, every
// product at one level and one scale — so a chain never falls back to its
// members at run time.
func TestChainAdmission(t *testing.T) {
	must := func(term *core.Term, err error) *core.Term {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return term
	}
	// build returns x·c1 + y·c2 with y squared first when square is set, and
	// the two products.
	build := func(square bool) (*core.Program, *core.Term, *core.Term) {
		p := core.MustNewProgram("sum", 8)
		x := must(p.NewInput("x", core.TypeCipher, 8, 30))
		y := must(p.NewInput("y", core.TypeCipher, 8, 30))
		if square {
			y = must(p.NewBinary(core.OpMultiply, y, y))
		}
		c1 := must(p.NewConstant([]float64{1, 2}, 30))
		c2 := must(p.NewConstant([]float64{3, 4}, 30))
		p1 := must(p.NewBinary(core.OpMultiply, x, c1))
		p2 := must(p.NewBinary(core.OpMultiply, y, c2))
		p.AddOutput("out", must(p.NewBinary(core.OpAdd, p1, p2)), 30)
		return p, p1, p2
	}
	cases := []struct {
		name   string
		square bool
		// skew makes the second product differ from the first.
		skew  func(p2 *core.Term, levels map[*core.Term]int, scales map[*core.Term]float64)
		fused bool
	}{
		{"uniform", false, func(*core.Term, map[*core.Term]int, map[*core.Term]float64) {}, true},
		{"levels differ", false, func(p2 *core.Term, levels map[*core.Term]int, _ map[*core.Term]float64) {
			levels[p2] = 1
		}, false},
		{"scales differ", false, func(p2 *core.Term, _ map[*core.Term]int, scales map[*core.Term]float64) {
			scales[p2]++
		}, false},
		{"degree-2 leaf", true, func(p2 *core.Term, _ map[*core.Term]int, scales map[*core.Term]float64) {
			scales[p2] = 60 // as the first product's, so only the degree differs
		}, false},
	}
	for _, tc := range cases {
		prog, p1, p2 := build(tc.square)
		levels := map[*core.Term]int{}
		scales := rewrite.ComputeLogScales(prog)
		tc.skew(p2, levels, scales)
		if scales[p1] != 60 {
			t.Fatalf("%s: first product at scale %g, want 60", tc.name, scales[p1])
		}
		res := Lower(prog, factsOf(prog, levels, scales))
		if fused := slices.ContainsFunc(res.Instrs, func(in Instr) bool { return in.Chain != nil }); fused != tc.fused {
			t.Errorf("%s: fused %v, want %v", tc.name, fused, tc.fused)
		}
	}
}
