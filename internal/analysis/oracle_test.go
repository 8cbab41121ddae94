package analysis_test

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"eva/internal/analysis"
	"eva/internal/apps"
	"eva/internal/core"
	"eva/internal/lang"
	"eva/internal/nn"
	"eva/internal/rewrite"
)

// The oracle* functions are validation as three sequential passes, each with
// its own topological sort and type inference, the way it was written before
// Validate became one walk. TestValidateMatchesOracle holds Validate to them.

// oracleChains computes the rescale chain of every Cipher term, failing at
// the first term whose Cipher operands' chains differ (Constraint 1).
func oracleChains(p *core.Program) (map[*core.Term]analysis.Chain, error) {
	types := core.InferTypes(p.TopoSort())
	chains := make(map[*core.Term]analysis.Chain, p.NumTerms())
	for _, t := range p.TopoSort() {
		if types.Get(t) != core.TypeCipher {
			continue
		}
		var merged analysis.Chain
		var have bool
		for _, parm := range t.Parms() {
			if types.Get(parm) != core.TypeCipher {
				continue
			}
			pc := chains[parm]
			if !have {
				merged, have = append(analysis.Chain(nil), pc...), true
				continue
			}
			if !merged.Equal(pc) {
				return nil, &analysis.ConstraintError{Term: t, Constraint: 1,
					Detail: fmt.Sprintf("operand coefficient moduli differ: chains %v vs %v", merged, pc)}
			}
			out := slices.Clone(merged) // nil stays nil, as for the first operand
			for i := range merged {
				if math.IsInf(merged[i], 1) {
					out[i] = pc[i]
				}
			}
			merged = out
		}
		switch t.Op {
		case core.OpRescale:
			merged = append(merged, t.LogScale)
		case core.OpModSwitch:
			merged = append(merged, analysis.ModSwitchMark)
		}
		chains[t] = merged
	}
	return chains, nil
}

// oracleScales checks Constraints 2 and 4 and that no scale vanishes.
func oracleScales(p *core.Program, maxRescaleLog float64) (map[*core.Term]float64, error) {
	const tolerance = 1e-9
	scales := rewrite.ComputeLogScales(p)
	for _, t := range p.TopoSort() {
		switch t.Op {
		case core.OpAdd, core.OpSub:
			a, b := scales[t.Parm(0)], scales[t.Parm(1)]
			if math.Abs(a-b) > tolerance {
				return nil, &analysis.ConstraintError{Term: t, Constraint: 2,
					Detail: fmt.Sprintf("operand scales differ: 2^%g vs 2^%g", a, b)}
			}
		case core.OpRescale:
			if t.LogScale > maxRescaleLog {
				return nil, &analysis.ConstraintError{Term: t, Constraint: 4,
					Detail: fmt.Sprintf("rescale divisor 2^%g exceeds the maximum 2^%g", t.LogScale, maxRescaleLog)}
			}
		}
		if scales[t] <= 0 {
			return nil, &analysis.ConstraintError{Term: t, Constraint: 2,
				Detail: fmt.Sprintf("scale dropped to 2^%g; the message would be lost", scales[t])}
		}
	}
	return scales, nil
}

// oraclePolys checks Constraint 3 by tracking every Cipher term's number of
// polynomials.
func oraclePolys(p *core.Program) error {
	types := core.InferTypes(p.TopoSort())
	polys := make(map[*core.Term]int, p.NumTerms())
	maxCipherPolys := func(t *core.Term) int {
		n := 2
		for _, parm := range t.Parms() {
			if types.Get(parm) == core.TypeCipher && polys[parm] > n {
				n = polys[parm]
			}
		}
		return n
	}
	for _, t := range p.TopoSort() {
		if types.Get(t) != core.TypeCipher {
			continue
		}
		switch t.Op {
		case core.OpInput:
			polys[t] = 2
		case core.OpMultiply:
			a, b := t.Parm(0), t.Parm(1)
			if types.Get(a) == core.TypeCipher && types.Get(b) == core.TypeCipher {
				if polys[a] != 2 || polys[b] != 2 {
					return &analysis.ConstraintError{Term: t, Constraint: 3,
						Detail: fmt.Sprintf("multiplication operands have %d and %d polynomials; relinearization missing", polys[a], polys[b])}
				}
				polys[t] = 3
			} else {
				polys[t] = maxCipherPolys(t)
			}
		case core.OpRelinearize:
			polys[t] = 2
		case core.OpRotateLeft, core.OpRotateRight:
			if polys[t.Parm(0)] != 2 {
				return &analysis.ConstraintError{Term: t, Constraint: 3,
					Detail: "rotation of a ciphertext with more than two polynomials; relinearization missing"}
			}
			polys[t] = 2
		default:
			polys[t] = maxCipherPolys(t)
		}
	}
	return nil
}

// oracleValidate runs the three passes in order and returns the first error.
func oracleValidate(p *core.Program, maxRescaleLog float64) (map[*core.Term]analysis.Chain, map[*core.Term]float64, error) {
	chains, err := oracleChains(p)
	if err != nil {
		return nil, nil, err
	}
	scales, err := oracleScales(p, maxRescaleLog)
	if err != nil {
		return nil, nil, err
	}
	if err := oraclePolys(p); err != nil {
		return nil, nil, err
	}
	return chains, scales, nil
}

// validationCorpus is every examples/*.eva, the six applications at test
// size and the benchmark configuration's LeNet-5-small and Industrial.
func validationCorpus(t *testing.T) map[string]*core.Program {
	t.Helper()
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
		if progs["example/"+filepath.Base(path)], err = lang.ParseProgram(string(src)); err != nil {
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
	for _, net := range []*nn.Network{nn.LeNet5Small(nn.BenchConfig()), nn.Industrial(nn.BenchConfig())} {
		if progs["nn/"+net.Name], err = nn.BuildProgram(net, nn.RandomWeights(net, rand.New(rand.NewSource(1)))); err != nil {
			t.Fatal(err)
		}
	}
	return progs
}

// TestValidateMatchesOracle: on the corpus, transformed in full, with one of
// the modulus-switch, scale-matching and relinearization passes skipped, with
// the other strategies, and validated against a maximum rescale below the
// divisor the passes used (alone and combined), Validate and Check return the
// oracle's error — the same constraint, term and message — and on valid
// programs the oracle's chains and scales: Validate's maps equal the
// oracle's, and Check's tables hold, for every live term in the oracle's
// order, its chain, its scale and whether it is Cipher. Every constraint is
// violated somewhere in the corpus.
func TestValidateMatchesOracle(t *testing.T) {
	const maxRescaleLog = 60
	type variant struct {
		name string
		// transform rewrites the program; validateMax is Validate's maximum
		// rescale.
		transform   func(p *core.Program) error
		validateMax float64
	}
	passes := func(modswitch, matchScales, relinearize bool) func(p *core.Program) error {
		return func(p *core.Program) error {
			if err := rewrite.InsertRescaleWaterline(p, maxRescaleLog, 0); err != nil {
				return err
			}
			if modswitch {
				rewrite.InsertModSwitchEager(p)
			}
			if matchScales {
				if err := rewrite.MatchScales(p); err != nil {
					return err
				}
			}
			if relinearize {
				rewrite.InsertRelinearize(p)
			}
			return nil
		}
	}
	// noRescale inserts no RESCALE and no MOD_SWITCH: products' scales grow
	// without bound.
	noRescale := func(p *core.Program) error {
		if err := rewrite.MatchScales(p); err != nil {
			return err
		}
		rewrite.InsertRelinearize(p)
		return nil
	}
	fixedLazy := func(p *core.Program) error {
		return rewrite.Transform(p, rewrite.Options{MaxRescaleLog: maxRescaleLog, Rescale: rewrite.RescaleFixedMax, ModSwitch: rewrite.ModSwitchLazy})
	}
	variants := []variant{
		{"full", passes(true, true, true), maxRescaleLog},
		{"no-modswitch", passes(false, true, true), maxRescaleLog},
		{"no-match-scale", passes(true, false, true), maxRescaleLog},
		{"no-relinearize", passes(true, true, false), maxRescaleLog},
		{"divisor-above-max", passes(true, true, true), maxRescaleLog - 10},
		// Two kinds at once: the error reported is the higher-priority one.
		{"no-modswitch-no-relinearize", passes(false, true, false), maxRescaleLog},
		{"no-match-scale-divisor-above-max", passes(true, false, true), maxRescaleLog - 10},
		{"no-relinearize-divisor-above-max", passes(true, true, false), maxRescaleLog - 10},
		{"fixed-lazy", fixedLazy, maxRescaleLog},
		{"no-rescale", noRescale, maxRescaleLog},
	}
	seen := map[int]int{} // constraint -> cases that violate it
	for name, src := range validationCorpus(t) {
		for _, v := range variants {
			p := src.Clone()
			if err := v.transform(p); err != nil {
				t.Fatalf("%s/%s: %v", name, v.name, err)
			}
			wantChains, wantScales, wantErr := oracleValidate(p, v.validateMax)
			chains, scales, err := analysis.Validate(p, v.validateMax)
			facts, checkErr := analysis.Check(p, v.validateMax)
			if wantErr != nil {
				want := wantErr.(*analysis.ConstraintError)
				for _, e := range []error{err, checkErr} {
					got, ok := e.(*analysis.ConstraintError)
					if !ok || got.Constraint != want.Constraint || got.Term != want.Term || got.Error() != want.Error() {
						t.Errorf("%s/%s: Validate or Check returned %v; the oracle %v", name, v.name, e, wantErr)
					}
				}
				seen[want.Constraint]++
				continue
			}
			if err != nil || checkErr != nil {
				t.Errorf("%s/%s: Validate returned %v and Check %v; the oracle accepts the program", name, v.name, err, checkErr)
				continue
			}
			if !reflect.DeepEqual(chains, wantChains) || !reflect.DeepEqual(scales, wantScales) {
				t.Errorf("%s/%s: Validate's chains or scales differ from the oracle's", name, v.name)
			}
			if !slices.Equal(facts.Order, p.TopoSort()) {
				t.Errorf("%s/%s: Check's order is not the program's TopoSort", name, v.name)
			}
			for _, term := range p.TopoSort() {
				want, cipher := wantChains[term]
				if got := facts.Chains.Get(term); !reflect.DeepEqual(got, want) || (facts.Polys.Get(term) != 0) != cipher {
					t.Errorf("%s/%s: Check's chain of %s is %v (Cipher %v); the oracle's %v (Cipher %v)",
						name, v.name, term, got, facts.Polys.Get(term) != 0, want, cipher)
					break
				}
				if got := facts.Scales.Get(term); got != wantScales[term] {
					t.Errorf("%s/%s: Check's scale of %s is 2^%g; the oracle's 2^%g", name, v.name, term, got, wantScales[term])
					break
				}
			}
		}
	}
	for c := 1; c <= 4; c++ {
		if seen[c] == 0 {
			t.Errorf("no case in the corpus violates constraint %d", c)
		}
	}
	t.Logf("violations by constraint: %v", seen)
}
