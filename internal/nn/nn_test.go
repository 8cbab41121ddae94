package nn

import (
	"math"
	"math/rand"
	"testing"

	"eva/internal/chet"
	"eva/internal/compile"
	"eva/internal/execute"
)

func TestNetworkDefinitionsMatchTable3(t *testing.T) {
	cfg := BenchConfig()
	nets := All(cfg)
	if len(nets) != 5 {
		t.Fatalf("expected 5 networks, got %d", len(nets))
	}
	for _, n := range nets {
		conv, fc, act := n.CountLayers()
		if conv != n.Paper.ConvLayers || fc != n.Paper.FCLayers || act != n.Paper.ActLayers {
			t.Errorf("%s: layer counts conv/fc/act = %d/%d/%d, want %d/%d/%d (Table 3)",
				n.Name, conv, fc, act, n.Paper.ConvLayers, n.Paper.FCLayers, n.Paper.ActLayers)
		}
		if n.Paper.EVALogQ >= n.Paper.CHETLogQ && n.Name != "" {
			// Sanity of the recorded paper numbers themselves.
			t.Errorf("%s: paper numbers look wrong (EVA logQ %d >= CHET logQ %d)", n.Name, n.Paper.EVALogQ, n.Paper.CHETLogQ)
		}
	}
}

func TestRandomWeightsShapes(t *testing.T) {
	cfg := BenchConfig()
	rng := rand.New(rand.NewSource(1))
	for _, n := range All(cfg) {
		w := RandomWeights(n, rng)
		for _, l := range n.Layers {
			switch l.Kind {
			case LayerConv:
				k := w.Conv[l.Name]
				if len(k) != l.OutChannels {
					t.Fatalf("%s/%s: %d output kernels, want %d", n.Name, l.Name, len(k), l.OutChannels)
				}
				if len(w.Bias[l.Name]) != l.OutChannels {
					t.Fatalf("%s/%s: bias length mismatch", n.Name, l.Name)
				}
			case LayerFC:
				if len(w.FC[l.Name]) != l.OutFeatures {
					t.Fatalf("%s/%s: %d FC rows, want %d", n.Name, l.Name, len(w.FC[l.Name]), l.OutFeatures)
				}
			}
		}
	}
}

func TestBuildProgramAllNetworks(t *testing.T) {
	cfg := BenchConfig()
	rng := rand.New(rand.NewSource(2))
	for _, n := range All(cfg) {
		w := RandomWeights(n, rng)
		prog, err := BuildProgram(n, w)
		if err != nil {
			t.Fatalf("%s: %v", n.Name, err)
		}
		if _, err := prog.ValidateStructure(true); err != nil {
			t.Fatalf("%s: invalid program: %v", n.Name, err)
		}
		in := RandomImage(n, rng)
		out, err := execute.RunReference(prog, in)
		if err != nil {
			t.Fatalf("%s: reference run: %v", n.Name, err)
		}
		scores := out["scores"]
		if len(scores) < n.NumClasses {
			t.Fatalf("%s: only %d score slots", n.Name, len(scores))
		}
		for i := 0; i < n.NumClasses; i++ {
			if math.IsNaN(scores[i]) || math.IsInf(scores[i], 0) {
				t.Fatalf("%s: score %d is not finite: %g", n.Name, i, scores[i])
			}
		}
	}
}

func TestCompileEVAAndCHETParameterComparison(t *testing.T) {
	// The headline Table 6 relationship must hold on our instantiation too:
	// CHET's local per-kernel insertion selects at least as many chain primes
	// and at least as large a total modulus as EVA's global analysis.
	cfg := BenchConfig()
	rng := rand.New(rand.NewSource(3))
	for _, n := range []*Network{LeNet5Small(cfg), Industrial(cfg)} {
		w := RandomWeights(n, rng)
		prog, err := BuildProgram(n, w)
		if err != nil {
			t.Fatal(err)
		}
		opts := compile.DefaultOptions()
		opts.AllowInsecure = true
		evaRes, err := compile.Compile(prog, opts)
		if err != nil {
			t.Fatalf("%s: EVA compile: %v", n.Name, err)
		}
		chetRes, err := chet.Compile(prog, opts)
		if err != nil {
			t.Fatalf("%s: CHET compile: %v", n.Name, err)
		}
		if chetRes.Plan.NumPrimes() < evaRes.Plan.NumPrimes() {
			t.Errorf("%s: CHET selected fewer primes (%d) than EVA (%d); expected the opposite",
				n.Name, chetRes.Plan.NumPrimes(), evaRes.Plan.NumPrimes())
		}
		if chetRes.Plan.LogQP() < evaRes.Plan.LogQP() {
			t.Errorf("%s: CHET modulus (%d bits) smaller than EVA's (%d bits); expected the opposite",
				n.Name, chetRes.Plan.LogQP(), evaRes.Plan.LogQP())
		}
	}
}

func TestArgmaxAndShapeHelpers(t *testing.T) {
	if Argmax([]float64{0.1, 3, 2}, 3) != 1 {
		t.Error("Argmax wrong")
	}
	if Argmax([]float64{5, 1}, 1) != 0 {
		t.Error("Argmax with limit wrong")
	}
	// The last FC layer maps fc1's flat 1×1 features to the 10 classes.
	n := LeNet5Small(BenchConfig())
	fc2 := RandomWeights(n, rand.New(rand.NewSource(4))).FC["fc2"]
	if len(fc2) != 10 || len(fc2[0]) != n.Layers[6].OutFeatures {
		t.Errorf("fc2 weights = %d rows of %d; want 10 rows of %d", len(fc2), len(fc2[0]), n.Layers[6].OutFeatures)
	}
	cfg := Config{}
	norm := cfg.normalize()
	if norm.InputSize != 8 || norm.ChannelDivisor != 1 {
		t.Errorf("normalize = %+v", norm)
	}
	full := FullConfig()
	if full.InputSize != 32 || full.ChannelDivisor != 1 {
		t.Errorf("FullConfig = %+v", full)
	}
}
