// Package nn defines the deep neural networks of the paper's evaluation
// (Table 3): the three LeNet-5 variants, the proprietary "Industrial"
// network, and SqueezeNet-CIFAR, together with the paper's reported numbers
// for Tables 3-7. Networks are described as layer lists and lowered onto the
// hetensor kernel library; weights are randomly generated (the paper itself
// uses random weights for the Industrial network, and the MNIST/CIFAR models
// are not available offline, so every network substitutes random weights).
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"eva/internal/builder"
	"eva/internal/core"
	"eva/internal/execute"
	"eva/internal/hetensor"
)

// LayerKind enumerates the layer types used by the evaluation networks.
type LayerKind int

const (
	// LayerConv is a same-padded stride-1 convolution.
	LayerConv LayerKind = iota
	// LayerAct is a polynomial activation.
	LayerAct
	// LayerPool is 2x2 average pooling with stride 2.
	LayerPool
	// LayerFC is a fully-connected layer (flattening its input if needed).
	LayerFC
	// LayerGlobalPool is global average pooling producing one value per channel.
	LayerGlobalPool
)

// Layer is one entry of a network architecture.
type Layer struct {
	Kind        LayerKind
	Name        string
	OutChannels int       // convolution output channels
	Kernel      int       // convolution kernel size (odd)
	OutFeatures int       // fully-connected output size
	ActCoeffs   []float64 // activation polynomial coefficients (nil = x²)
}

// ScaleProfile carries the programmer-specified fixed-point scales of the
// paper's Table 4 (log2 values).
type ScaleProfile struct {
	Cipher, Vector, Scalar, Output float64
}

// PaperNumbers collects the values the paper reports for a network, used by
// the benchmark harness to print paper-vs-measured tables.
type PaperNumbers struct {
	// Table 3.
	ConvLayers, FCLayers, ActLayers int
	FPOperations                    int64
	UnencryptedAccuracy             float64
	// Table 4.
	CHETAccuracy, EVAAccuracy float64
	// Table 5 (seconds, 56 threads).
	CHETLatency, EVALatency float64
	// Table 6.
	CHETLogN, CHETLogQ, CHETPrimes int
	EVALogN, EVALogQ, EVAPrimes    int
	// Table 7 (seconds).
	CompileTime, ContextTime, EncryptTime, DecryptTime float64
}

// Network is an architecture plus its evaluation metadata.
type Network struct {
	Name          string
	InputChannels int
	InputSize     int // input images are InputSize x InputSize
	NumClasses    int
	Layers        []Layer
	Scales        ScaleProfile
	Paper         PaperNumbers
}

// squareAct is the default FHE-friendly activation.
var squareAct = []float64{0, 0.5, 0.25}

// Config controls how large the instantiated networks are. The paper-scale
// networks (28x28 MNIST, 32x32 CIFAR inputs and full channel counts) are
// expensive in a pure-Go CKKS backend, so the benchmarks default to a reduced
// configuration that preserves every layer and the relative comparisons.
type Config struct {
	// InputSize overrides the input image side (must be a power of two).
	InputSize int
	// ChannelDivisor divides every channel and feature count (minimum 1).
	ChannelDivisor int
}

// BenchConfig is the reduced configuration used by tests and default benchmarks.
func BenchConfig() Config { return Config{InputSize: 8, ChannelDivisor: 4} }

// FullConfig approximates the paper-scale configuration (inputs padded to the
// next power of two: MNIST 28x28 -> 32x32).
func FullConfig() Config { return Config{InputSize: 32, ChannelDivisor: 1} }

func (c Config) normalize() Config {
	if c.InputSize <= 0 {
		c.InputSize = 8
	}
	if c.ChannelDivisor < 1 {
		c.ChannelDivisor = 1
	}
	return c
}

func (c Config) ch(n int) int {
	v := n / c.ChannelDivisor
	if v < 1 {
		v = 1
	}
	return v
}

// LeNet5Small is the smallest MNIST network of Table 3.
func LeNet5Small(cfg Config) *Network {
	cfg = cfg.normalize()
	return &Network{
		Name: "LeNet-5-small", InputChannels: 1, InputSize: cfg.InputSize, NumClasses: 10,
		Layers: []Layer{
			{Kind: LayerConv, Name: "conv1", OutChannels: cfg.ch(8), Kernel: 5},
			{Kind: LayerAct, Name: "act1"},
			{Kind: LayerPool, Name: "pool1"},
			{Kind: LayerConv, Name: "conv2", OutChannels: cfg.ch(16), Kernel: 5},
			{Kind: LayerAct, Name: "act2"},
			{Kind: LayerPool, Name: "pool2"},
			{Kind: LayerFC, Name: "fc1", OutFeatures: cfg.ch(64)},
			{Kind: LayerAct, Name: "act3"},
			{Kind: LayerFC, Name: "fc2", OutFeatures: 10},
			{Kind: LayerAct, Name: "act4"},
		},
		Scales: ScaleProfile{Cipher: 25, Vector: 15, Scalar: 10, Output: 30},
		Paper: PaperNumbers{
			ConvLayers: 2, FCLayers: 2, ActLayers: 4, FPOperations: 159960, UnencryptedAccuracy: 98.45,
			CHETAccuracy: 98.42, EVAAccuracy: 98.45,
			CHETLatency: 3.7, EVALatency: 0.6,
			CHETLogN: 15, CHETLogQ: 480, CHETPrimes: 8, EVALogN: 14, EVALogQ: 360, EVAPrimes: 6,
			CompileTime: 0.14, ContextTime: 1.21, EncryptTime: 0.03, DecryptTime: 0.01,
		},
	}
}

// LeNet5Medium is the mid-size MNIST network of Table 3.
func LeNet5Medium(cfg Config) *Network {
	cfg = cfg.normalize()
	n := LeNet5Small(cfg)
	n.Name = "LeNet-5-medium"
	n.Layers[0].OutChannels = cfg.ch(32)
	n.Layers[3].OutChannels = cfg.ch(64)
	n.Layers[6].OutFeatures = cfg.ch(256)
	n.Paper = PaperNumbers{
		ConvLayers: 2, FCLayers: 2, ActLayers: 4, FPOperations: 5791168, UnencryptedAccuracy: 99.11,
		CHETAccuracy: 99.07, EVAAccuracy: 99.09,
		CHETLatency: 5.8, EVALatency: 1.2,
		CHETLogN: 15, CHETLogQ: 480, CHETPrimes: 8, EVALogN: 14, EVALogQ: 360, EVAPrimes: 6,
		CompileTime: 0.50, ContextTime: 1.26, EncryptTime: 0.03, DecryptTime: 0.01,
	}
	return n
}

// LeNet5Large is the largest MNIST network of Table 3 (matching the
// TensorFlow tutorial model).
func LeNet5Large(cfg Config) *Network {
	cfg = cfg.normalize()
	n := LeNet5Small(cfg)
	n.Name = "LeNet-5-large"
	n.Layers[0].OutChannels = cfg.ch(32)
	n.Layers[3].OutChannels = cfg.ch(64)
	n.Layers[6].OutFeatures = cfg.ch(512)
	n.Scales = ScaleProfile{Cipher: 25, Vector: 20, Scalar: 10, Output: 25}
	n.Paper = PaperNumbers{
		ConvLayers: 2, FCLayers: 2, ActLayers: 4, FPOperations: 21385674, UnencryptedAccuracy: 99.30,
		CHETAccuracy: 99.34, EVAAccuracy: 99.32,
		CHETLatency: 23.3, EVALatency: 5.6,
		CHETLogN: 15, CHETLogQ: 740, CHETPrimes: 13, EVALogN: 15, EVALogQ: 480, EVAPrimes: 8,
		CompileTime: 1.13, ContextTime: 7.24, EncryptTime: 0.08, DecryptTime: 0.02,
	}
	return n
}

// Industrial is the proprietary binary-classification network (5 conv, 2 FC,
// 6 activations); as in the paper, its weights are random.
func Industrial(cfg Config) *Network {
	cfg = cfg.normalize()
	return &Network{
		Name: "Industrial", InputChannels: 1, InputSize: cfg.InputSize, NumClasses: 2,
		Layers: []Layer{
			{Kind: LayerConv, Name: "conv1", OutChannels: cfg.ch(8), Kernel: 3},
			{Kind: LayerAct, Name: "act1"},
			{Kind: LayerConv, Name: "conv2", OutChannels: cfg.ch(8), Kernel: 3},
			{Kind: LayerAct, Name: "act2"},
			{Kind: LayerPool, Name: "pool1"},
			{Kind: LayerConv, Name: "conv3", OutChannels: cfg.ch(16), Kernel: 3},
			{Kind: LayerAct, Name: "act3"},
			{Kind: LayerConv, Name: "conv4", OutChannels: cfg.ch(16), Kernel: 3},
			{Kind: LayerAct, Name: "act4"},
			{Kind: LayerConv, Name: "conv5", OutChannels: cfg.ch(16), Kernel: 3},
			{Kind: LayerPool, Name: "pool2"},
			{Kind: LayerFC, Name: "fc1", OutFeatures: cfg.ch(32)},
			{Kind: LayerAct, Name: "act5"},
			{Kind: LayerFC, Name: "fc2", OutFeatures: 2},
			{Kind: LayerAct, Name: "act6"},
		},
		Scales: ScaleProfile{Cipher: 30, Vector: 15, Scalar: 10, Output: 30},
		Paper: PaperNumbers{
			ConvLayers: 5, FCLayers: 2, ActLayers: 6,
			CHETLatency: 70.4, EVALatency: 9.6,
			CHETLogN: 16, CHETLogQ: 1222, CHETPrimes: 21, EVALogN: 15, EVALogQ: 810, EVAPrimes: 14,
			CompileTime: 0.59, ContextTime: 15.70, EncryptTime: 0.12, DecryptTime: 0.03,
		},
	}
}

// SqueezeNetCIFAR is the CIFAR-10 network with four Fire modules (10
// convolution layers, 9 activations, no FC layer).
func SqueezeNetCIFAR(cfg Config) *Network {
	cfg = cfg.normalize()
	layers := []Layer{
		{Kind: LayerConv, Name: "conv1", OutChannels: cfg.ch(16), Kernel: 3},
		{Kind: LayerAct, Name: "act1"},
		{Kind: LayerPool, Name: "pool1"},
	}
	// Four Fire modules: squeeze 1x1 followed by expand 3x3 (the expand 1x1
	// branch is folded into the expand 3x3 kernel to stay at 10 convolutions).
	fireSqueeze := []int{8, 8, 16, 16}
	fireExpand := []int{16, 16, 32, 32}
	for i := 0; i < 4; i++ {
		layers = append(layers,
			Layer{Kind: LayerConv, Name: fmt.Sprintf("fire%d_squeeze", i+1), OutChannels: cfg.ch(fireSqueeze[i]), Kernel: 1},
			Layer{Kind: LayerAct, Name: fmt.Sprintf("fire%d_act_s", i+1)},
			Layer{Kind: LayerConv, Name: fmt.Sprintf("fire%d_expand", i+1), OutChannels: cfg.ch(fireExpand[i]), Kernel: 3},
			Layer{Kind: LayerAct, Name: fmt.Sprintf("fire%d_act_e", i+1)},
		)
	}
	layers = append(layers,
		Layer{Kind: LayerConv, Name: "conv10", OutChannels: 10, Kernel: 1},
		Layer{Kind: LayerGlobalPool, Name: "global_pool"},
	)
	return &Network{
		Name: "SqueezeNet-CIFAR", InputChannels: 3, InputSize: cfg.InputSize, NumClasses: 10,
		Layers: layers,
		Scales: ScaleProfile{Cipher: 25, Vector: 15, Scalar: 10, Output: 30},
		Paper: PaperNumbers{
			ConvLayers: 10, FCLayers: 0, ActLayers: 9, FPOperations: 37759754, UnencryptedAccuracy: 79.38,
			CHETAccuracy: 79.31, EVAAccuracy: 79.34,
			CHETLatency: 344.7, EVALatency: 72.7,
			CHETLogN: 16, CHETLogQ: 1740, CHETPrimes: 29, EVALogN: 16, EVALogQ: 1225, EVAPrimes: 21,
			CompileTime: 4.06, ContextTime: 160.82, EncryptTime: 0.42, DecryptTime: 0.26,
		},
	}
}

// All returns the five evaluation networks of Table 3 at the given configuration.
func All(cfg Config) []*Network {
	return []*Network{LeNet5Small(cfg), LeNet5Medium(cfg), LeNet5Large(cfg), Industrial(cfg), SqueezeNetCIFAR(cfg)}
}

// CountLayers returns the conv/fc/act layer counts of the instantiated
// architecture (for checking against Table 3).
func (n *Network) CountLayers() (conv, fc, act int) {
	for _, l := range n.Layers {
		switch l.Kind {
		case LayerConv:
			conv++
		case LayerFC:
			fc++
		case LayerAct:
			act++
		}
	}
	return conv, fc, act
}

// Weights holds randomly generated model parameters for a network.
type Weights struct {
	Conv map[string][][][][]float64
	Bias map[string][]float64
	FC   map[string][][]float64
}

// RandomWeights draws Xavier-style random weights so activations stay bounded
// through the network (important for fixed-point evaluation).
func RandomWeights(n *Network, rng *rand.Rand) *Weights {
	w := &Weights{Conv: map[string][][][][]float64{}, Bias: map[string][]float64{}, FC: map[string][][]float64{}}
	channels := n.InputChannels
	size := n.InputSize
	for _, l := range n.Layers {
		switch l.Kind {
		case LayerConv:
			fanIn := float64(channels * l.Kernel * l.Kernel)
			scale := 1.0 / math.Sqrt(fanIn)
			kernels := make([][][][]float64, l.OutChannels)
			for o := range kernels {
				kernels[o] = make([][][]float64, channels)
				for i := range kernels[o] {
					kernels[o][i] = make([][]float64, l.Kernel)
					for y := range kernels[o][i] {
						kernels[o][i][y] = make([]float64, l.Kernel)
						for x := range kernels[o][i][y] {
							kernels[o][i][y][x] = (rng.Float64()*2 - 1) * scale
						}
					}
				}
			}
			w.Conv[l.Name] = kernels
			bias := make([]float64, l.OutChannels)
			for i := range bias {
				bias[i] = (rng.Float64()*2 - 1) * 0.1
			}
			w.Bias[l.Name] = bias
			channels = l.OutChannels
		case LayerPool:
			size /= 2
		case LayerFC:
			fanIn := channels * size * size
			if fanIn == 0 {
				fanIn = channels
			}
			scale := 1.0 / math.Sqrt(float64(fanIn))
			rows := make([][]float64, l.OutFeatures)
			for j := range rows {
				rows[j] = make([]float64, fanIn)
				for i := range rows[j] {
					rows[j][i] = (rng.Float64()*2 - 1) * scale
				}
			}
			w.FC[l.Name] = rows
			bias := make([]float64, l.OutFeatures)
			for i := range bias {
				bias[i] = (rng.Float64()*2 - 1) * 0.1
			}
			w.Bias[l.Name] = bias
			// After the first FC the spatial extent collapses.
			channels = l.OutFeatures
			size = 1
		case LayerGlobalPool:
			size = 1
		}
	}
	return w
}

// BuildProgram lowers the network onto an EVA program using the hetensor
// kernels, with one kernel label per layer. The returned program has a single
// output "scores" holding the class scores in its first NumClasses slots.
func BuildProgram(n *Network, w *Weights) (*core.Program, error) {
	// The vector must fit both the packed image planes and the widest packed
	// fully-connected activation vector.
	vecSize := n.InputSize * n.InputSize
	for _, l := range n.Layers {
		if l.Kind == LayerFC {
			need := 1
			for need < l.OutFeatures {
				need <<= 1
			}
			if need > vecSize {
				vecSize = need
			}
		}
	}
	if vecSize < 4 {
		vecSize = 4
	}
	b := builder.New(n.Name, vecSize)
	tc := hetensor.NewCompiler(b, n.Scales.Vector, n.Scales.Scalar)
	image, err := tc.InputImage("image", n.InputChannels, n.InputSize, n.InputSize, n.Scales.Cipher)
	if err != nil {
		return nil, err
	}

	var tensor = image
	var vector *hetensor.Vector
	for _, l := range n.Layers {
		switch l.Kind {
		case LayerConv:
			tensor, err = tc.Conv2D(l.Name, tensor, w.Conv[l.Name], w.Bias[l.Name])
		case LayerAct:
			coeffs := l.ActCoeffs
			if coeffs == nil {
				coeffs = squareAct
			}
			if vector != nil {
				vector = &hetensor.Vector{Value: vector.Value.Polynomial(coeffs, n.Scales.Scalar), Length: vector.Length}
			} else {
				tensor = tc.PolyActivation(l.Name, tensor, coeffs)
			}
		case LayerPool:
			tensor, err = tc.AvgPool2(l.Name, tensor)
		case LayerGlobalPool:
			vector, err = tc.GlobalAvgPool(l.Name, tensor)
		case LayerFC:
			if vector == nil {
				vector, err = tc.FlattenFC(l.Name, tensor, w.FC[l.Name], w.Bias[l.Name])
			} else {
				vector, err = tc.FC(l.Name, vector, w.FC[l.Name], w.Bias[l.Name])
			}
		default:
			err = fmt.Errorf("nn: unsupported layer kind %d", l.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("nn: %s: layer %s: %w", n.Name, l.Name, err)
		}
	}
	if vector == nil {
		return nil, fmt.Errorf("nn: %s: network does not end in a vector output", n.Name)
	}
	tc.Output("scores", vector, n.Scales.Output)
	return b.Program()
}

// RandomImage generates a random input image assignment for the network's
// program (one vector per input channel).
func RandomImage(n *Network, rng *rand.Rand) execute.Inputs {
	in := execute.Inputs{}
	pixels := n.InputSize * n.InputSize
	for c := 0; c < n.InputChannels; c++ {
		v := make([]float64, pixels)
		for i := range v {
			v[i] = rng.Float64()*2 - 1
		}
		in[fmt.Sprintf("image_c%d", c)] = v
	}
	return in
}

// Argmax returns the index of the largest of the first n values.
func Argmax(values []float64, n int) int {
	best, bestIdx := math.Inf(-1), 0
	for i := 0; i < n && i < len(values); i++ {
		if values[i] > best {
			best, bestIdx = values[i], i
		}
	}
	return bestIdx
}
