package hetensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"eva/internal/builder"
	"eva/internal/execute"
)

// plainConv2D is an independent same-padded stride-1 convolution used to
// validate the homomorphic kernel's rotation/mask construction.
func plainConv2D(in [][]float64, h, w int, weights [][][][]float64, bias []float64) [][]float64 {
	outC := len(weights)
	kh := len(weights[0][0])
	kw := len(weights[0][0][0])
	ph, pw := kh/2, kw/2
	out := make([][]float64, outC)
	for o := 0; o < outC; o++ {
		out[o] = make([]float64, h*w)
		for r := 0; r < h; r++ {
			for c := 0; c < w; c++ {
				acc := 0.0
				for i := range in {
					for dy := -ph; dy <= ph; dy++ {
						for dx := -pw; dx <= pw; dx++ {
							sr, sc := r+dy, c+dx
							if sr < 0 || sr >= h || sc < 0 || sc >= w {
								continue
							}
							acc += weights[o][i][dy+ph][dx+pw] * in[i][sr*w+sc]
						}
					}
				}
				if bias != nil {
					acc += bias[o]
				}
				out[o][r*w+c] = acc
			}
		}
	}
	return out
}

func randKernel(rng *rand.Rand, outC, inC, k int) [][][][]float64 {
	w := make([][][][]float64, outC)
	for o := range w {
		w[o] = make([][][]float64, inC)
		for i := range w[o] {
			w[o][i] = make([][]float64, k)
			for y := range w[o][i] {
				w[o][i][y] = make([]float64, k)
				for x := range w[o][i][y] {
					w[o][i][y][x] = rng.Float64()*2 - 1
				}
			}
		}
	}
	return w
}

func randPlane(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.Float64()*2 - 1
	}
	return v
}

// runReferenceTensor builds the program, runs the reference executor, and
// returns the named outputs.
func runRef(t *testing.T, b *builder.Builder, in execute.Inputs) map[string][]float64 {
	t.Helper()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	out, err := execute.RunReference(p, in)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConv2DMatchesPlain(t *testing.T) {
	const h, w = 8, 8
	rng := rand.New(rand.NewSource(1))
	b := builder.New("conv", h*w)
	tc := NewCompiler(b, 20, 15)
	in, err := tc.InputImage("image", 2, h, w, 30)
	if err != nil {
		t.Fatal(err)
	}
	weights := randKernel(rng, 3, 2, 3)
	bias := []float64{0.1, -0.2, 0.3}
	out, err := tc.Conv2D("conv1", in, weights, bias)
	if err != nil {
		t.Fatal(err)
	}
	for o, ch := range out.Channels {
		b.Output(fmt.Sprintf("out%d", o), ch, 30)
	}

	inputs := execute.Inputs{"image_c0": randPlane(rng, h*w), "image_c1": randPlane(rng, h*w)}
	got := runRef(t, b, inputs)
	want := plainConv2D([][]float64{inputs["image_c0"], inputs["image_c1"]}, h, w, weights, bias)
	for o := 0; o < 3; o++ {
		for p := 0; p < h*w; p++ {
			if math.Abs(got[fmt.Sprintf("out%d", o)][p]-want[o][p]) > 1e-9 {
				t.Fatalf("conv output channel %d pixel %d: got %g want %g", o, p, got[fmt.Sprintf("out%d", o)][p], want[o][p])
			}
		}
	}
}

func TestAvgPool2MatchesPlain(t *testing.T) {
	const h, w = 4, 8
	rng := rand.New(rand.NewSource(2))
	b := builder.New("pool", h*w)
	tc := NewCompiler(b, 20, 15)
	in, err := tc.InputImage("image", 1, h, w, 30)
	if err != nil {
		t.Fatal(err)
	}
	out, err := tc.AvgPool2("pool1", in)
	if err != nil {
		t.Fatal(err)
	}
	if out.H != 2 || out.W != 4 {
		t.Fatalf("pooled shape %dx%d, want 2x4", out.H, out.W)
	}
	b.Output("pooled", out.Channels[0], 30)

	img := randPlane(rng, h*w)
	got := runRef(t, b, execute.Inputs{"image_c0": img})["pooled"]
	for r := 0; r < 2; r++ {
		for c := 0; c < 4; c++ {
			want := (img[(2*r)*w+2*c] + img[(2*r)*w+2*c+1] + img[(2*r+1)*w+2*c] + img[(2*r+1)*w+2*c+1]) / 4
			if math.Abs(got[r*4+c]-want) > 1e-9 {
				t.Fatalf("pooled (%d,%d): got %g want %g", r, c, got[r*4+c], want)
			}
		}
	}
}

func TestActivations(t *testing.T) {
	const h, w = 4, 4
	b := builder.New("act", h*w)
	tc := NewCompiler(b, 20, 15)
	in, _ := tc.InputImage("image", 1, h, w, 30)
	sq := tc.Square("sq", in)
	poly := tc.PolyActivation("poly", in, []float64{1, 2, 3})
	b.Output("sq", sq.Channels[0], 30)
	b.Output("poly", poly.Channels[0], 30)
	img := make([]float64, h*w)
	for i := range img {
		img[i] = float64(i) / 8
	}
	got := runRef(t, b, execute.Inputs{"image_c0": img})
	for i, x := range img {
		if math.Abs(got["sq"][i]-x*x) > 1e-9 {
			t.Fatalf("square at %d: got %g want %g", i, got["sq"][i], x*x)
		}
		want := 1 + 2*x + 3*x*x
		if math.Abs(got["poly"][i]-want) > 1e-9 {
			t.Fatalf("poly at %d: got %g want %g", i, got["poly"][i], want)
		}
	}
}

// TestFlattenFCMatchesPlain checks FlattenFC's values against a plain dot
// product, and that it reduces slots once per neuron, not once per channel:
// the program holds outLen·log2(H·W) reduction rotations plus one placement
// rotation per neuron, whatever the channel count.
func TestFlattenFCMatchesPlain(t *testing.T) {
	const h, w, outLen = 4, 4, 3
	for _, channels := range []int{1, 2} {
		rng := rand.New(rand.NewSource(3))
		b := builder.New("fc", h*w)
		tc := NewCompiler(b, 20, 15)
		in, _ := tc.InputImage("image", channels, h, w, 30)
		weights := make([][]float64, outLen)
		for j := range weights {
			weights[j] = randPlane(rng, channels*h*w)
		}
		bias := []float64{0.5, -0.5, 0.25}
		out, err := tc.FlattenFC("fc1", in, weights, bias)
		if err != nil {
			t.Fatal(err)
		}
		if out.Length != outLen {
			t.Fatalf("fc output length %d, want %d", out.Length, outLen)
		}
		b.Output("fc", out.Value, 30)

		p, err := b.Program()
		if err != nil {
			t.Fatal(err)
		}
		stats := p.ComputeStats()
		const log2HW = 4
		if got, want := stats.Instructions["ROTATE_LEFT"]+stats.Instructions["ROTATE_RIGHT"], outLen*log2HW+outLen; got != want {
			t.Errorf("%d channels: %d rotations, want %d (one slot reduction per neuron)", channels, got, want)
		}

		inputs := execute.Inputs{}
		for c := 0; c < channels; c++ {
			inputs[fmt.Sprintf("image_c%d", c)] = randPlane(rng, h*w)
		}
		got, err := execute.RunReference(p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < outLen; j++ {
			want := bias[j]
			for c := 0; c < channels; c++ {
				for i := 0; i < h*w; i++ {
					want += weights[j][c*h*w+i] * inputs[fmt.Sprintf("image_c%d", c)][i]
				}
			}
			if math.Abs(got["fc"][j]-want) > 1e-9 {
				t.Fatalf("%d channels: fc neuron %d: got %g want %g", channels, j, got["fc"][j], want)
			}
		}
	}
}

func TestFCAndGlobalPool(t *testing.T) {
	const h, w = 4, 4
	rng := rand.New(rand.NewSource(4))
	b := builder.New("head", h*w)
	tc := NewCompiler(b, 20, 15)
	in, _ := tc.InputImage("image", 2, h, w, 30)

	gap, err := tc.GlobalAvgPool("gap", in)
	if err != nil {
		t.Fatal(err)
	}
	w2 := [][]float64{{1, 2}, {-1, 1}, {0.5, 0.5}}
	fc, err := tc.FC("fc", gap, w2, []float64{0, 1, -1})
	if err != nil {
		t.Fatal(err)
	}
	b.Output("gap", gap.Value, 30)
	b.Output("fc", fc.Value, 30)

	inputs := execute.Inputs{"image_c0": randPlane(rng, h*w), "image_c1": randPlane(rng, h*w)}
	got := runRef(t, b, inputs)
	means := make([]float64, 2)
	for c := 0; c < 2; c++ {
		for _, v := range inputs[fmt.Sprintf("image_c%d", c)] {
			means[c] += v
		}
		means[c] /= float64(h * w)
	}
	for c := 0; c < 2; c++ {
		if math.Abs(got["gap"][c]-means[c]) > 1e-9 {
			t.Fatalf("gap channel %d: got %g want %g", c, got["gap"][c], means[c])
		}
	}
	for j := 0; j < 3; j++ {
		want := w2[j][0]*means[0] + w2[j][1]*means[1] + []float64{0, 1, -1}[j]
		if math.Abs(got["fc"][j]-want) > 1e-9 {
			t.Fatalf("fc neuron %d: got %g want %g", j, got["fc"][j], want)
		}
	}
}

func TestKernelErrors(t *testing.T) {
	b := builder.New("err", 64)
	tc := NewCompiler(b, 20, 15)
	if _, err := tc.InputImage("image", 0, 8, 8, 30); err == nil {
		t.Error("expected error for zero channels")
	}
	if _, err := tc.InputImage("image", 1, 16, 16, 30); err == nil {
		t.Error("expected error for plane larger than the vector")
	}
	in, err := tc.InputImage("img", 1, 8, 8, 30)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Conv2D("c", in, randKernel(rand.New(rand.NewSource(5)), 1, 2, 3), nil); err == nil {
		t.Error("expected error for channel mismatch")
	}
	if _, err := tc.Conv2D("c", in, randKernel(rand.New(rand.NewSource(6)), 1, 1, 2), nil); err == nil {
		t.Error("expected error for even kernel size")
	}
	if _, err := tc.Conv2D("c", in, randKernel(rand.New(rand.NewSource(7)), 2, 1, 3), []float64{1}); err == nil {
		t.Error("expected error for bias length mismatch")
	}
	if _, err := tc.Conv2D("c", in, [][][][]float64{{{}}}, nil); err == nil {
		t.Error("expected error for an empty kernel")
	}
	mixed := append(randKernel(rand.New(rand.NewSource(8)), 1, 1, 3), randKernel(rand.New(rand.NewSource(9)), 1, 1, 1)...)
	if _, err := tc.Conv2D("c", in, mixed, nil); err == nil {
		t.Error("expected error for a 3x3 kernel followed by a 1x1 one")
	}
	if _, err := tc.FlattenFC("fc", in, [][]float64{make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for FC weight shape mismatch")
	}
	if _, err := tc.FC("fc", &Vector{Value: in.Channels[0], Length: 8}, [][]float64{make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for FC weight shape mismatch")
	}
	if _, err := tc.FlattenFC("fc", in, nil, nil); err == nil {
		t.Error("expected error for empty FC weights")
	}
	if _, err := tc.FC("fc", &Vector{Value: in.Channels[0], Length: 8}, nil, nil); err == nil {
		t.Error("expected error for empty FC weights")
	}
	if _, err := tc.FlattenFC("fc", in, [][]float64{make([]float64, 64), make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for a short later FC weight row")
	}
	if _, err := tc.FC("fc", &Vector{Value: in.Channels[0], Length: 8}, [][]float64{make([]float64, 8), make([]float64, 5)}, nil); err == nil {
		t.Error("expected error for a short later FC weight row")
	}
	odd := &Tensor{Channels: in.Channels, H: 3, W: 3}
	if _, err := tc.AvgPool2("p", odd); err == nil {
		t.Error("expected error pooling an odd-sized plane")
	}
}
