// Package hetensor is the tensor frontend for EVA: a library of homomorphic
// tensor kernels (convolution, polynomial activations, average pooling,
// fully-connected layers) that lower high-level neural-network layers onto
// EVA vector instructions, playing the role of CHET's kernel library in the
// paper (Section 7.2). Both the EVA pipeline and the CHET baseline compile
// the exact same kernels; only the downstream instruction insertion and
// scheduling differ, which is precisely the comparison the paper makes.
//
// Layout: each channel of a feature map is packed row-major into its own
// ciphertext (the HW layout of CHET). Convolutions use one rotation per
// kernel tap shared across output channels and one plaintext mask
// multiplication per (input channel, output channel, tap). FC and FlattenFC
// are one dense kernel: a neuron multiplies every channel by its weight
// segment, adds the products and reduces the sum once (SumSlots is linear),
// so it takes log2(width) reduction rotations whatever the channel count.
package hetensor

import (
	"fmt"

	"eva/internal/builder"
)

// Tensor is an encrypted feature map: one expression per channel, each
// holding an H×W image packed row-major.
type Tensor struct {
	Channels []builder.Expr
	H, W     int
}

// NumChannels returns the channel count.
func (t *Tensor) NumChannels() int { return len(t.Channels) }

// Vector is an encrypted flat vector (e.g. the activations of a
// fully-connected layer) packed into the first Length slots.
type Vector struct {
	Value  builder.Expr
	Length int
}

// Compiler lowers tensor operations onto a program builder.
type Compiler struct {
	b *builder.Builder
	// WeightScale is the log2 encoding scale for plaintext weights and masks.
	WeightScale float64
	// ScalarScale is the log2 encoding scale for scalar constants.
	ScalarScale float64
}

// NewCompiler wraps a program builder. weightScale and scalarScale are the
// log2 scales at which weights/masks and scalars are encoded (the Vector and
// Scalar columns of the paper's Table 4).
func NewCompiler(b *builder.Builder, weightScale, scalarScale float64) *Compiler {
	return &Compiler{b: b, WeightScale: weightScale, ScalarScale: scalarScale}
}

// Builder returns the underlying program builder.
func (c *Compiler) Builder() *builder.Builder { return c.b }

// InputImage declares an encrypted input image of `channels` channels of size
// h×w, one Cipher input per channel, encoded at the given log2 scale.
func (c *Compiler) InputImage(name string, channels, h, w int, logScale float64) (*Tensor, error) {
	if err := c.checkPlane(h, w); err != nil {
		return nil, err
	}
	if channels <= 0 {
		return nil, fmt.Errorf("hetensor: channel count must be positive")
	}
	t := &Tensor{H: h, W: w}
	for ch := 0; ch < channels; ch++ {
		t.Channels = append(t.Channels, c.b.InputWithWidth(fmt.Sprintf("%s_c%d", name, ch), h*w, logScale))
	}
	return t, c.b.Err()
}

func (c *Compiler) checkPlane(h, w int) error {
	if h <= 0 || w <= 0 || h*w > c.b.VecSize() {
		return fmt.Errorf("hetensor: plane %dx%d does not fit the %d-slot vector", h, w, c.b.VecSize())
	}
	if h*w&(h*w-1) != 0 {
		return fmt.Errorf("hetensor: plane size %d must be a power of two", h*w)
	}
	return nil
}

// Conv2D applies a same-padded, stride-1 convolution with plaintext weights
// weights[out][in][kh][kw] and per-output-channel bias (bias may be nil).
func (c *Compiler) Conv2D(kernel string, in *Tensor, weights [][][][]float64, bias []float64) (*Tensor, error) {
	kh, kw, err := checkKernels(kernel, weights, in.NumChannels())
	if err != nil {
		return nil, err
	}
	if kh%2 == 0 || kw%2 == 0 {
		return nil, fmt.Errorf("hetensor: %s: kernel %dx%d must have odd dimensions", kernel, kh, kw)
	}
	if bias != nil && len(bias) != len(weights) {
		return nil, fmt.Errorf("hetensor: %s: bias length %d does not match %d output channels", kernel, len(bias), len(weights))
	}
	c.b.SetKernel(kernel)
	ph, pw := kh/2, kw/2
	h, w := in.H, in.W
	outC := len(weights)

	// One rotation per (input channel, tap), shared across output channels.
	rotated := make([][]builder.Expr, in.NumChannels())
	for i := range rotated {
		rotated[i] = make([]builder.Expr, kh*kw)
		for dy := -ph; dy <= ph; dy++ {
			for dx := -pw; dx <= pw; dx++ {
				rotated[i][(dy+ph)*kw+(dx+pw)] = in.Channels[i].RotateLeft(dy*w + dx)
			}
		}
	}

	out := &Tensor{H: h, W: w}
	for o := 0; o < outC; o++ {
		var acc builder.Expr
		for i := 0; i < in.NumChannels(); i++ {
			for dy := -ph; dy <= ph; dy++ {
				for dx := -pw; dx <= pw; dx++ {
					wv := weights[o][i][dy+ph][dx+pw]
					if wv == 0 {
						continue
					}
					mask := convMask(h, w, dy, dx, wv)
					acc = add(acc, rotated[i][(dy+ph)*kw+(dx+pw)].MulVector(mask, c.WeightScale))
				}
			}
		}
		if acc.Term() == nil {
			acc = c.b.Scalar(0, c.WeightScale)
		}
		if bias != nil && bias[o] != 0 {
			acc = acc.AddScalar(bias[o], c.ScalarScale)
		}
		out.Channels = append(out.Channels, acc)
	}
	return out, c.b.Err()
}

// checkKernels checks that weights holds a kh×kw kernel for every pair of
// output and input channel, with kh×kw the shape of the first one, and
// returns that shape.
func checkKernels(kernel string, weights [][][][]float64, channels int) (kh, kw int, err error) {
	if len(weights) == 0 || len(weights[0]) == 0 || len(weights[0][0]) == 0 || len(weights[0][0][0]) == 0 {
		return 0, 0, fmt.Errorf("hetensor: %s: empty convolution kernel", kernel)
	}
	kh, kw = len(weights[0][0]), len(weights[0][0][0])
	for o, perIn := range weights {
		if len(perIn) != channels {
			return 0, 0, fmt.Errorf("hetensor: %s: output channel %d has kernels for %d input channels, want %d", kernel, o, len(perIn), channels)
		}
		for i, k := range perIn {
			if len(k) != kh {
				return 0, 0, fmt.Errorf("hetensor: %s: kernel [%d][%d] has %d rows, want %d", kernel, o, i, len(k), kh)
			}
			for _, row := range k {
				if len(row) != kw {
					return 0, 0, fmt.Errorf("hetensor: %s: kernel [%d][%d] has a row of %d, want %d", kernel, o, i, len(row), kw)
				}
			}
		}
	}
	return kh, kw, nil
}

// convMask builds the plaintext mask for one convolution tap: the weight
// value at every output position whose source pixel (shifted by dy, dx) is
// inside the image, and zero where the cyclic rotation would wrap across the
// border (realizing zero padding).
func convMask(h, w, dy, dx int, weight float64) []float64 {
	mask := make([]float64, h*w)
	for r := 0; r < h; r++ {
		for col := 0; col < w; col++ {
			sr, sc := r+dy, col+dx
			if sr >= 0 && sr < h && sc >= 0 && sc < w {
				mask[r*w+col] = weight
			}
		}
	}
	return mask
}

// Square applies the x² activation channel-wise.
func (c *Compiler) Square(kernel string, in *Tensor) *Tensor {
	c.b.SetKernel(kernel)
	out := &Tensor{H: in.H, W: in.W}
	for _, ch := range in.Channels {
		out.Channels = append(out.Channels, ch.Square())
	}
	return out
}

// PolyActivation applies the polynomial activation c0 + c1·x + c2·x² + ...
// channel-wise (the FHE-compatible replacement for ReLU).
func (c *Compiler) PolyActivation(kernel string, in *Tensor, coeffs []float64) *Tensor {
	c.b.SetKernel(kernel)
	out := &Tensor{H: in.H, W: in.W}
	for _, ch := range in.Channels {
		out.Channels = append(out.Channels, ch.Polynomial(coeffs, c.ScalarScale))
	}
	return out
}

// AvgPool2 performs 2×2 average pooling with stride 2 and repacks every
// channel into an (H/2)×(W/2) row-major image.
func (c *Compiler) AvgPool2(kernel string, in *Tensor) (*Tensor, error) {
	h, w := in.H, in.W
	if h%2 != 0 || w%2 != 0 || h < 2 || w < 2 {
		return nil, fmt.Errorf("hetensor: %s: cannot 2x2-pool a %dx%d plane", kernel, h, w)
	}
	c.b.SetKernel(kernel)
	oh, ow := h/2, w/2
	out := &Tensor{H: oh, W: ow}
	for _, ch := range in.Channels {
		// Window sums: value at (2r,2c) becomes the average of its 2x2 window.
		sum := ch.Add(ch.RotateLeft(1)).Add(ch.RotateLeft(w)).Add(ch.RotateLeft(w + 1))

		// Phase A: compact columns. After this step the value for output
		// column c' lives at (row, c') for even rows, still with row stride w.
		// The 1/4 averaging factor is folded into the phase-A masks.
		var colPacked builder.Expr
		for cp := 0; cp < ow; cp++ {
			mask := make([]float64, h*w)
			for r := 0; r < h; r += 2 {
				mask[r*w+cp] = 0.25
			}
			colPacked = add(colPacked, sum.RotateLeft(cp).MulVector(mask, c.WeightScale))
		}

		// Phase B: compact rows into the (H/2)×(W/2) layout.
		var packed builder.Expr
		for rp := 0; rp < oh; rp++ {
			src := 2 * rp * w
			dst := rp * ow
			mask := make([]float64, h*w)
			for cp := 0; cp < ow; cp++ {
				mask[dst+cp] = 1
			}
			packed = add(packed, colPacked.RotateLeft(src-dst).MulVector(mask, c.WeightScale))
		}
		out.Channels = append(out.Channels, packed)
	}
	return out, c.b.Err()
}

// GlobalAvgPool averages each channel into a single value held in slot 0 of
// the channel's ciphertext, returning them packed as a Vector (channel i in
// slot i).
func (c *Compiler) GlobalAvgPool(kernel string, in *Tensor) (*Vector, error) {
	c.b.SetKernel(kernel)
	n := in.H * in.W
	packed := c.pack(len(in.Channels), func(i int) builder.Expr {
		return in.Channels[i].SumSlots(n).MulScalar(1/float64(n), c.ScalarScale)
	})
	return &Vector{Value: packed, Length: len(in.Channels)}, c.b.Err()
}

// FlattenFC flattens the tensor (channel-major) and applies a fully-connected
// layer with plaintext weights[out][in.NumChannels()*H*W] and bias (bias may
// be nil). Output neuron j lands in slot j of the result.
func (c *Compiler) FlattenFC(kernel string, in *Tensor, weights [][]float64, bias []float64) (*Vector, error) {
	n := in.H * in.W
	return c.dense(kernel, in.Channels, n, n, weights, bias)
}

// FC applies a fully-connected layer to a packed vector: weights[out][in.Length].
func (c *Compiler) FC(kernel string, in *Vector, weights [][]float64, bias []float64) (*Vector, error) {
	return c.dense(kernel, []builder.Expr{in.Value}, in.Length, nextPow2(in.Length), weights, bias)
}

// dense is the one fully-connected kernel: weights[j] is neuron j's row over
// the concatenation of channels, seg values each. Neuron j multiplies every
// channel by its segment of the row (skipping all-zero segments), adds the
// products and reduces their sum over width slots once: SumSlots is linear,
// so one reduction per neuron replaces one per channel.
func (c *Compiler) dense(kernel string, channels []builder.Expr, seg, width int, weights [][]float64, bias []float64) (*Vector, error) {
	if err := checkWeights(kernel, weights, len(channels)*seg, bias); err != nil {
		return nil, err
	}
	c.b.SetKernel(kernel)
	v := &Vector{Length: len(weights)}
	v.Value = c.pack(v.Length, func(j int) builder.Expr {
		var dot builder.Expr
		for i, ch := range channels {
			if row := weights[j][i*seg : (i+1)*seg]; !allZero(row) {
				dot = add(dot, ch.MulVector(padPow2(row, width), c.WeightScale))
			}
		}
		if dot.Term() == nil {
			return c.b.Scalar(0, c.WeightScale)
		}
		return dot.SumSlots(width)
	})
	if bias != nil {
		v.Value = v.Value.Add(c.b.Constant(padPow2(bias, v.Length), c.WeightScale))
	}
	return v, c.b.Err()
}

// pack places slot 0 of value(j) into slot j of one vector, for j < n. Each
// value is built just before it is placed, which fixes the order in which
// the program's terms are created.
func (c *Compiler) pack(n int, value func(j int) builder.Expr) builder.Expr {
	var packed builder.Expr
	for j := 0; j < n; j++ {
		mask := make([]float64, j+1)
		mask[j] = 1
		packed = add(packed, value(j).RotateRight(j).MulVector(padPow2(mask, n), c.WeightScale))
	}
	return packed
}

// checkWeights reports an empty weight matrix, a row whose length is not
// cols, or a bias whose length is not the row count.
func checkWeights(kernel string, weights [][]float64, cols int, bias []float64) error {
	if len(weights) == 0 {
		return fmt.Errorf("hetensor: %s: no weight rows", kernel)
	}
	for j, row := range weights {
		if len(row) != cols {
			return fmt.Errorf("hetensor: %s: weight row %d has length %d, want %d", kernel, j, len(row), cols)
		}
	}
	if bias != nil && len(bias) != len(weights) {
		return fmt.Errorf("hetensor: %s: bias length %d, want %d", kernel, len(bias), len(weights))
	}
	return nil
}

// Matmul applies a plaintext matrix weights[out][in.Length] (plus optional
// bias) to a packed vector using the diagonal method: with the matrix padded
// to n×n for n = nextPow2(max(rows, in.Length)),
//
//	y = Σ_d diag_d(W) ⊙ rot(x, d),   diag_d[i] = W[i][(i+d) mod n],
//
// so the whole product is n-1 rotations of the ONE source vector instead of
// one masked rotate-and-sum pipeline per output neuron (FC). All-zero
// diagonals are skipped, so sparse or band matrices rotate less. Because
// every rotation shares the same source term, the rewrite layer groups them
// into a single rotation set and the executor evaluates the entire matmul
// with one hoisted key-switch batch — this is the kernel whose end-to-end
// effect BenchmarkHetensorMatmul measures.
//
// The zero columns of the padded matrix make the product insensitive to
// whatever the replication of x carries beyond in.Length, and a final
// fold restores the packed-vector layout (period nextPow2(rows), zeros past
// rows), so Matmul chains with FC, GlobalAvgPool, and itself.
func (c *Compiler) Matmul(kernel string, in *Vector, weights [][]float64, bias []float64) (*Vector, error) {
	if err := checkWeights(kernel, weights, in.Length, bias); err != nil {
		return nil, err
	}
	outLen := len(weights)
	n := nextPow2(max(outLen, in.Length))
	if n > c.b.VecSize() {
		return nil, fmt.Errorf("hetensor: %s: %dx%d matmul needs %d slots; vector has %d", kernel, outLen, in.Length, n, c.b.VecSize())
	}
	c.b.SetKernel(kernel)

	var acc builder.Expr
	for d := 0; d < n; d++ {
		diag := make([]float64, n)
		zero := true
		for i := 0; i < outLen; i++ {
			col := (i + d) % n
			if col >= in.Length {
				continue
			}
			if wv := weights[i][col]; wv != 0 {
				diag[i] = wv
				zero = false
			}
		}
		if zero {
			continue
		}
		src := in.Value
		if d != 0 {
			src = in.Value.RotateLeft(d)
		}
		acc = add(acc, src.MulVector(diag, c.WeightScale))
	}
	if acc.Term() == nil {
		acc = c.b.Scalar(0, c.WeightScale)
	}
	// Fold the period-n result down to the packed-vector period: slots
	// [outLen, n) are zero (padded matrix rows), so adding the q-step
	// rotations replicates the first window instead of mixing values.
	for q := nextPow2(outLen); q < n; q <<= 1 {
		acc = acc.Add(acc.RotateLeft(q))
	}
	v := &Vector{Value: acc, Length: outLen}
	if bias != nil {
		v.Value = v.Value.Add(c.b.Constant(padPow2(bias, outLen), c.WeightScale))
	}
	return v, c.b.Err()
}

// Output marks the packed vector as a program output.
func (c *Compiler) Output(name string, v *Vector, logScale float64) {
	c.b.Output(name, v.Value, logScale)
}

// padPow2 pads (or copies) values to the next power-of-two length.
func padPow2(values []float64, atLeast int) []float64 {
	n := nextPow2(max(len(values), atLeast))
	out := make([]float64, n)
	copy(out, values)
	return out
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

func allZero(v []float64) bool {
	for _, x := range v {
		if x != 0 {
			return false
		}
	}
	return true
}

// add returns acc + term, or term when acc is still empty.
func add(acc, term builder.Expr) builder.Expr {
	if acc.Term() == nil {
		return term
	}
	return acc.Add(term)
}
