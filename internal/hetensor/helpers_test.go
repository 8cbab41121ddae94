package hetensor

// Tensor operations only the tests use.

// Square applies the x² activation channel-wise.
func (c *Compiler) Square(kernel string, in *Tensor) *Tensor {
	c.b.SetKernel(kernel)
	out := &Tensor{H: in.H, W: in.W}
	for _, ch := range in.Channels {
		out.Channels = append(out.Channels, ch.Square())
	}
	return out
}
