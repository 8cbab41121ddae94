package execute

// WithoutPlanMechanisms returns opts with the differential tests' switch set:
// the run uses the prepared plan's schedule but none of its three mechanisms
// (constant cache, buffer recycling, fused chains).
func WithoutPlanMechanisms(opts RunOptions) RunOptions {
	opts.withoutPlanMechanisms = true
	return opts
}
