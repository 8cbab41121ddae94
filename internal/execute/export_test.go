package execute

// WithoutPlanMechanisms returns opts with the differential tests' switch set:
// the run uses the compiled schedule but none of the three plan mechanisms
// (constant cache, buffer recycling, fused chains).
func WithoutPlanMechanisms(opts RunOptions) RunOptions {
	opts.withoutPlanMechanisms = true
	return opts
}
