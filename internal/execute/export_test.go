package execute

// WithoutPlanMechanisms returns opts with the differential tests' switch set:
// the run encodes every constant itself and allocates every result fresh, as
// the run of compile.Result.Reference that the tests compare against.
func WithoutPlanMechanisms(opts RunOptions) RunOptions {
	opts.withoutPlanMechanisms = true
	return opts
}
