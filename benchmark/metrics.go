package main

// metricDef names one metric the runner emits. The tables below are the
// runner's half of the manifest; manifest_test.go fails when BENCHMARK.json
// and they disagree.
type metricDef struct {
	name, unit, better string
}

var workloadNames = []string{"nn_infer", "apps_secure", "compile_full", "serve_jobs"}

var endToEndMetrics = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"latency_tail_ms", "ms", "lower"},
	{"throughput_ops_s", "1/s", "higher"},
}

// perLayerMetrics are emitted by every workload's traced run; a layer the
// workload does not enter reports 0. Counts and sizes of a workload with
// several programs are summed over its programs, except analysis.log_n,
// which is the largest.
var perLayerMetrics = []metricDef{
	// Frontends (set-up only).
	{"builder.build_ms", "ms", "lower"},
	{"lang.parse_mb_s", "MB/s", "higher"},
	// Compiler time: whole compilations, then compile.Compile's steps
	// replayed through the public pass entry points.
	{"compile.industrial_ms", "ms", "lower"},
	{"compile.squeezenet_ms", "ms", "lower"},
	{"rewrite.transform_ms", "ms", "lower"},
	{"analysis.validate_ms", "ms", "lower"},
	{"analysis.select_params_ms", "ms", "lower"},
	{"compile.self_ms", "ms", "lower"},
	// Compiler output size: exact counts, equal on every run of a seed.
	{"rewrite.terms_in", "count", "lower"},
	{"rewrite.terms_out", "count", "lower"},
	{"rewrite.rescale_n", "count", "lower"},
	{"rewrite.modswitch_n", "count", "lower"},
	{"rewrite.relinearize_n", "count", "lower"},
	{"rewrite.rotation_sets", "count", "higher"},
	{"analysis.log_n", "count", "lower"},
	{"analysis.logq_bits", "count", "lower"},
	{"analysis.primes", "count", "lower"},
	{"analysis.rotation_keys", "count", "lower"},
	// CKKS client side.
	{"ckks.keygen_ms", "ms", "lower"},
	{"ckks.encrypt_ms", "ms", "lower"},
	{"ckks.decrypt_ms", "ms", "lower"},
	// CKKS evaluation, per operation, from OnInstruction records.
	{"ckks.multiply_ms", "ms", "lower"},
	{"ckks.add_ms", "ms", "lower"},
	{"ckks.relinearize_ms", "ms", "lower"},
	{"ckks.rescale_ms", "ms", "lower"},
	{"ckks.rotate_ms", "ms", "lower"},
	{"ckks.modswitch_ms", "ms", "lower"},
	{"ckks.multiply_n", "count", "lower"},
	{"ckks.add_n", "count", "lower"},
	{"ckks.relinearize_n", "count", "lower"},
	{"ckks.rescale_n", "count", "lower"},
	{"ckks.rotate_n", "count", "lower"},
	{"ckks.modswitch_n", "count", "lower"},
	{"ckks.hoisted_batches", "count", "higher"},
	{"ckks.hoisted_rotations", "count", "higher"},
	// Ring kernels called directly at the workload's largest ring.
	{"ring.ntt_us", "us", "lower"},
	{"ring.invntt_us", "us", "lower"},
	{"ring.mulcoeffs_us", "us", "lower"},
	{"ring.workers", "count", "higher"},
	// Executor, per operation.
	{"execute.run_ms", "ms", "lower"},
	{"execute.instructions", "count", "lower"},
	{"execute.instr_busy_ms", "ms", "lower"},
	{"execute.self_ms", "ms", "lower"},
	{"execute.parallel_efficiency", "ratio", "higher"},
	{"execute.peak_live_mb", "MB", "lower"},
	// Serving path (serve_jobs only).
	{"execute.direct_ms", "ms", "lower"},
	{"serve.overhead_ms", "ms", "lower"},
	{"serve.compile_ms", "ms", "lower"},
	{"serve.context_ms", "ms", "lower"},
	{"eva.submit_ms", "ms", "lower"},
	{"eva.wait_ms", "ms", "lower"},
	{"eva.fetch_ms", "ms", "lower"},
	{"eva.job_p99_ms", "ms", "lower"},
	{"jobs.dispatch_us", "us", "lower"},
	{"jobs.completed", "count", "higher"},
	{"jobs.shed", "count", "lower"},
	{"jobs.queue_wait_ms", "ms", "lower"},
	{"store.put_us", "us", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.puts", "count", "lower"},
	{"store.bytes_mb", "MB", "lower"},
	// Process.
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.alloc_mb_per_op", "MB", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	// The checker and the tracer themselves.
	{"check.max_abs_err", "abs", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
