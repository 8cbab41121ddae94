package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"time"

	"eva/eva"
	"eva/internal/ckks"
	"eva/internal/compile"
	"eva/internal/execute"
	"eva/internal/jobs"
	"eva/internal/lang"
	"eva/internal/serve"
	"eva/internal/store"
)

// serveSource is cmd/evaload's default program: a squaring (relinearize +
// rescale), a rotation (Galois key) and a cipher-plain product on an
// 8-slot vector — about a millisecond of backend work per batch, so the
// round trip is dominated by everything around the executor.
const serveSource = `program load vec=8;
input x @30;
input y @30;
s = x * x + y;
r = rotl(s, 1);
out = (s + r) * 0.5@30;
output out @30;`

const (
	serveVec     = 8
	serveBatches = 2
	// serveTolerance bounds |served − cleartext| relative to the output's
	// magnitude (see compareOutputs), for inputs in [-4, 4] at 30-bit scales.
	serveTolerance = 1e-3
	serveDirectOp  = 1 << 20 // span ids of the in-process direct runs
	serveDirectN   = 30
	probeReps      = 200
)

// serveReference evaluates serveSource in plain Go arithmetic.
func serveReference(x, y []float64) []float64 {
	s := make([]float64, serveVec)
	for i := range s {
		s[i] = x[i]*x[i] + y[i]
	}
	out := make([]float64, serveVec)
	for i := range out {
		out[i] = (s[i] + s[(i+1)%serveVec]) * 0.5
	}
	return out
}

// serveJobs is one asynchronous job round trip — submit, wait, fetch once —
// through an in-process evaserve over loopback HTTP, with a durable
// filesystem store behind it and two closed-loop clients (each caller waits
// for its reply before sending the next job).
type serveJobs struct {
	seed    int64
	workers int

	dataDir string
	st      *store.FS
	srv     *serve.Server
	httpSrv *http.Server
	served  chan struct{} // closed when httpSrv.Serve has returned
	httpc   *http.Client
	client  *eva.Client
	program string
	context string

	base   serve.MetricsReport // server counters when the timed phase starts
	direct execStats
}

func (w *serveJobs) clients() int            { return 2 }
func (w *serveJobs) tailPercentile() float64 { return 95 }

func (w *serveJobs) setup(tr *tracer) error {
	ctx := context.Background()
	var err error
	if w.dataDir, err = os.MkdirTemp("", "evabench-serve-"); err != nil {
		return err
	}
	if w.st, err = store.OpenFS(w.dataDir); err != nil {
		return err
	}
	// The default serve.Config, plus the two things the workload needs: a
	// store, and demo-mode key generation so jobs may carry plaintext values.
	w.srv = serve.NewServer(serve.Config{AllowServerKeygen: true, Store: w.st})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.httpSrv = &http.Server{Handler: w.srv.Handler()}
	w.served = make(chan struct{})
	go func() {
		defer close(w.served)
		w.httpSrv.Serve(ln) // returns ErrServerClosed on close
	}()
	w.httpc = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 8}}
	w.client = &eva.Client{BaseURL: "http://" + ln.Addr().String(), HTTP: w.httpc}

	if _, err = timed(tr, "serve.compile", noSpan, -1, func() error {
		comp, err := w.client.Compile(ctx, eva.CompileRequest{
			Source:  serveSource,
			Options: &serve.CompileOptionsJSON{AllowInsecure: true},
		})
		w.program = comp.ID
		return err
	}); err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	if _, err = timed(tr, "serve.context", noSpan, -1, func() error {
		ectx, err := w.client.NewKeygenContext(ctx, w.program, uint64(w.seed))
		w.context = ectx.ContextID
		return err
	}); err != nil {
		return fmt.Errorf("context: %w", err)
	}
	return nil
}

func (w *serveJobs) close() {
	if w.httpSrv != nil {
		w.httpSrv.Close()
		<-w.served
		w.httpc.CloseIdleConnections()
		w.httpSrv = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
	if w.st != nil {
		w.st.Close()
		w.st = nil
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
		w.dataDir = ""
	}
}

// jobInputs generates the batches of one job from the seed, the client and
// the operation index, with their cleartext references.
func (w *serveJobs) jobInputs(client, i int) (batches []eva.ExecuteBatch, want [][]float64) {
	rng := rand.New(rand.NewSource(w.seed*1_000_003 + int64(client)*500_009 + int64(i)))
	for b := 0; b < serveBatches; b++ {
		x, y := make([]float64, serveVec), make([]float64, serveVec)
		for j := range x {
			x[j] = rng.Float64()*8 - 4
			y[j] = rng.Float64()*8 - 4
		}
		batches = append(batches, eva.ExecuteBatch{Values: map[string][]float64{"x": x, "y": y}})
		want = append(want, serveReference(x, y))
	}
	return batches, want
}

func (w *serveJobs) op(client, i int, tr *tracer, id int) (float64, error) {
	root := tr.begin("op", noSpan, id)
	defer tr.end(root)
	batches, want := w.jobInputs(client, i)
	res, err := w.roundTrip(batches, tr, root, id)
	if err != nil {
		return 0, err
	}
	return checkJobResult(res, want)
}

// roundTrip drives one job through the client: submit, wait, fetch once.
func (w *serveJobs) roundTrip(batches []eva.ExecuteBatch, tr *tracer, root, id int) (eva.JobResult, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	var job eva.JobStatusInfo
	if _, err := timed(tr, "eva.submit", root, id, func() error {
		// A shed submission never ran, so it is retried; one that is still
		// refused after the retries fails the operation.
		return w.client.DoWithRetry(ctx, eva.RetryPolicy{BaseDelay: 20 * time.Millisecond, MaxDelay: time.Second},
			func(ctx context.Context) error {
				res, err := w.client.Submit(ctx, w.program, w.context, batches, eva.SubmitOptions{})
				job = res.Job
				return err
			}, nil)
	}); err != nil {
		return eva.JobResult{}, fmt.Errorf("submit: %w", err)
	}
	if _, err := timed(tr, "eva.wait", root, id, func() error {
		final, err := w.client.WaitJob(ctx, job.JobID)
		if err == nil && final.Status != string(jobs.StatusDone) {
			err = fmt.Errorf("job ended %s: %s", final.Status, final.Error)
		}
		return err
	}); err != nil {
		return eva.JobResult{}, fmt.Errorf("wait: %w", err)
	}
	var res eva.JobResult
	if _, err := timed(tr, "eva.fetch", root, id, func() (err error) {
		res, err = w.client.FetchJobResult(ctx, job.JobID)
		return err
	}); err != nil {
		return res, fmt.Errorf("fetch: %w", err)
	}
	return res, nil
}

// checkJobResult compares a fetched job result with the cleartext reference
// of each of its batches.
func checkJobResult(res eva.JobResult, want [][]float64) (float64, error) {
	if len(res.Results) != len(want) {
		return 0, fmt.Errorf("%d batch results; want %d", len(res.Results), len(want))
	}
	maxErr := 0.0
	for b, br := range res.Results {
		if br.Error != "" {
			return maxErr, fmt.Errorf("batch %d: %s", b, br.Error)
		}
		e, err := compareOutputs(br.Values, map[string][]float64{"out": want[b]}, serveTolerance)
		maxErr = max(maxErr, e)
		if err != nil {
			return maxErr, fmt.Errorf("batch %d: %w", b, err)
		}
	}
	return maxErr, nil
}

func (w *serveJobs) finish() (float64, error) { return 0, nil }

// probes measures what the round trip is made of when there is no server in
// the way: the same program and batches encrypted, run and decrypted
// in-process, job dispatch through a bare jobs.Manager, and result-sized
// blobs through a bare store.FS. It ends by reading the server's counters,
// so layers can report what the timed phase added to them.
func (w *serveJobs) probes(tr *tracer, lm layerMetrics) error {
	if err := w.probeDirect(tr, lm); err != nil {
		return fmt.Errorf("direct run: %w", err)
	}
	if err := w.probeJobs(tr, lm); err != nil {
		return fmt.Errorf("jobs: %w", err)
	}
	if err := w.probeStore(tr, lm); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := probeParse(tr, lm, w.seed); err != nil {
		return err
	}
	w.base = w.srv.MetricsReport()
	return nil
}

func (w *serveJobs) probeDirect(tr *tracer, lm layerMetrics) error {
	prog, err := lang.ParseProgram(serveSource)
	if err != nil {
		return err
	}
	if err := replayCompile(tr, lm, prog, insecureOptions()); err != nil {
		return err
	}
	res, err := compile.Compile(prog, insecureOptions())
	if err != nil {
		return err
	}
	compilerCounts(lm, res)
	prng := ckks.NewTestPRNG(uint64(w.seed))
	var ectx *execute.Context
	var keys *execute.KeyMaterial
	if _, err := timed(tr, "ckks.keygen", noSpan, -1, func() (err error) {
		ectx, keys, err = execute.NewContext(res, prng)
		return err
	}); err != nil {
		return err
	}
	probeRing(tr, lm, ectx.Params.RingQ(), rand.New(rand.NewSource(w.seed)))

	var direct, encrypt, decrypt []float64
	for rep := 0; rep < serveDirectN; rep++ {
		id := serveDirectOp + rep
		batches, want := w.jobInputs(2, rep)
		root := tr.begin("direct", noSpan, id)
		var encMS, decMS float64
		for b, batch := range batches {
			var enc *execute.EncryptedInputs
			ms, err := timed(tr, "ckks.encrypt", root, id, func() (err error) {
				enc, err = execute.EncryptInputs(ectx, res, keys, batch.Values, prng)
				return err
			})
			if err != nil {
				return err
			}
			encMS += ms
			out, err := runTraced(tr, &w.direct, root, id, ectx, res, enc,
				execute.RunOptions{Workers: w.workers, Scheduler: execute.SchedulerParallel})
			if err != nil {
				return err
			}
			var got map[string][]float64
			ms, _ = timed(tr, "ckks.decrypt", root, id, func() error {
				got, _ = execute.DecryptOutputs(ectx, res, keys, out)
				return nil
			})
			decMS += ms
			if _, err := compareOutputs(got, map[string][]float64{"out": want[b]}, serveTolerance); err != nil {
				return err
			}
		}
		direct = append(direct, float64(tr.end(root))/1e6)
		encrypt = append(encrypt, encMS)
		decrypt = append(decrypt, decMS)
	}
	lm["execute.direct_ms"] = median(direct)
	lm["ckks.encrypt_ms"] = median(encrypt)
	lm["ckks.decrypt_ms"] = median(decrypt)
	return nil
}

// probeJobs times a no-op job from Submit to its terminal event.
func (w *serveJobs) probeJobs(tr *tracer, lm layerMetrics) error {
	mgr := jobs.NewManager(jobs.Config{})
	defer mgr.Close()
	noop := func(ctx context.Context, batchDone func(int)) (any, error) {
		batchDone(0)
		return nil, nil
	}
	var us []float64
	for rep := 0; rep < probeReps; rep++ {
		ms, err := timed(tr, "jobs.dispatch", noSpan, -1, func() error {
			snap, err := mgr.Submit(1, 0, noop)
			if err != nil {
				return err
			}
			_, events, unsubscribe, ok := mgr.Subscribe(snap.ID)
			if !ok {
				return fmt.Errorf("job %s vanished", snap.ID)
			}
			defer unsubscribe()
			for range events { // closed after the terminal event
			}
			return nil
		})
		if err != nil {
			return err
		}
		us = append(us, ms*1e3)
	}
	lm["jobs.dispatch_us"] = median(us)
	return nil
}

// probeStore writes and reads back one job's result through a store.FS of
// its own, next to the server's data directory.
func (w *serveJobs) probeStore(tr *tracer, lm layerMetrics) error {
	dir, err := os.MkdirTemp("", "evabench-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.OpenFS(dir)
	if err != nil {
		return err
	}
	defer st.Close()
	batches, _ := w.jobInputs(2, 0)
	res, err := w.roundTrip(batches, nil, noSpan, noSpan)
	if err != nil {
		return err
	}
	blob, err := json.Marshal(res)
	if err != nil {
		return err
	}
	var put, get []float64
	for rep := 0; rep < probeReps; rep++ {
		id := fmt.Sprintf("probe-%d", rep)
		ms, err := timed(tr, "store.Put", noSpan, -1, func() error { return st.Put("result", id, blob) })
		if err != nil {
			return err
		}
		put = append(put, ms*1e3)
		ms, err = timed(tr, "store.Get", noSpan, -1, func() error {
			_, err := st.Get("result", id)
			return err
		})
		if err != nil {
			return err
		}
		get = append(get, ms*1e3)
	}
	lm["store.put_us"] = median(put)
	lm["store.get_us"] = median(get)
	return nil
}

func (w *serveJobs) layers(tr *tracer, lm layerMetrics, lat latencies) {
	lm["serve.compile_ms"] = tr.setupMS("serve.compile")
	lm["serve.context_ms"] = tr.setupMS("serve.context")
	lm["ckks.keygen_ms"] = tr.setupMS("ckks.keygen")
	for _, name := range []string{"eva.submit", "eva.wait", "eva.fetch"} {
		ms, _ := tr.perOp(named(name))
		lm[name+"_ms"] = median(ms)
	}
	lm["eva.job_p99_ms"] = percentile(lat.all, 99)
	lm["serve.overhead_ms"] = median(lat.plain) - lm["execute.direct_ms"]
	executeLayers(tr, &w.direct, lm, w.workers)

	now := w.srv.MetricsReport()
	completed := now.Jobs.Completed - w.base.Jobs.Completed
	lm["jobs.completed"] = float64(completed)
	lm["jobs.shed"] = float64(now.Jobs.Shed - w.base.Jobs.Shed)
	if completed > 0 {
		lm["jobs.queue_wait_ms"] = (now.Jobs.TotalWaitMillis - w.base.Jobs.TotalWaitMillis) / float64(completed)
	}
	if now.Store != nil && w.base.Store != nil {
		lm["store.puts"] = float64(now.Store.Puts - w.base.Store.Puts)
		lm["store.bytes_mb"] = float64(now.Store.Bytes) / 1e6
	}
}
