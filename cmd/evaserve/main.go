// Command evaserve runs the EVA compile-and-execute service: an HTTP JSON
// API over the full pipeline. Clients POST serialized EVA programs to
// /compile (compiled once per distinct program, cached in an LRU registry),
// install evaluation keys with POST /contexts, and run batches of encrypted
// inputs through the jobs API: POST /jobs enqueues an execution and returns
// a job id, a bounded worker pool drains the queue under a configurable
// memory budget, GET /jobs/{id} polls, GET /jobs/{id}/events streams
// progress over SSE, and GET /jobs/{id}/result delivers the results exactly
// once. GET /programs, /healthz and /metrics expose the registry, liveness,
// and request/cache/latency metrics.
//
// With -data-dir the node is durable: compiled programs, installed contexts
// (their evaluation-key bundles), and finished job results are persisted in
// a crash-consistent filesystem store, so a restarted node serves every
// previously issued id without clients resubmitting anything. With -node-id
// and -peers the node joins a static-membership cluster: contexts are
// sharded over the members by consistent hashing, any node routes requests
// to the owner, contexts are replicated to the next replica, and jobs whose
// owner dies are requeued onto a surviving replica.
//
// Usage:
//
//	evaserve [-addr :8080] [-demo]
//	         [-job-workers 2] [-job-queue 64] [-job-memory-mb 8192]
//	         [-data-dir /var/lib/evaserve] [-drain-timeout 30s]
//	         [-node-id n1] [-peers n2=http://host2:8080,n3=http://host3:8080]
//	         [-log-level info] [-log-format text] [-slow-trace 0]
//	         [-profile-sample 0] [-calibration fit.json] [-calibrate]
//	         [-pprof-addr 127.0.0.1:6060]
//
// Everything else is fixed: the compiled-program registry holds 128
// programs, the server retains 256 contexts, each job batch runs on
// GOMAXPROCS workers unless the request names its own worker count, request
// bodies are capped at 256 MiB, finished jobs stay
// in memory for 2 minutes and unfetched persisted results in the store for
// 24 hours, a coalesced batch packs at most 64 callers and its first caller
// waits at most 25ms for company, stored ciphertext handles are capped at
// 4 GiB and kept for 24 hours, the plan cache keeps up to 512 MiB of encoded
// constants, the RNS-limb worker pool has GOMAXPROCS workers, and the tracer
// keeps the last 256 finished traces and at most 4096 active ones. In a
// cluster each context lives on 2 nodes, every node probes its peers every
// 2s, and routed-job records are kept for 24 hours (10 minutes once
// delivered or cancelled), swept at most once a minute.
//
// Observability: every response carries an X-Eva-Trace id; GET /traces and
// GET /jobs/{id}/trace expose per-request span trees, GET /metrics serves a
// JSON report or (with ?format=prometheus) the Prometheus text exposition,
// -slow-trace logs a structured phase breakdown of slow requests, and
// -pprof-addr serves net/http/pprof on a separate (operator-only) listener.
//
// The per-instruction profiler samples every -profile-sample'th instruction
// of every execution (default every 16th) into per-(opcode, level)
// histograms, checks each sample against the compiler's scale/level
// expectations and the cost model's runtime prediction, and exposes the
// aggregate as GET /profile and eva_profile_* Prometheus families; it also
// sums every instruction's wall time per opcode into the execute span's
// op.*_ms attrs, which -profile-sample -1 therefore drops. With
// -data-dir the per-program profiles persist across restarts;
// `evaserve -data-dir DIR -calibrate` then fits per-opcode cost-model
// coefficients from everything recorded so far, saves the calibration (loaded
// automatically at the next start, and reflected in /compile predicted_ms),
// prints it, and exits. -calibration FILE installs a calibration from a JSON
// file instead.
//
// POST /jobs?coalesce=1 opts a submission into cross-request coalescing:
// compatible concurrent callers (same program and context, rotation-free,
// narrow input width) are packed into disjoint slot ranges of one shared
// execution.
//
// -demo enables server-side key generation ("keygen" contexts): the server
// then holds secret keys and accepts plaintext values, which breaks the
// paper's threat model but makes curl-only walkthroughs and load tests
// possible. Without -demo, clients must generate keys locally and upload
// only public evaluation keys — the paper's deployment model.
//
// On SIGTERM/SIGINT the server shuts down gracefully: it stops admitting
// work, drains in-flight jobs for up to -drain-timeout (persisting their
// results), flushes the store, and exits.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"syscall"
	"time"

	"eva/internal/cluster"
	"eva/internal/obs"
	"eva/internal/profile"
	"eva/internal/serve"
	"eva/internal/store"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig, nil); err != nil {
		if err == flag.ErrHelp {
			return // -h is a successful invocation
		}
		fmt.Fprintln(os.Stderr, "evaserve:", err)
		os.Exit(1)
	}
}

// parsePeers parses "id=url,id=url" into a peer map.
func parsePeers(s string) (map[string]string, error) {
	peers := map[string]string{}
	if s == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		id, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("bad -peers entry %q (want id=url)", part)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("duplicate peer id %q", id)
		}
		peers[id] = strings.TrimRight(url, "/")
	}
	return peers, nil
}

// run executes the evaserve command line. It is the testable core of main:
// it binds the listener itself (so -addr :0 works and tests learn the bound
// address through the started callback), serves until the signal channel
// fires or the server fails, and returns errors instead of exiting.
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal, started func(addr string)) error {
	fs := flag.NewFlagSet("evaserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		demo      = fs.Bool("demo", false, "enable server-side keygen (trusted demo mode)")
		jobW      = fs.Int("job-workers", 0, "async jobs executed concurrently (0 = 2)")
		jobQueue  = fs.Int("job-queue", 0, "async job queue depth (0 = 64)")
		jobMemMB  = fs.Int64("job-memory-mb", 0, "admitted-jobs ciphertext memory budget in MiB (0 = 8192)")
		dataDir   = fs.String("data-dir", "", "durable artifact store directory (empty = in-memory only)")
		drainTO   = fs.Duration("drain-timeout", 30*time.Second, "how long a graceful shutdown waits for in-flight jobs")
		nodeID    = fs.String("node-id", "", "this node's id in a cluster (required with -peers)")
		peersFlag = fs.String("peers", "", "static cluster membership as id=url[,id=url...]")
		logLevel  = fs.String("log-level", "info", "log verbosity: debug, info, warn, or error")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		slowTrace = fs.Duration("slow-trace", 0, "log a structured phase breakdown for requests slower than this (0 = off)")
		profSamp  = fs.Int("profile-sample", 0, "instruction profiler stride: record every Nth instruction (0 = 16, 1 = all, <0 = off, which also drops the execute span's per-opcode op.*_ms attrs)")
		calibrate = fs.Bool("calibrate", false, "fit cost-model calibration from the profiles in -data-dir, save it, print it, and exit")
		calibFile = fs.String("calibration", "", "calibration JSON file to install at startup (overrides the store's copy)")
		pprofAddr = fs.String("pprof-addr", "", "serve net/http/pprof on this address (empty = off)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	peers, err := parsePeers(*peersFlag)
	if err != nil {
		return err
	}
	if len(peers) > 0 && *nodeID == "" {
		return fmt.Errorf("-peers requires -node-id")
	}
	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return err
	}
	logger, err := obs.NewLogger(stderr, level, *logFormat)
	if err != nil {
		return err
	}

	var st store.Store
	if *dataDir != "" {
		fsStore, err := store.OpenFS(*dataDir)
		if err != nil {
			return err
		}
		st = fsStore
		defer fsStore.Close()
	}

	// -calibrate is an offline pass, not a server mode: fit per-opcode cost
	// coefficients from the per-program profiles the store has accumulated,
	// persist the result (servers on this data dir load it at startup), and
	// print the fit.
	if *calibrate {
		if st == nil {
			return fmt.Errorf("-calibrate requires -data-dir")
		}
		profiles, err := profile.LoadProfiles(st)
		if err != nil {
			return err
		}
		cal, err := profile.Fit(profiles)
		if err != nil {
			return err
		}
		if err := profile.SaveCalibration(st, cal); err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(cal)
	}

	srv := serve.NewServer(serve.Config{
		AllowServerKeygen:    *demo,
		JobWorkers:           *jobW,
		JobQueueDepth:        *jobQueue,
		JobMemoryBudgetBytes: *jobMemMB << 20,
		Store:                st,
		NodeID:               *nodeID,
		Logger:               logger,
		SlowTraceThreshold:   *slowTrace,
		ProfileSampleRate:    *profSamp,
		// Peer nodes replicate contexts through the bundle surface, which
		// for demo-keygen contexts includes the secret key and has no
		// node-to-node authentication — run a cluster only on a network
		// where every client is trusted (see README "Clustering &
		// persistence").
		AllowContextTransfer: len(peers) > 0,
	})
	defer srv.Close()

	if *calibFile != "" {
		data, err := os.ReadFile(*calibFile)
		if err != nil {
			return fmt.Errorf("-calibration: %w", err)
		}
		var cal profile.Calibration
		if err := json.Unmarshal(data, &cal); err != nil {
			return fmt.Errorf("-calibration %s: %w", *calibFile, err)
		}
		srv.Profiles().SetCalibration(&cal)
		logger.Info("calibration installed from file", slog.String("file", *calibFile), slog.Uint64("samples", cal.Samples))
	}

	handler := srv.Handler()
	if len(peers) > 0 {
		cl, err := cluster.New(srv, cluster.Config{
			Self:   *nodeID,
			Peers:  peers,
			Store:  st,
			Logger: logger,
		})
		if err != nil {
			return err
		}
		defer cl.Close()
		handler = cl.Handler()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The profiler gets its own listener so it is never exposed on the
	// public API address: an operator opts in with -pprof-addr 127.0.0.1:0
	// (or a fixed port) and scrapes /debug/pprof/ there.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pprofSrv := &http.Server{Handler: pmux, ReadHeaderTimeout: 10 * time.Second}
		go pprofSrv.Serve(pln)
		defer pprofSrv.Close()
		fmt.Fprintf(stdout, "evaserve pprof listening on %s\n", pln.Addr())
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	mode := "standalone"
	if len(peers) > 0 {
		ids := append([]string{*nodeID}, keys(peers)...)
		sort.Strings(ids)
		mode = fmt.Sprintf("cluster node %s of %v", *nodeID, ids)
	}
	fmt.Fprintf(stdout, "evaserve listening on %s (demo mode: %v, durable: %v, %s)\n", ln.Addr(), *demo, st != nil, mode)
	logger.Info("evaserve started",
		slog.String("addr", ln.Addr().String()),
		slog.Bool("demo", *demo),
		slog.Bool("durable", st != nil),
		slog.String("mode", mode))
	if started != nil {
		started(ln.Addr().String())
	}

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	case <-sig:
		// Graceful shutdown: stop admitting (close the listener and reject
		// new connections), drain in-flight jobs up to the timeout so their
		// results are persisted, then exit; the deferred store close
		// flushes whatever the drain produced.
		fmt.Fprintln(stdout, "evaserve: shutting down (draining jobs)")
		logger.Info("shutting down: draining jobs", slog.Duration("timeout", *drainTO))
		ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			logger.Warn("http shutdown", slog.String("error", err.Error()))
		}
		if err := srv.Drain(ctx); err != nil {
			fmt.Fprintf(stdout, "evaserve: drain cut %v in-flight work short\n", err)
			logger.Warn("drain cut in-flight work short", slog.String("error", err.Error()))
		} else {
			fmt.Fprintln(stdout, "evaserve: drained cleanly")
			logger.Info("drained cleanly")
		}
	}
	return nil
}

func keys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
