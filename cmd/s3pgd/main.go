// Command s3pgd serves the RDF→PG transformation as a long-running job
// service: POST /jobs accepts N-Triples data plus SHACL shapes into a
// bounded, spool-backed queue; a worker pool runs each job on the same
// whole-graph path as `s3pg data`; GET /jobs/{id} reports progress and
// serves results. SIGTERM triggers a graceful drain — stop admitting, cancel
// and requeue in-flight jobs, exit — after which a restart on the same
// -spool runs every accepted job to the outputs `s3pg data` writes for it.
// A second signal aborts immediately; the spool's committed manifests and
// inputs stay valid.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/server"
)

// version is stamped into s3pgd_build_info (override with
// -ldflags "-X main.version=...").
var version = "dev"

// Exit codes, aligned with cmd/s3pg where they overlap.
const (
	exitOK    = 0
	exitError = 1
	exitUsage = 2
)

// Test hooks (environment-gated so the chaos tests can exercise the real
// daemon binary):
//
//   - S3PG_FAULT_FS routes every atomic commit through a fault-injecting
//     filesystem (same spec syntax as cmd/s3pg).
//   - S3PGD_EXIT_FILE, when set, receives the daemon's exit reason just
//     before it terminates — the chaos harness reads it to distinguish a
//     clean drain from a forced abort.
//   - S3PGD_DELTA_STALL ("apply=50ms", "wal=50ms", "run=200ms", or several
//     comma-separated) stalls every live-graph update at the named point —
//     "wal" just before its UPDATE record is written to the WAL, "apply"
//     just before ApplyDelta, once that record is written and its fsync
//     under way — or every job run once it is running, so the chaos
//     matrices can signal the daemon deterministically inside the window.
const (
	faultFSEnv    = "S3PG_FAULT_FS"
	exitFileEnv   = "S3PGD_EXIT_FILE"
	deltaStallEnv = "S3PGD_DELTA_STALL"
)

var cCommitRetries = obs.Default.Counter("daemon.commit.retries")

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("s3pgd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8787", "listen `address` (host:port; port 0 picks a free one)")
		addrFile     = fs.String("addr-file", "", "write the resolved listen address to this `file` once serving")
		spool        = fs.String("spool", "", "job spool `directory` (required; holds inputs and outputs)")
		queueDepth   = fs.Int("queue-depth", 64, "maximum queued jobs before submissions get 429")
		workers      = fs.Int("workers", 2, "concurrent transform jobs")
		jobWorkers   = fs.Int("job-workers", runtime.GOMAXPROCS(0), "per-job transform parallelism")
		maxMemMB     = fs.Int("max-mem", 0, "soft heap watermark in `MiB`: reject submissions with 503 while exceeded (0 = off)")
		maxAttempts  = fs.Int("max-attempts", 5, "worker pickups per job before a failing commit becomes permanent")
		lameduck     = fs.Duration("lameduck", 0, "`duration` to keep serving (with /readyz failing) before the drain starts")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "`duration` to wait for in-flight jobs to stop and requeue on shutdown")
		maxBody      = fs.Int64("max-body", server.DefaultMaxBodyBytes, "maximum request body `bytes`")
		pprofHTTP    = fs.Bool("pprof-http", false, "mount /debug/pprof/* profiling handlers (off by default)")
		traceFile    = fs.String("trace-file", "", "append job lifecycle phase events to this JSONL `file`")

		// Online query serving (POST /query).
		queryCacheMB = fs.Int("query-cache-mem", 256, "job-snapshot LRU cache budget in `MiB` (0 = unlimited)")
		queryConc    = fs.Int("query-concurrency", 0, "queries executing at once (0 = 64)")
		queryQueue   = fs.Int("query-queue", 0, "queries waiting behind the slots before 429 (0 = 256, negative = none)")
		queryTimeout = fs.Duration("query-timeout", 0, "per-query deadline ceiling (0 = 30s)")
		queryMaxRows = fs.Int("query-max-rows", 0, "rows returned per query at most (0 = 100000)")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	logger := obs.NewLogger(obs.NewLockedWriter(stderr), "s3pgd")
	if *spool == "" {
		fmt.Fprintln(stderr, "s3pgd: error: -spool is required")
		fs.Usage()
		return exitUsage
	}

	commitFS, spec, err := faultio.FSFromEnv()
	if err != nil {
		fmt.Fprintf(stderr, "s3pgd: error: %v\n", err)
		return exitUsage
	}
	if spec != "" {
		logger.Info("fault_injection_active", "env", faultFSEnv, "spec", spec)
	}
	retry := faultio.DefaultRetryPolicy
	retry.OnRetry = func(attempt int, err error) { cCommitRetries.Inc() }

	var trace *obs.JSONL
	if *traceFile != "" {
		var err error
		if trace, err = obs.CreateJSONL(*traceFile); err != nil {
			logger.Error("trace_file_failed", "path", *traceFile, "error", err)
			return exitError
		}
		defer trace.Close()
	}

	jobsCfg := jobs.Config{
		Dir:         *spool,
		QueueDepth:  *queueDepth,
		Workers:     *workers,
		JobWorkers:  *jobWorkers,
		MaxMemMB:    *maxMemMB,
		MaxAttempts: *maxAttempts,
		FS:          commitFS,
		Retry:       retry,
		Log:         logger.With("component", "jobs"),
		Trace:       trace,
	}
	graphCfg := server.GraphConfig{
		Dir:        filepath.Join(*spool, "graphs"),
		FS:         commitFS,
		QueueDepth: *queueDepth,
		Log:        logger.With("component", "graphs"),
	}
	if spec := os.Getenv(deltaStallEnv); spec != "" {
		if err := parseDeltaStall(spec, &graphCfg, &jobsCfg); err != nil {
			fmt.Fprintf(stderr, "s3pgd: error: %s: %v\n", deltaStallEnv, err)
			return exitUsage
		}
		logger.Info("delta_stall_active", "env", deltaStallEnv, "spec", spec)
	}
	mgr, err := jobs.Open(jobsCfg)
	if err != nil {
		logger.Error("open_spool_failed", "spool", *spool, "error", err)
		return exitError
	}
	graphs, err := server.OpenGraphs(graphCfg)
	if err != nil {
		logger.Error("open_graphs_failed", "dir", graphCfg.Dir, "error", err)
		return exitError
	}
	defer graphs.Close()

	srv := server.New(server.Config{
		Manager:            mgr,
		MaxBodyBytes:       *maxBody,
		Log:                logger.With("component", "server"),
		Version:            version,
		EnablePprof:        *pprofHTTP,
		Graphs:             graphs,
		QueryCacheBytes:    int64(*queryCacheMB) << 20,
		QueryMaxConcurrent: *queryConc,
		QueryMaxQueue:      *queryQueue,
		QueryTimeout:       *queryTimeout,
		QueryMaxRows:       *queryMaxRows,
	})
	// The handler is registered before the listener opens: a signal that
	// arrives once -addr-file says the daemon is ready must drain it, not
	// kill it.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen_failed", "addr", *addr, "error", err)
		return exitError
	}
	if *addrFile != "" {
		// Committed atomically so a watching test never reads a torn address.
		if err := ckpt.WriteFileAtomic(*addrFile, 0o644, func(w io.Writer) error {
			_, werr := fmt.Fprintln(w, ln.Addr().String())
			return werr
		}); err != nil {
			logger.Error("addr_file_failed", "path", *addrFile, "error", err)
			return exitError
		}
	}
	httpSrv := &http.Server{
		Handler: srv,
		// Route the net/http server's own complaints (TLS handshake noise,
		// panics in handlers) onto the same structured stream.
		ErrorLog: slog.NewLogLogger(logger.With("component", "http").Handler(), slog.LevelWarn),
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	logger.Info("serving", "addr", ln.Addr().String(), "spool", *spool,
		"workers", *workers, "queue_depth", *queueDepth, "pprof", *pprofHTTP, "version", version)

	select {
	case err := <-serveErr:
		logger.Error("serve_failed", "error", err)
		return exitError
	case s := <-sigs:
		logger.Info("draining_on_signal", "signal", s.String())
	}

	// Second signal anywhere in the drain: abort immediately. The spool's
	// committed manifests and inputs stay valid — only the in-flight runs
	// are lost, and a restart runs those jobs again.
	abort := make(chan struct{})
	go func() {
		<-sigs
		close(abort)
	}()
	done := make(chan int, 1)
	go func() { done <- shutdown(srv, httpSrv, mgr, graphs, *lameduck, *drainTimeout, logger) }()
	select {
	case code := <-done:
		if code == exitOK {
			writeExitReason("drained")
		} else {
			writeExitReason("drain-failed")
		}
		return code
	case <-abort:
		logger.Warn("aborted")
		writeExitReason("aborted")
		return exitError
	}
}

// shutdown is the graceful-drain sequence: fail readiness first (lame-duck
// window for load balancers), stop the listener, then drain the job manager
// so every in-flight job stops and requeues durably.
func shutdown(srv *server.Server, httpSrv *http.Server, mgr *jobs.Manager, graphs *server.GraphManager, lameduck, drainTimeout time.Duration, logger *obs.Logger) int {
	srv.EnterLameDuck()
	if lameduck > 0 {
		time.Sleep(lameduck)
	}
	// Wake long-polling change subscribers first: their handlers must return
	// before the listener shutdown below can complete.
	graphs.EnterDrain()
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Warn("listener_shutdown_failed", "error", err)
	}
	if err := mgr.Drain(ctx); err != nil {
		logger.Error("drain_failed", "error", err)
		return exitError
	}
	if err := graphs.Close(); err != nil {
		logger.Warn("graphs_close_failed", "error", err)
	}
	logger.Info("drained")
	return exitOK
}

// parseDeltaStall parses the S3PGD_DELTA_STALL spec ("apply=50ms,wal=20ms",
// "run=200ms") into the graph config's chaos hooks and the jobs config's
// BeforeRun.
func parseDeltaStall(spec string, cfg *server.GraphConfig, jcfg *jobs.Config) error {
	for _, kv := range strings.Split(spec, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return fmt.Errorf("bad entry %q (want point=duration)", kv)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return err
		}
		switch key {
		case "apply":
			cfg.StallApply = d
		case "wal":
			cfg.StallWAL = d
		case "run":
			jcfg.BeforeRun = func(string) { time.Sleep(d) }
		default:
			return fmt.Errorf("unknown stall point %q (want apply, wal or run)", key)
		}
	}
	return nil
}

// writeExitReason records why the process exited for the chaos harness.
func writeExitReason(reason string) {
	path := os.Getenv(exitFileEnv)
	if path == "" {
		return
	}
	_ = os.WriteFile(path, []byte(reason+"\n"), 0o644)
}
