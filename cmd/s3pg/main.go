// Command s3pg transforms RDF knowledge graphs into property graphs using
// SHACL shapes and PG-Schema, as described in "Transforming RDF Graphs to
// Property Graphs using Standardized Schemas".
//
// Usage:
//
//	s3pg schema    -shapes shapes.ttl [-mode parsimonious] [-out schema.ddl]
//	s3pg data      -shapes shapes.ttl -data data.nt [-mode parsimonious]
//	               [-nodes nodes.csv] [-edges edges.csv] [-schema schema.ddl]
//	s3pg invert    -schema schema.ddl -nodes nodes.csv -edges edges.csv [-out data.nt]
//	s3pg validate  -shapes shapes.ttl -data data.nt
//	s3pg translate -schema schema.ddl -query query.rq
//	s3pg extract   -data data.nt [-minsupport 0.02] [-out shapes.ttl]
//
// Every subcommand additionally accepts the observability flags
//
//	-metrics file   write a metrics snapshot (counters, meters, phase trace)
//	                as JSON to file, or to stdout with "-"
//	-trace          print the per-phase span tree to stderr
//	-pprof dir      write cpu.pprof and heap.pprof profiles into dir
//
// and the resilience flags
//
//	-timeout d      abort the run after the duration d (exit status 3)
//	-workers n      data/validate/extract: run ingest, transform, and CSV
//	                export on n parallel workers (default: GOMAXPROCS); the
//	                outputs are byte-identical to -workers 1
//	-lenient        skip malformed RDF statements and transform non-
//	                conforming nodes through documented fallbacks instead of
//	                aborting; a summary of skipped statements, SHACL
//	                violations, and degradations is printed to stderr
//	-max-errors n   lenient mode: hard-stop once more than n malformed
//	                statements were skipped (0 = 1000, negative = unlimited)
//
// The data subcommand additionally takes a heap budget:
//
//	-max-mem n                soft heap watermark in MiB (0 = off), checked
//	                          every 4096 statements at any -workers: past it
//	                          the graph spills to disk and the run continues
//	                          out-of-core
//	-spill policy             where -max-mem spills: auto (beside the data
//	                          file, the default) or a directory (if it
//	                          exists, a fresh one inside it); the run
//	                          removes only what it made
//
// All file outputs are committed atomically (temp file + rename), so an
// interrupted run leaves either the previous complete file or the new
// complete file, never a torn prefix; running it again is the recovery. On
// the first SIGINT/SIGTERM the run cancels at its next safe point and exits
// with status 4; a second signal aborts immediately.
//
// Exit status is 0 on success, 1 on runtime errors (unreadable files,
// failed transformations, validation violations, internal panics), 2 on
// usage errors (unknown commands, bad flags, missing required flags), 3
// when -timeout expires before the run completes, and 4 when the run was
// interrupted by a signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/batch"
	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/shacl"
)

// Exit statuses.
const (
	exitOK        = 0
	exitError     = 1 // runtime failure: missing file, bad input, violations, panic
	exitUsage     = 2 // usage failure: unknown command, bad or missing flags
	exitTimeout   = 3 // the -timeout budget expired before the run completed
	exitInterrupt = 4 // SIGINT/SIGTERM: run cancelled before its outputs were committed
)

// interrupted records that a termination signal arrived, so run can
// distinguish signal-driven cancellation (exit 4) from other cancellations.
var interrupted atomic.Bool

// baseContext is the parent of every subcommand context. main replaces it
// with a signal-aware context; tests that call run directly keep Background.
var baseContext = context.Background()

// signalContext cancels the returned context on the first SIGINT/SIGTERM so
// commands stop before committing their outputs; a second signal aborts the
// process at once.
func signalContext(stderr io.Writer) (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	ch := make(chan os.Signal, 2)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	go func() {
		// Signal notices are structured JSON events so the subprocess tests
		// (and operators' log pipelines) match on fields, not prose.
		logger := obs.NewLogger(stderr, "s3pg")
		s := <-ch
		interrupted.Store(true)
		logger.Warn("interrupt", "signal", s.String(), "action", "stopping at next safe point")
		cancel()
		<-ch
		logger.Error("aborted", "signal", s.String())
		os.Exit(exitError)
	}()
	return ctx, func() { signal.Stop(ch); cancel() }
}

// usageError marks an error as a usage problem so run maps it to exitUsage.
type usageError struct{ err error }

func (e *usageError) Error() string { return e.err.Error() }
func (e *usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return &usageError{fmt.Errorf(format, args...)}
}

func main() {
	ctx, stop := signalContext(os.Stderr)
	baseContext = ctx
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

const usageLine = "usage: s3pg <schema|data|invert|validate|translate|extract> [flags]"

// run dispatches a CLI invocation and returns its exit status; stdout and
// stderr are injected so tests can capture output and statuses directly.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) < 1 {
		fmt.Fprintln(stderr, "s3pg: error: no command")
		fmt.Fprintln(stderr, usageLine)
		return exitUsage
	}
	cmds := map[string]func([]string, io.Writer, io.Writer) error{
		"schema":    cmdSchema,
		"data":      cmdData,
		"invert":    cmdInvert,
		"validate":  cmdValidate,
		"translate": cmdTranslate,
		"extract":   cmdExtract,
	}
	cmd, ok := cmds[args[0]]
	if !ok {
		fmt.Fprintf(stderr, "s3pg: error: unknown command %q\n", args[0])
		fmt.Fprintln(stderr, usageLine)
		return exitUsage
	}
	if err := runCommand(cmd, args[1:], stdout, stderr); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return exitOK
		}
		fmt.Fprintf(stderr, "s3pg: error: %v\n", err)
		var ue *usageError
		if errors.As(err, &ue) {
			return exitUsage
		}
		if errors.Is(err, context.DeadlineExceeded) {
			return exitTimeout
		}
		if interrupted.Load() && errors.Is(err, context.Canceled) {
			return exitInterrupt
		}
		return exitError
	}
	return exitOK
}

// runCommand executes one subcommand behind a panic-recovery boundary, so an
// internal bug surfaces as an ordinary runtime error (exit status 1, with
// the stack on stderr for bug reports) instead of a raw crash.
func runCommand(cmd func([]string, io.Writer, io.Writer) error, args []string, stdout, stderr io.Writer) (err error) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(stderr, "s3pg: stack:\n%s", debug.Stack())
			err = fmt.Errorf("internal panic: %v", r)
		}
	}()
	return cmd(args, stdout, stderr)
}

// parseFlags parses args with a one-line error on failure instead of the
// flag package's multi-line dump; -h/-help still prints the defaults. Once
// the flags parse, it resolves the commit filesystem (commitFS).
func parseFlags(fs *flag.FlagSet, args []string, stderr io.Writer) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if err == nil {
		_, err = commitFS()
		return err
	}
	if errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "usage: s3pg %s [flags]\n", fs.Name())
		fs.SetOutput(stderr)
		fs.PrintDefaults()
		return flag.ErrHelp
	}
	return usagef("%s: %v", fs.Name(), err)
}

// obsFlags carries the observability options shared by every subcommand.
type obsFlags struct {
	metrics   string
	trace     bool
	traceFile string
	pprof     string
}

func addObsFlags(fs *flag.FlagSet) *obsFlags {
	o := &obsFlags{}
	fs.StringVar(&o.metrics, "metrics", "", "write a metrics snapshot as JSON to `file` (- for stdout)")
	fs.BoolVar(&o.trace, "trace", false, "print the per-phase span tree to stderr")
	fs.StringVar(&o.traceFile, "trace-file", "", "append the span tree as JSONL records to `file`")
	fs.StringVar(&o.pprof, "pprof", "", "write cpu.pprof and heap.pprof profiles into `dir`")
	return o
}

// begin starts profiling and, when tracing or metrics capture is requested,
// a root span named after the subcommand; pipeline stages hang phase spans
// off it. The returned finish func must run after the command body: it ends
// the span, stops profiling, and emits the trace and metrics output.
func (o *obsFlags) begin(name string, stdout, stderr io.Writer) (*obs.Span, func() error, error) {
	stop := func() error { return nil }
	if o.pprof != "" {
		s, err := obs.StartProfiles(o.pprof)
		if err != nil {
			return nil, nil, err
		}
		stop = s
	}
	var span *obs.Span
	if o.trace || o.traceFile != "" || o.metrics != "" {
		span = obs.NewSpan(name)
	}
	finish := func() error {
		span.End()
		if err := stop(); err != nil {
			return err
		}
		if o.trace {
			if err := span.WriteTree(stderr); err != nil {
				return err
			}
		}
		if o.traceFile != "" {
			sink, err := obs.CreateJSONL(o.traceFile)
			if err != nil {
				return err
			}
			werr := sink.WriteSpanTree(span.Record())
			if cerr := sink.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				return werr
			}
		}
		if o.metrics == "" {
			return nil
		}
		snap := obs.Default.Snapshot()
		if span != nil {
			rec := span.Record()
			snap.Trace = &rec
		}
		if o.metrics == "-" {
			return snap.WriteJSON(stdout)
		}
		return commitAtomic(o.metrics, snap.WriteJSON)
	}
	return span, finish, nil
}

// resFlags carries the resilience options shared by the subcommands:
// cancellation via -timeout, and the strict/lenient parse policy.
type resFlags struct {
	lenient   bool
	maxErrors int
	timeout   time.Duration
	workers   int
}

// addResFlags registers the resilience flags. withLenient is false for
// subcommands that read no RDF serializations (where -lenient would be
// meaningless).
func addResFlags(fs *flag.FlagSet, withLenient bool) *resFlags {
	rf := &resFlags{}
	fs.DurationVar(&rf.timeout, "timeout", 0, "abort after `duration` with exit status 3 (0 = no limit)")
	if withLenient {
		fs.BoolVar(&rf.lenient, "lenient", false, "skip malformed statements and degrade non-conforming nodes instead of aborting")
		fs.IntVar(&rf.maxErrors, "max-errors", 0, "lenient: hard-stop after more than `n` malformed statements (0 = 1000, negative = unlimited)")
	}
	rf.workers = 1
	return rf
}

// addWorkersFlag registers -workers on the subcommands with a parallel
// pipeline (data, validate, extract). The parallel paths are deterministic:
// every output is byte-identical to a -workers 1 run over the same input.
func addWorkersFlag(fs *flag.FlagSet, rf *resFlags) {
	fs.IntVar(&rf.workers, "workers", runtime.GOMAXPROCS(0),
		"run ingest, transform, and CSV export on `n` parallel workers (1 = sequential)")
}

// context returns the run context, bounded by -timeout when one was given.
// It derives from baseContext, so a termination signal cancels every
// subcommand at its next cancellation check.
func (rf *resFlags) context() (context.Context, context.CancelFunc) {
	if rf.timeout > 0 {
		return context.WithTimeout(baseContext, rf.timeout)
	}
	return context.WithCancel(baseContext)
}

// batchOptions configures the batch run for these flags, under span and with
// its lenient report on stderr ("report, don't hide").
func (rf *resFlags) batchOptions(span *obs.Span, stderr io.Writer) batch.Options {
	return batch.Options{Lenient: rf.lenient, MaxErrors: rf.maxErrors, Workers: rf.workers, Span: span, Log: stderr}
}

func parseMode(s string) (s3pg.Mode, error) {
	switch s {
	case "parsimonious", "":
		return s3pg.Parsimonious, nil
	case "nonparsimonious", "non-parsimonious":
		return s3pg.NonParsimonious, nil
	default:
		return 0, usagef("unknown mode %q", s)
	}
}

var cCommitRetries = obs.Default.Counter("cli.commit.retries")

// commitFS resolves the filesystem all atomic commits and spills go through,
// once per process: the real one, or the S3PG_FAULT_FS fault injector (a
// test hook that lets the robustness tests exercise the real binary).
// parseFlags resolves it, so a malformed value fails a run before it reads
// any input.
var commitFS = sync.OnceValues(func() (ckpt.FS, error) {
	fsys, _, err := faultio.FSFromEnv()
	return fsys, err
})

// commitRetry is the default backoff with per-retry accounting: each
// scheduled retry bumps the cli.commit.retries counter, so a -metrics
// snapshot distinguishes this process's commit retry storms from the global
// faultio.retry.attempts tally.
var commitRetry = func() faultio.RetryPolicy {
	p := faultio.DefaultRetryPolicy
	p.OnRetry = func(attempt int, err error) { cCommitRetries.Inc() }
	return p
}()

// commitAtomic commits one output file through the commit filesystem,
// retrying transient faults. A commit that has started runs to its end: a
// signal stops the run before its first commit, not between two.
func commitAtomic(path string, fn func(io.Writer) error) error {
	fsys, err := commitFS()
	if err != nil {
		return err
	}
	return faultio.Commit(context.Background(), fsys, commitRetry, path, fn)
}

// writeOut emits content to stdout, or commits it atomically to path: a
// crash or injected fault mid-write never leaves a torn file behind.
func writeOut(path, content string, stdout io.Writer) error {
	if path == "" {
		_, err := io.WriteString(stdout, content)
		return err
	}
	return commitAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, content)
		return err
	})
}

func cmdSchema(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("schema", flag.ContinueOnError)
	shapesPath := fs.String("shapes", "", "SHACL shapes `file` (Turtle)")
	mode := fs.String("mode", "parsimonious", "parsimonious|nonparsimonious")
	out := fs.String("out", "", "output DDL `file` (default stdout)")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, true)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *shapesPath == "" {
		return usagef("-shapes is required")
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("schema", stdout, stderr)
	if err != nil {
		return err
	}
	in, err := rf.batchOptions(span, stderr).Read(ctx, *shapesPath, "")
	if err != nil {
		return err
	}
	schema, err := core.TransformSchemaTraced(in.Shapes, m, span)
	if err != nil {
		return err
	}
	if err := writeOut(*out, s3pg.WriteDDL(schema), stdout); err != nil {
		return err
	}
	return finish()
}

func cmdData(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("data", flag.ContinueOnError)
	shapesPath := fs.String("shapes", "", "SHACL shapes `file` (Turtle)")
	dataPath := fs.String("data", "", "RDF data `file` (N-Triples)")
	mode := fs.String("mode", "parsimonious", "parsimonious|nonparsimonious")
	nodesOut := fs.String("nodes", "nodes.csv", "output nodes CSV `file`")
	edgesOut := fs.String("edges", "edges.csv", "output edges CSV `file`")
	schemaOut := fs.String("schema", "schema.ddl", "output PG-Schema DDL `file`")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, true)
	addWorkersFlag(fs, rf)
	mem := addMemFlags(fs)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *shapesPath == "" || *dataPath == "" {
		return usagef("-shapes and -data are required")
	}
	if err := mem.validate(); err != nil {
		return err
	}
	m, err := parseMode(*mode)
	if err != nil {
		return err
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("data", stdout, stderr)
	if err != nil {
		return err
	}
	// Under -max-mem the load spills the graph past the watermark instead of
	// dying (memFlags.governor).
	o := rf.batchOptions(span, stderr)
	gov, hook, err := mem.governor(ctx, *dataPath, stderr)
	if err != nil {
		return err
	}
	defer cleanupSpill(gov)
	o.Hook = hook
	outputs := map[string]string{batch.EdgesFile: *edgesOut, batch.NodesFile: *nodesOut, batch.SchemaFile: *schemaOut}
	res, err := o.Run(ctx, m, *shapesPath, *dataPath, func(name string, write func(io.Writer) error) error {
		if name == batch.SchemaFile && *schemaOut == "" {
			return write(stdout)
		}
		return commitAtomic(outputs[name], write)
	})
	if err != nil {
		return err
	}
	if gov != nil && gov.Spills() > 0 {
		fmt.Fprintf(stderr, "s3pg: ran out-of-core: %d spill(s) to %s\n", gov.Spills(), gov.Dir())
	}
	store := res.Transformer.Store()
	fmt.Fprintf(stderr, "transformed %d triples into %d nodes, %d edges (%d relationship types)\n",
		res.Graph.Len(), store.NumNodes(), store.NumEdges(), store.RelTypes())
	return finish()
}

func cmdInvert(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("invert", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "PG-Schema DDL `file`")
	nodesPath := fs.String("nodes", "", "nodes CSV `file`")
	edgesPath := fs.String("edges", "", "edges CSV `file`")
	out := fs.String("out", "", "output N-Triples `file` (default stdout)")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, false)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *schemaPath == "" || *nodesPath == "" || *edgesPath == "" {
		return usagef("-schema, -nodes, and -edges are required")
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("invert", stdout, stderr)
	if err != nil {
		return err
	}
	ddl, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	schema, err := s3pg.ParseDDL(string(ddl))
	if err != nil {
		return err
	}
	nf, err := os.Open(*nodesPath)
	if err != nil {
		return err
	}
	defer nf.Close()
	ef, err := os.Open(*edgesPath)
	if err != nil {
		return err
	}
	defer ef.Close()
	store, err := s3pg.LoadCSV(nf, ef)
	if err != nil {
		return err
	}
	g, err := core.InverseDataContext(ctx, store, schema, span)
	if err != nil {
		return err
	}
	if *out == "" {
		if err := s3pg.WriteNTriples(stdout, g); err != nil {
			return err
		}
	} else if err := commitAtomic(*out, func(w io.Writer) error {
		return s3pg.WriteNTriples(w, g)
	}); err != nil {
		return err
	}
	return finish()
}

func cmdValidate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("validate", flag.ContinueOnError)
	shapesPath := fs.String("shapes", "", "SHACL shapes `file` (Turtle)")
	dataPath := fs.String("data", "", "RDF data `file` (N-Triples)")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, true)
	addWorkersFlag(fs, rf)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *shapesPath == "" || *dataPath == "" {
		return usagef("-shapes and -data are required")
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("validate", stdout, stderr)
	if err != nil {
		return err
	}
	o := rf.batchOptions(span, stderr)
	in, err := o.Read(ctx, *shapesPath, *dataPath)
	if err != nil {
		return err
	}
	violations, err := o.Validate(ctx, in.Graph, in.Shapes)
	if err != nil {
		return err
	}
	for _, v := range violations {
		fmt.Fprintln(stdout, v)
	}
	if err := finish(); err != nil {
		return err
	}
	if len(violations) > 0 {
		fmt.Fprintf(stderr, "s3pg: %s\n", shacl.NewViolationReport(violations))
		return fmt.Errorf("%d violation(s)", len(violations))
	}
	fmt.Fprintln(stdout, "graph conforms to the shape schema")
	return nil
}

func cmdTranslate(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("translate", flag.ContinueOnError)
	schemaPath := fs.String("schema", "", "PG-Schema DDL `file`")
	queryPath := fs.String("query", "", "SPARQL query `file`")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, false)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *schemaPath == "" || *queryPath == "" {
		return usagef("-schema and -query are required")
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("translate", stdout, stderr)
	if err != nil {
		return err
	}
	ddl, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	schema, err := s3pg.ParseDDL(string(ddl))
	if err != nil {
		return err
	}
	query, err := os.ReadFile(*queryPath)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var sp *obs.Span
	if span != nil {
		sp = span.StartSpan("translate")
	}
	cypherQuery, err := s3pg.TranslateQuery(string(query), schema)
	sp.End()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, cypherQuery)
	return finish()
}

func cmdExtract(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("extract", flag.ContinueOnError)
	dataPath := fs.String("data", "", "RDF data `file` (N-Triples)")
	minSupport := fs.Float64("minsupport", 0.02, "type-alternative pruning threshold")
	out := fs.String("out", "", "output shapes `file` (default stdout)")
	ob := addObsFlags(fs)
	rf := addResFlags(fs, true)
	addWorkersFlag(fs, rf)
	if err := parseFlags(fs, args, stderr); err != nil {
		return err
	}
	if *dataPath == "" {
		return usagef("-data is required")
	}
	ctx, cancel := rf.context()
	defer cancel()
	span, finish, err := ob.begin("extract", stdout, stderr)
	if err != nil {
		return err
	}
	in, err := rf.batchOptions(span, stderr).Read(ctx, "", *dataPath)
	if err != nil {
		return err
	}
	sp := span.StartSpan("extract")
	shapes := s3pg.ExtractShapes(in.Graph, *minSupport)
	sp.Count("node_shapes", int64(shapes.Len()))
	sp.End()
	ttl, err := s3pg.ShapesToTurtle(shapes)
	if err != nil {
		return err
	}
	if err := writeOut(*out, ttl, stdout); err != nil {
		return err
	}
	return finish()
}
