// Package batch is the one batch run of S3PG: read SHACL shapes (Turtle) and
// N-Triples data, validate them in lenient mode, transform the graph with
// core.TransformWith, and commit edges.csv, nodes.csv and schema.ddl. `s3pg
// data`, an s3pgd job and (without the commits) a finished job's query
// snapshot are this run, so one input gives one property graph (DESIGN.md
// §4d, §6); other callers use its read step alone.
package batch

import (
	"context"
	"fmt"
	"io"
	"os"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
)

// The output files, in the order Run commits them. Each commit is complete
// or absent on its own: a run that stops between two leaves the earlier
// files new and the later ones as they were, and running it again repairs
// them.
const (
	EdgesFile  = "edges.csv"
	NodesFile  = "nodes.csv"
	SchemaFile = "schema.ddl"
)

// MaxShownSkips is how many skipped statements a run's log shows; it counts
// the rest.
const MaxShownSkips = 5

// Options configure a run; the zero value is a strict run on one worker.
type Options struct {
	// Lenient skips malformed statements, up to MaxErrors of them in each
	// input (as rio.Options counts), and transforms non-conforming data
	// through F_dt's fallbacks instead of failing.
	Lenient   bool
	MaxErrors int
	// Workers is the parallelism of the ingest, the transform and the CSV
	// export; the outputs do not depend on it.
	Workers int
	// Span, when not nil, gets the run's phases as child spans: ingest,
	// validate, those of core.TransformWith, and export.
	Span *obs.Span
	// Hook, when not nil, is the ingest's load hook (rio.IngestNTriples):
	// the CLI's -max-mem governor.
	Hook func(*rdf.Graph) error
	// Log, when not nil, gets a lenient run's report as it is made: the
	// skipped statements once the inputs are read, the violations after
	// the validation pass, and the degradations at the last safe point,
	// before the first commit.
	Log io.Writer

	onError func(rio.ParseError) // Read's skip counter
}

// Result is what a run read and built.
type Result struct {
	Shapes *shacl.Schema
	Graph  *rdf.Graph
	// Skipped counts the malformed statements a lenient read skipped, in
	// the shapes and the data.
	Skipped int64
	shown   []rio.ParseError
	// Transformer holds the property graph and its PG-Schema.
	Transformer *core.Transformer
}

// Commit writes one output file, named EdgesFile, NodesFile or SchemaFile,
// through write. A retried commit may call write again; each call renders
// the whole file.
type Commit func(name string, write func(io.Writer) error) error

func (o Options) parse() rio.Options {
	return rio.Options{Lenient: o.Lenient, MaxErrors: o.MaxErrors, OnError: o.onError}
}

// Shapes reads a SHACL shape schema from Turtle.
func (o Options) Shapes(ctx context.Context, src string) (*shacl.Schema, error) {
	g, err := rio.ParseTurtleWith(ctx, src, o.parse())
	if err != nil {
		return nil, err
	}
	return shacl.FromGraph(g)
}

// Data loads an N-Triples document from r in an "ingest" span.
func (o Options) Data(ctx context.Context, r io.Reader) (*rdf.Graph, error) {
	sp := o.Span.StartSpan("ingest")
	defer sp.End()
	g, err := rio.IngestNTriples(ctx, r, o.parse(), o.Workers, sp, o.Hook)
	if err == nil {
		sp.Count("triples", int64(g.Len()))
	}
	return g, err
}

// Read is a run's read step: the shapes from the Turtle file at shapesPath,
// then the data from the N-Triples file at dataPath — a pipe or a device as
// well as a regular file. An empty path is not read, and its half of the
// result stays nil.
func (o Options) Read(ctx context.Context, shapesPath, dataPath string) (*Result, error) {
	r := &Result{}
	o.onError = func(e rio.ParseError) {
		if r.Skipped++; len(r.shown) < MaxShownSkips {
			r.shown = append(r.shown, e)
		}
	}
	if shapesPath != "" {
		src, err := os.ReadFile(shapesPath)
		if err != nil {
			return nil, err
		}
		if r.Shapes, err = o.Shapes(ctx, string(src)); err != nil {
			return nil, err
		}
	}
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if r.Graph, err = o.Data(ctx, f); err != nil {
			return nil, err
		}
	}
	if r.Skipped > 0 && o.Log != nil {
		fmt.Fprintf(o.Log, "s3pg: lenient: skipped %d malformed statement(s):\n", r.Skipped)
		for i := range r.shown {
			fmt.Fprintf(o.Log, "  %v\n", &r.shown[i])
		}
		if rest := r.Skipped - int64(len(r.shown)); rest > 0 {
			fmt.Fprintf(o.Log, "  … and %d more\n", rest)
		}
	}
	return r, nil
}

// Validate checks g against shapes in a "validate" span.
func (o Options) Validate(ctx context.Context, g *rdf.Graph, shapes *shacl.Schema) ([]shacl.Violation, error) {
	sp := o.Span.StartSpan("validate")
	defer sp.End()
	vs, err := shacl.ValidateContext(ctx, g, shapes)
	sp.Count("violations", int64(len(vs)))
	return vs, err
}

// Run is the batch run over the shapes and the data at the given paths:
// read both, validate in lenient mode, transform in mode, and, when commit
// is not nil, commit EdgesFile, NodesFile and SchemaFile in that order. A
// run without commit, such as a finished job's query snapshot, only
// rebuilds what a committing run built and reports, so it does not
// validate. A cancellation of ctx stops the run before its first commit,
// not between two.
func (o Options) Run(ctx context.Context, mode core.Mode, shapesPath, dataPath string, commit Commit) (*Result, error) {
	r, err := o.Read(ctx, shapesPath, dataPath)
	if err != nil {
		return nil, err
	}
	if o.Lenient && commit != nil {
		// Non-conformance is reported, not failed on; the transform then
		// degrades over it.
		vs, err := o.Validate(ctx, r.Graph, r.Shapes)
		if err != nil {
			return nil, err
		}
		if len(vs) > 0 && o.Log != nil {
			fmt.Fprintf(o.Log, "s3pg: lenient: %s\n", shacl.NewViolationReport(vs))
		}
	}
	r.Transformer, err = core.TransformWith(ctx, r.Graph, r.Shapes, mode, o.Span,
		core.TransformOptions{Lenient: o.Lenient, Workers: o.Workers})
	if err != nil {
		return nil, err
	}
	// The last safe point: a cancellation that arrived after the
	// transform's own checks still leaves the outputs untouched.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if n := r.Transformer.DegradedCount(); n > 0 && o.Log != nil {
		fmt.Fprintf(o.Log, "s3pg: lenient: %d statement(s) transformed via degradation fallbacks\n", n)
	}
	if commit != nil {
		if err := o.export(r.Transformer, commit); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// export commits the outputs, each rendered on its own writer, in an
// "export" span counting each file's rows and the bytes of its last attempt.
func (o Options) export(tr *core.Transformer, commit Commit) error {
	ex := o.Span.StartSpan("export")
	defer ex.End()
	store := tr.Store()
	ddl := pgschema.WriteDDL(tr.Schema())
	ex.Count("edges_rows", int64(store.NumEdges()))
	ex.Count("nodes_rows", int64(store.NumNodes()))
	for _, f := range []struct {
		name, bytesKey string
		write          func(io.Writer) error
	}{
		{EdgesFile, "edges_bytes", func(w io.Writer) error { return store.WriteCSVParallel(nil, w, o.Workers) }},
		{NodesFile, "nodes_bytes", func(w io.Writer) error { return store.WriteCSVParallel(w, nil, o.Workers) }},
		{SchemaFile, "schema_bytes", func(w io.Writer) error {
			_, err := io.WriteString(w, ddl)
			return err
		}},
	} {
		var n int64
		err := commit(f.name, func(w io.Writer) error {
			c := &byteCounter{w: w}
			err := f.write(c)
			n = c.n
			return err
		})
		ex.Count(f.bytesKey, n)
		if err != nil {
			return err
		}
	}
	return nil
}

// byteCounter counts what is written through it.
type byteCounter struct {
	w io.Writer
	n int64
}

func (c *byteCounter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
