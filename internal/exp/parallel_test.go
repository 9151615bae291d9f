package exp_test

import (
	"bytes"
	"context"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// pipelineOutputs holds the byte-level artifacts of one full pipeline run:
// serialized graph round-trip, schema DDL, and both CSV exports.
type pipelineOutputs struct {
	ddl          string
	nodes, edges []byte
}

// runPipeline executes the complete S3PG pipeline — parallel N-Triples
// ingest, shape extraction, parallel transform, parallel CSV export — at the
// given worker count over a serialized dataset. The parallel runs carry a
// live span tree and the workers = 1 reference none, so the comparison also
// holds telemetry output-invisible.
func runPipeline(t *testing.T, nt []byte, workers int) pipelineOutputs {
	t.Helper()
	ctx := context.Background()
	var span *obs.Span
	if workers > 1 {
		span = obs.NewSpan("pipeline")
		defer span.End()
	}
	g, err := rio.LoadNTriplesParallel(ctx, bytes.NewReader(nt), int64(len(nt)), rio.Options{}, workers)
	if err != nil {
		t.Fatalf("workers=%d: ingest: %v", workers, err)
	}
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	tr, err := core.TransformWith(ctx, g, shapes, core.Parsimonious, span, core.TransformOptions{Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: transform: %v", workers, err)
	}
	var nodes, edges bytes.Buffer
	if err := tr.Store().WriteCSVParallel(&nodes, &edges, workers); err != nil {
		t.Fatalf("workers=%d: export: %v", workers, err)
	}
	return pipelineOutputs{pgschema.WriteDDL(tr.Schema()), nodes.Bytes(), edges.Bytes()}
}

// TestParallelPipelineByteIdenticalAcrossDatasets is the PR's acceptance
// check: for every Table 2 dataset, the full pipeline at workers > 1 produces
// output byte-identical to workers = 1.
func TestParallelPipelineByteIdenticalAcrossDatasets(t *testing.T) {
	for _, name := range exp.DatasetNames {
		t.Run(name, func(t *testing.T) {
			g := datagen.Generate(datagen.Profiles()[name], 0.0002, 1)
			var nt bytes.Buffer
			if err := rio.WriteNTriples(&nt, g); err != nil {
				t.Fatal(err)
			}
			want := runPipeline(t, nt.Bytes(), 1)
			for _, workers := range []int{2, 8} {
				got := runPipeline(t, nt.Bytes(), workers)
				if got.ddl != want.ddl {
					t.Fatalf("workers=%d: DDL differs", workers)
				}
				if !bytes.Equal(got.nodes, want.nodes) {
					t.Fatalf("workers=%d: nodes.csv differs (%d vs %d bytes)", workers, len(got.nodes), len(want.nodes))
				}
				if !bytes.Equal(got.edges, want.edges) {
					t.Fatalf("workers=%d: edges.csv differs (%d vs %d bytes)", workers, len(got.edges), len(want.edges))
				}
			}
		})
	}
}

// TestEnvWorkersDeterministic checks the experiment harness itself renders
// identical S3PG stores regardless of Config.Workers.
func TestEnvWorkersDeterministic(t *testing.T) {
	build := func(workers int) pipelineOutputs {
		var buf bytes.Buffer
		cfg := exp.DefaultConfig(&buf)
		cfg.Scale = 0.0002
		cfg.Workers = workers
		e := exp.NewEnv(cfg)
		store, schema := e.S3PG("DBpedia2022")
		var nodes, edges bytes.Buffer
		if err := store.WriteCSV(&nodes, &edges); err != nil {
			t.Fatal(err)
		}
		return pipelineOutputs{pgschema.WriteDDL(schema), nodes.Bytes(), edges.Bytes()}
	}
	want, got := build(1), build(4)
	if want.ddl != got.ddl || !bytes.Equal(want.nodes, got.nodes) || !bytes.Equal(want.edges, got.edges) {
		t.Fatal("Env outputs differ between Workers=1 and Workers=4")
	}
}
