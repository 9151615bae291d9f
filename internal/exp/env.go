package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"

	"github.com/s3pg/s3pg/internal/baseline/neosem"
	"github.com/s3pg/s3pg/internal/baseline/rdf2pgx"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// Config parameterizes an experiment run.
type Config struct {
	// Scale is the linear dataset scale relative to the paper's full-size
	// datasets (Table 2); 0.001 of DBpedia2022 is ≈330k triples.
	Scale float64
	// Seed drives all dataset generation.
	Seed int64
	// W receives the rendered tables.
	W io.Writer
	// MinSupport is the QSE-style shape-extraction pruning threshold.
	MinSupport float64
	// Workers sets the S3PG transform's parallelism; values <= 1 run the
	// sequential path. The transform is byte-deterministic in Workers, so
	// the rendered tables are identical at any setting — only the timing
	// columns move.
	Workers int
}

// DatasetNames lists the Table 2 datasets in presentation order.
var DatasetNames = []string{"DBpedia2020", "DBpedia2022", "Bio2RDFCT"}

// Env lazily materializes and caches datasets, shapes, and transformed
// graphs so that one invocation can drive several tables.
type Env struct {
	Cfg      Config
	profiles map[string]*datagen.Profile
	graphs   map[string]*rdf.Graph
	shapes   map[string]*shacl.Schema
	s3pg     map[string]*transformed
	neosem   map[string]*pg.Store
	rdf2pg   map[string]*pg.Store
}

type transformed struct {
	store  *pg.Store
	schema *pgschema.Schema
}

// NewEnv builds an environment.
func NewEnv(cfg Config) *Env {
	return &Env{
		Cfg:      cfg,
		profiles: datagen.Profiles(),
		graphs:   make(map[string]*rdf.Graph),
		shapes:   make(map[string]*shacl.Schema),
		s3pg:     make(map[string]*transformed),
		neosem:   make(map[string]*pg.Store),
		rdf2pg:   make(map[string]*pg.Store),
	}
}

// Profile returns the named dataset profile.
func (e *Env) Profile(name string) *datagen.Profile {
	p, ok := e.profiles[name]
	if !ok {
		panic(fmt.Sprintf("exp: unknown dataset %q", name))
	}
	return p
}

// Graph returns (generating on first use) the dataset's RDF graph.
func (e *Env) Graph(name string) *rdf.Graph {
	if g, ok := e.graphs[name]; ok {
		return g
	}
	g := datagen.Generate(e.Profile(name), e.Cfg.Scale, e.Cfg.Seed)
	e.graphs[name] = g
	return g
}

// Shapes returns (extracting on first use) the dataset's SHACL schema.
func (e *Env) Shapes(name string) *shacl.Schema {
	if s, ok := e.shapes[name]; ok {
		return s
	}
	s := shapeex.Extract(e.Graph(name), shapeex.Options{MinSupport: e.Cfg.MinSupport})
	e.shapes[name] = s
	return s
}

// S3PG returns (transforming on first use) the S3PG property graph and its
// PG-Schema for the dataset.
func (e *Env) S3PG(name string) (*pg.Store, *pgschema.Schema) {
	if t, ok := e.s3pg[name]; ok {
		return t.store, t.schema
	}
	tr, err := core.TransformWith(context.Background(), e.Graph(name), e.Shapes(name), core.Parsimonious, nil,
		core.TransformOptions{Workers: e.Cfg.Workers})
	if err != nil {
		panic(fmt.Sprintf("exp: S3PG transform of %s: %v", name, err))
	}
	e.s3pg[name] = &transformed{tr.Store(), tr.Schema()}
	return tr.Store(), tr.Schema()
}

// NeoSem returns the NeoSemantics-transformed property graph.
func (e *Env) NeoSem(name string) *pg.Store {
	if s, ok := e.neosem[name]; ok {
		return s
	}
	s, _ := neosem.Transform(e.Graph(name))
	e.neosem[name] = s
	return s
}

// RDF2PG returns the rdf2pg-transformed property graph.
func (e *Env) RDF2PG(name string) *pg.Store {
	if s, ok := e.rdf2pg[name]; ok {
		return s
	}
	s, _ := rdf2pgx.Transform(e.Graph(name))
	e.rdf2pg[name] = s
	return s
}

// measure runs fn under a fresh, ended obs span: wall time, allocation, and
// heap-growth deltas come from the span; fn may hang child spans and
// counters off it for per-phase breakdowns. The heap is settled with a GC
// first so the span's heap-growth delta keeps the Table 4 peak-heap
// semantics of the old ad-hoc timing helper.
func measure(name string, fn func(*obs.Span)) *obs.Span {
	runtime.GC()
	sp := obs.NewSpan(name)
	fn(sp)
	sp.End()
	return sp
}
