// Package s3pg is a from-scratch Go implementation of S3PG — the
// Standardized SHACL Shapes-based Property Graph Transformation ("
// Transforming RDF Graphs to Property Graphs using Standardized Schemas",
// SIGMOD 2024/25). It converts RDF knowledge graphs with SHACL shape
// schemas into property graphs with PG-Schema, losslessly and monotonically:
//
//   - Schema transformation (F_st): SHACL node/property shapes →
//     PG-Schema node types, edge types, and PG-Keys, covering the full
//     taxonomy of single-type, multi-type homogeneous, and multi-type
//     heterogeneous property constraints;
//   - Data transformation (F_dt): a two-phase streaming algorithm turning
//     triples into labelled nodes, key/value attributes, edges, and literal
//     value nodes — with parsimonious and non-parsimonious variants;
//   - Incremental updates: deltas are applied monotonically without
//     recomputing the transformation;
//   - Inverse mappings (M, N): the original RDF graph and SHACL schema are
//     reconstructable from the transformed PG and serialized PG-Schema,
//     making the transformation information preserving.
//
// The package is a thin facade over the implementation packages; every
// exported name is a documented alias or wrapper, so the whole pipeline is
// usable from a single import:
//
//	g, _ := s3pg.ParseTurtle(dataTurtle)
//	shapes, _ := s3pg.ShapesFromTurtle(shapesTurtle)
//	store, schema, _ := s3pg.Transform(g, shapes, s3pg.Parsimonious)
//	fmt.Println(s3pg.WriteDDL(schema)) // PG-Schema DDL
//	back, _ := s3pg.InverseData(store, schema)
//	// back.Equal(g) == true
package s3pg

import (
	"context"
	"io"
	"strings"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
	"github.com/s3pg/s3pg/internal/sparql"
)

// Core data model aliases.
type (
	// Term is an RDF term (IRI, blank node, or literal).
	Term = rdf.Term
	// Triple is one RDF statement.
	Triple = rdf.Triple
	// Graph is an indexed in-memory RDF graph.
	Graph = rdf.Graph
	// ShapeSchema is a SHACL shape schema (S_G).
	ShapeSchema = shacl.Schema
	// NodeShape is one SHACL node shape.
	NodeShape = shacl.NodeShape
	// PropertyShape is one SHACL property shape.
	PropertyShape = shacl.PropertyShape
	// PGSchema is a PG-Schema (S_PG).
	PGSchema = pgschema.Schema
	// Store is an in-memory property graph.
	Store = pg.Store
	// Node is a property graph node.
	Node = pg.Node
	// Edge is a property graph edge.
	Edge = pg.Edge
	// Value is a property value (string, int64, float64, bool, or []Value).
	Value = pg.Value
	// Mode selects the parsimonious or non-parsimonious transformation.
	Mode = core.Mode
	// Transformer performs (incremental) data transformations.
	Transformer = core.Transformer
)

// Transformation modes (§4.1/§4.2 of the paper).
const (
	// Parsimonious inlines single-type literal properties as key/values.
	Parsimonious = core.Parsimonious
	// NonParsimonious models every property as edges, staying monotone
	// under schema evolution.
	NonParsimonious = core.NonParsimonious
)

// RDF term constructors.
var (
	// NewTripleTerm builds an RDF-star quoted triple term (<< s p o >>),
	// usable as the subject of statement annotations.
	NewTripleTerm = rdf.NewTripleTerm
	// MustTripleTerm is NewTripleTerm that panics on invalid input.
	MustTripleTerm = rdf.MustTripleTerm
	// NewIRI builds an IRI term.
	NewIRI = rdf.NewIRI
	// NewBlank builds a blank node term.
	NewBlank = rdf.NewBlank
	// NewLiteral builds a plain (xsd:string) literal.
	NewLiteral = rdf.NewLiteral
	// NewTypedLiteral builds a literal with a datatype IRI.
	NewTypedLiteral = rdf.NewTypedLiteral
	// NewLangLiteral builds a language-tagged literal.
	NewLangLiteral = rdf.NewLangLiteral
	// NewTriple builds a triple.
	NewTriple = rdf.NewTriple
	// NewGraph returns an empty RDF graph.
	NewGraph = rdf.NewGraph
)

// Fault tolerance aliases: the strict/lenient parse policy and its errors,
// plus the aggregated SHACL violation report of the lenient pipeline.
type (
	// ParseOptions configures fault tolerance of the RDF readers: the zero
	// value is strict (first malformed statement aborts); Lenient skips and
	// reports malformed statements up to MaxErrors.
	ParseOptions = rio.Options
	// ParseError describes one malformed statement (line, column, input
	// snippet, reason).
	ParseError = rio.ParseError
	// TransformOptions configures resilience of the full pipeline.
	TransformOptions = core.TransformOptions
	// ViolationReport aggregates SHACL violations into per-shape counts by
	// constraint family.
	ViolationReport = shacl.ViolationReport
)

// ErrTooManyParseErrors is returned by lenient parses whose malformed-
// statement count exceeds ParseOptions.MaxErrors.
var ErrTooManyParseErrors = rio.ErrTooManyErrors

// ParseTurtle parses a Turtle document into a graph.
func ParseTurtle(src string) (*Graph, error) { return rio.ParseTurtle(src) }

// ParseTurtleWith is ParseTurtle with cancellation and fault-tolerance
// control.
func ParseTurtleWith(ctx context.Context, src string, opts ParseOptions) (*Graph, error) {
	return rio.ParseTurtleWith(ctx, src, opts)
}

// LoadNTriples parses an N-Triples stream into a graph.
func LoadNTriples(r io.Reader) (*Graph, error) { return rio.LoadNTriples(r) }

// LoadNTriplesWith is LoadNTriples with cancellation and fault-tolerance
// control.
func LoadNTriplesWith(ctx context.Context, r io.Reader, opts ParseOptions) (*Graph, error) {
	return rio.LoadNTriplesWith(ctx, r, opts)
}

// WriteNTriples serializes a graph as N-Triples.
func WriteNTriples(w io.Writer, g *Graph) error { return rio.WriteNTriples(w, g) }

// WriteCSV exports a property graph as node and edge CSV files (the bulk
// loading format, cf. Table 4's loading phase).
func WriteCSV(store *Store, nodes, edges io.Writer) error { return store.WriteCSV(nodes, edges) }

// LoadCSV bulk-imports a property graph exported with WriteCSV.
func LoadCSV(nodes, edges io.Reader) (*Store, error) { return pg.LoadCSV(nodes, edges) }

// ShapesFromGraph loads a SHACL shape schema from an RDF graph of shape
// declarations.
func ShapesFromGraph(g *Graph) (*ShapeSchema, error) { return shacl.FromGraph(g) }

// ShapesFromTurtle parses SHACL shape declarations written in Turtle.
func ShapesFromTurtle(src string) (*ShapeSchema, error) {
	g, err := rio.ParseTurtle(src)
	if err != nil {
		return nil, err
	}
	return shacl.FromGraph(g)
}

// ShapesToTurtle serializes a shape schema back to Turtle.
func ShapesToTurtle(s *ShapeSchema) (string, error) {
	var b strings.Builder
	if err := rio.NewTurtleWriter().Write(&b, shacl.ToGraph(s)); err != nil {
		return "", err
	}
	return b.String(), nil
}

// ExtractShapes derives a SHACL shape schema from instance data (the
// QSE-style extraction of §2.1); minSupport prunes type alternatives below
// that fraction of a property's values.
func ExtractShapes(g *Graph, minSupport float64) *ShapeSchema {
	return shapeex.Extract(g, shapeex.Options{MinSupport: minSupport})
}

// ValidateSHACL checks G ⊨ S_G and returns all violations.
func ValidateSHACL(g *Graph, s *ShapeSchema) []shacl.Violation { return shacl.Validate(g, s) }

// NewViolationReport aggregates a violation list into per-shape counts by
// constraint family (cardinality, datatype, class, nodeKind).
func NewViolationReport(vs []shacl.Violation) *ViolationReport {
	return shacl.NewViolationReport(vs)
}

// TransformSchema is F_st: it converts a SHACL shape schema into PG-Schema.
func TransformSchema(s *ShapeSchema, mode Mode) (*PGSchema, error) {
	return core.TransformSchema(s, mode)
}

// Transform is F_st followed by F_dt: it converts an RDF graph and its
// shape schema into a property graph and its (possibly data-extended)
// PG-Schema.
func Transform(g *Graph, s *ShapeSchema, mode Mode) (*Store, *PGSchema, error) {
	return core.Transform(g, s, mode)
}

// TransformWith is Transform with cancellation and resilience options; it
// returns the transformer so callers can inspect the store, schema, and any
// degradations the lenient policy recorded.
func TransformWith(ctx context.Context, g *Graph, s *ShapeSchema, mode Mode, opts TransformOptions) (*Transformer, error) {
	return core.TransformWith(ctx, g, s, mode, nil, opts)
}

// NewTransformer prepares an incremental transformer: Apply may be called
// repeatedly with an initial graph and then deltas (§4.2.1 monotonicity).
func NewTransformer(s *ShapeSchema, mode Mode) (*Transformer, error) {
	return core.NewTransformer(s, mode)
}

// Change-based incremental transformation: a typed RDF change batch, the
// state that maintains a transformed PG under a stream of such batches, and
// the exact property-graph effect of each applied batch.
type (
	// Delta is one atomic batch of RDF triple changes (deletes applied
	// before inserts), the typed form of a SPARQL Update request.
	Delta = rdf.Delta
	// DeltaState maintains a property graph incrementally under Deltas,
	// guaranteeing results byte-identical to a full re-transformation.
	DeltaState = core.DeltaState
	// PGDelta is the exact set of PG nodes and edges created, updated, and
	// deleted by one applied Delta.
	PGDelta = core.PGDelta
)

// NewDeltaState transforms the initial graph and returns the state that
// incorporates subsequent Deltas via ApplyDelta. Grow-only batches on a
// stable schema take a fast incremental path (§4.2.1 monotonicity); anything
// else falls back to a deterministic rebuild with an identical result.
func NewDeltaState(g *Graph, s *ShapeSchema, mode Mode) (*DeltaState, error) {
	return core.NewDeltaState(g, s, mode)
}

// ParseUpdate parses a SPARQL Update request (INSERT DATA / DELETE DATA
// operations) into a Delta.
func ParseUpdate(src string) (*Delta, error) { return sparql.ParseUpdate(src) }

// Optimize compacts a (typically non-parsimonious) property graph by
// folding uniformly-typed literal value nodes back into key/value
// properties, rewriting the schema accordingly — the paper's §7 open
// question on optimizing large non-parsimonious graphs. The optimized pair
// still inverts to exactly the original RDF graph.
func Optimize(store *Store, schema *PGSchema) (*Store, *PGSchema, error) {
	return core.Optimize(store, schema)
}

// InverseData is M: it reconstructs the RDF graph from a transformed
// property graph and its PG-Schema (Proposition 4.1).
func InverseData(store *Store, schema *PGSchema) (*Graph, error) {
	return core.InverseData(store, schema)
}

// InverseSchema is N: it reconstructs the SHACL schema from a PG-Schema
// produced by TransformSchema (Proposition 4.1).
func InverseSchema(schema *PGSchema) (*ShapeSchema, error) {
	return core.InverseSchema(schema)
}

// WriteDDL serializes a PG-Schema in the Figure 5 DDL syntax.
func WriteDDL(schema *PGSchema) string { return pgschema.WriteDDL(schema) }

// ParseDDL parses a PG-Schema DDL document.
func ParseDDL(src string) (*PGSchema, error) { return pgschema.ParseDDL(src) }

// CheckPG validates PG ⊨ S_PG and returns all violations.
func CheckPG(store *Store, schema *PGSchema) []pgschema.Violation {
	return pgschema.Check(store, schema)
}

// SPARQLResult and CypherResult are query answer tables.
type (
	SPARQLResult = sparql.Results
	CypherResult = cypher.Results
)

// EvalSPARQL runs a SPARQL SELECT query (supported subset: BGPs, FILTER,
// OPTIONAL, UNION, DISTINCT, ORDER BY, LIMIT, COUNT) over an RDF graph.
func EvalSPARQL(g *Graph, query string) (*SPARQLResult, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return nil, err
	}
	return sparql.EvalCtx(context.Background(), g, q)
}

// EvalCypher runs a Cypher query (supported subset: MATCH with label and
// relationship-type alternation, WHERE, UNWIND, RETURN with COUNT, UNION
// ALL, ORDER BY, LIMIT) over a property graph.
func EvalCypher(store *Store, query string) (*CypherResult, error) {
	q, err := cypher.Parse(query)
	if err != nil {
		return nil, err
	}
	return cypher.EvalWith(store, q, cypher.EvalOptions{})
}

// TranslateQuery is F_qt: it translates a SPARQL SELECT query over the
// source RDF graph into an equivalent Cypher query over the transformed
// property graph, using the schema mapping (the paper leaves automatic
// translation as future work; this implements it for the BGP subset).
func TranslateQuery(query string, schema *PGSchema) (string, error) {
	return core.TranslateQuery(query, schema)
}
