package core_test

import (
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// applyFixture is a generated DBpedia-like graph (no annotations) with the
// PG-Schema of its extracted shapes.
func applyFixture(tb testing.TB) (*rdf.Graph, *pgschema.Schema) {
	tb.Helper()
	g := datagen.Generate(datagen.Profiles()["DBpedia2022"], 0.0002, 1)
	spg, err := core.TransformSchema(shapeex.Extract(g, shapeex.Options{}), core.Parsimonious)
	if err != nil {
		tb.Fatal(err)
	}
	return g, spg
}

// annotated returns g plus one RDF-star annotation on every eighth
// resource-valued statement (always an edge).
func annotated(tb testing.TB, g *rdf.Graph) *rdf.Graph {
	tb.Helper()
	out := rdf.NewGraph()
	var stmts []rdf.Triple
	g.ForEach(func(tr rdf.Triple) bool {
		out.Add(tr)
		if tr.P != rdf.A && tr.O.IsIRI() {
			stmts = append(stmts, tr)
		}
		return true
	})
	since := rdf.NewIRI("http://example.org/since")
	for i := 0; i < len(stmts); i += 8 {
		out.Add(rdf.NewTriple(rdf.MustTripleTerm(stmts[i]), since, rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	}
	if out.Len() == g.Len() {
		tb.Fatal("fixture has no statement to annotate")
	}
	return out
}

func applyOnce(tb testing.TB, g *rdf.Graph, spg *pgschema.Schema) {
	tr, err := core.NewTransformerForSchema(spg, core.Parsimonious)
	if err != nil {
		tb.Fatal(err)
	}
	if err := tr.Apply(g); err != nil {
		tb.Fatal(err)
	}
}

// TestApplyAllocsPerTriple guards F_dt's allocation rate on an input without
// annotations: a node costs its property slice and its boxed values, an edge
// only its slot in the edge table's pages (the store builds adjacency lists
// and the iri index when they are first read, and the entity map is filled
// when it is), a statement nothing beyond the elements it creates. The count
// repeats exactly (1.52 when the bound was set; 2.22 while every edge was
// appended to two adjacency lists, 4.64 while every node still had a map and
// every edge a heap record).
func TestApplyAllocsPerTriple(t *testing.T) {
	g, spg := applyFixture(t)
	// The schema is extended by Apply (value labels, fallback routes), so
	// each run gets a fresh one; parsing it is a fixed cost the triple count
	// dwarfs.
	ddl := pgschema.WriteDDL(spg)
	allocs := testing.AllocsPerRun(3, func() {
		fresh, err := pgschema.ParseDDL(ddl)
		if err != nil {
			t.Fatal(err)
		}
		applyOnce(t, g, fresh)
	})
	perTriple := allocs / float64(g.Len())
	t.Logf("%.0f allocs / %d triples = %.2f per triple", allocs, g.Len(), perTriple)
	if perTriple > 1.75 {
		t.Fatalf("Transformer.Apply allocates %.2f times per triple, want <= 1.75", perTriple)
	}
}

func benchmarkApply(b *testing.B, g *rdf.Graph, spg *pgschema.Schema) {
	ddl := pgschema.WriteDDL(spg)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := pgschema.ParseDDL(ddl)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		applyOnce(b, g, fresh)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(g.Len()), "ns/triple")
}

// BenchmarkApplyNoAnnotations is F_dt on an input that never asks for the
// statement index.
func BenchmarkApplyNoAnnotations(b *testing.B) {
	g, spg := applyFixture(b)
	benchmarkApply(b, g, spg)
}

// BenchmarkApplyWithAnnotations adds one annotation per eight edges: the
// annotation pass inverts every edge once to build the index.
func BenchmarkApplyWithAnnotations(b *testing.B) {
	g, spg := applyFixture(b)
	benchmarkApply(b, annotated(b, g), spg)
}
