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

// TestApplyAllocsPerTriple guards F_dt's allocation rate: a node costs its
// property slice and its boxed values, an edge only its slot in the edge
// table's pages (the store builds adjacency lists and the iri index when they
// are first read, and the entity map is filled when it is), a statement
// nothing beyond the elements it creates. The count repeats exactly (1.52 on
// the plain input when its bound was set; 2.22 while every edge was appended
// to two adjacency lists, 4.64 while every node still had a map and every
// edge a heap record). The annotated input adds an annotation pass, which
// looks each annotated statement's edge up in the adjacency lists (5.47 while
// the pass inverted every edge of the graph into a statement-keyed index).
func TestApplyAllocsPerTriple(t *testing.T) {
	g, spg := applyFixture(t)
	// The schema is extended by Apply (value labels, fallback routes), so
	// each run gets a fresh one; parsing it is a fixed cost the triple count
	// dwarfs.
	ddl := pgschema.WriteDDL(spg)
	for _, c := range []struct {
		name  string
		g     *rdf.Graph
		bound float64
	}{
		{"plain", g, 1.75},
		{"annotated", annotated(t, g), 2.0},
	} {
		allocs := testing.AllocsPerRun(3, func() {
			fresh, err := pgschema.ParseDDL(ddl)
			if err != nil {
				t.Fatal(err)
			}
			applyOnce(t, c.g, fresh)
		})
		perTriple := allocs / float64(c.g.Len())
		t.Logf("%s: %.0f allocs / %d triples = %.2f per triple", c.name, allocs, c.g.Len(), perTriple)
		if perTriple > c.bound {
			t.Errorf("%s: Transformer.Apply allocates %.2f times per triple, want <= %.2f", c.name, perTriple, c.bound)
		}
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

// BenchmarkApplyNoAnnotations is F_dt on an input without an annotation
// pass.
func BenchmarkApplyNoAnnotations(b *testing.B) {
	g, spg := applyFixture(b)
	benchmarkApply(b, g, spg)
}

// BenchmarkApplyWithAnnotations adds one annotation per eight edges: the
// annotation pass looks each annotated statement's edge up in the adjacency
// lists of its subject or object.
func BenchmarkApplyWithAnnotations(b *testing.B) {
	g, spg := applyFixture(b)
	benchmarkApply(b, annotated(b, g), spg)
}
