package core_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// starGraph returns the university graph annotated with RDF-star statements
// about bob's advisedBy and takesCourse edges.
func starGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	g := fixtures.UniversityGraph()
	advised := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))
	takes := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("takesCourse"), fixtures.Ex("DB"))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(advised), fixtures.Ex("since"),
		rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(takes), fixtures.Ex("grade"),
		rdf.NewLiteral("A")))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(takes), fixtures.Ex("certainty"),
		rdf.NewTypedLiteral("0.9", rdf.XSDDouble)))
	return g
}

func TestStarAnnotationsBecomeEdgeProperties(t *testing.T) {
	g := starGraph(t)
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := store.NodeByIRI(fixtures.ExNS + "bob")
	var advised, takes pg.Edge // the zero Edge has no property
	for _, eid := range store.Out(bob.ID) {
		e := store.Edge(eid)
		switch {
		case e.Label() == "advisedBy":
			advised = e
		case e.Label() == "takesCourse" && e.NumProps() > 0:
			takes = e
		}
	}
	if advised.NumProps() == 0 || advised.Prop("since") != int64(2021) {
		t.Fatalf("advisedBy edge = %+v", advised)
	}
	if takes.NumProps() == 0 || takes.Prop("grade") != "A" || takes.Prop("certainty") != 0.9 {
		t.Fatalf("takesCourse edge = %+v", takes)
	}

	// The annotations are declared in the schema (edge record types).
	ddl := pgschema.WriteDDL(spg)
	for _, want := range []string{"since INTEGER", "grade STRING", "certainty DOUBLE"} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing annotation declaration %q:\n%s", want, ddl)
		}
	}
}

func TestStarRoundTrip(t *testing.T) {
	g := starGraph(t)
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		store, spg, err := core.Transform(g, fixtures.UniversityShapes(), mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		back, err := core.InverseData(store, spg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !g.Equal(back) {
			g.ForEach(func(tr rdf.Triple) bool {
				if !back.Has(tr) {
					t.Errorf("%v: missing %v", mode, tr)
				}
				return true
			})
			t.Fatalf("%v: RDF-star round trip mismatch (%d vs %d)", mode, g.Len(), back.Len())
		}
	}
}

func TestStarRoundTripThroughSerializedSchema(t *testing.T) {
	g := starGraph(t)
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	reparsed, err := pgschema.ParseDDL(pgschema.WriteDDL(spg))
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(store, reparsed)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("annotations lost through schema serialization")
	}
}

func TestStarTurtleParsing(t *testing.T) {
	src := `
@prefix ex:  <http://example.org/univ#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:bob ex:advisedBy ex:alice .
<< ex:bob ex:advisedBy ex:alice >> ex:since "2021"^^xsd:integer .
`
	g, err := rio.ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 2 {
		t.Fatalf("triples = %d: %v", g.Len(), g.Triples())
	}
	quoted := rdf.MustTripleTerm(rdf.NewTriple(
		fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice")))
	objs := g.Objects(quoted, fixtures.Ex("since"))
	if len(objs) != 1 || objs[0].Value != "2021" {
		t.Fatalf("annotation = %v", objs)
	}
}

func TestStarNTriplesRoundTrip(t *testing.T) {
	g := starGraph(t)
	var b strings.Builder
	if err := rio.WriteNTriples(&b, g); err != nil {
		t.Fatal(err)
	}
	back, err := rio.LoadNTriples(strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if !g.Equal(back) {
		t.Fatal("N-Triples star round trip mismatch")
	}
}

func TestStarErrors(t *testing.T) {
	base := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))

	// Nested quoted triples are rejected.
	if _, err := rdf.NewTripleTerm(rdf.NewTriple(
		rdf.MustTripleTerm(base), fixtures.Ex("p"), rdf.NewLiteral("x"))); err == nil {
		t.Error("nested quoted triple should be rejected")
	}

	// Annotating a statement that is not in the graph fails.
	g := fixtures.UniversityGraph()
	missing := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("nobody"))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(missing), fixtures.Ex("since"), rdf.NewLiteral("x")))
	if _, _, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious); err == nil {
		t.Error("annotation of an absent statement should fail")
	}

	// Annotating a key/value-routed statement fails in parsimonious mode.
	g2 := fixtures.UniversityGraph()
	kvStmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("regNo"), rdf.NewLiteral("Bs12"))
	g2.Add(rdf.NewTriple(rdf.MustTripleTerm(kvStmt), fixtures.Ex("verified"), rdf.NewLiteral("yes")))
	if _, _, err := core.Transform(g2, fixtures.UniversityShapes(), core.Parsimonious); err == nil {
		t.Error("annotation of a key/value statement should fail in parsimonious mode")
	}
	// …but works in the non-parsimonious mode, where regNo is an edge.
	store, spg, err := core.Transform(g2, fixtures.UniversityShapes(), core.NonParsimonious)
	if err != nil {
		t.Fatalf("non-parsimonious: %v", err)
	}
	back, err := core.InverseData(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(back) {
		t.Fatal("kv-statement annotation round trip mismatch")
	}

	// Language-tagged annotation values are rejected.
	g3 := starGraph(t)
	g3.Add(rdf.NewTriple(rdf.MustTripleTerm(base), fixtures.Ex("note"), rdf.NewLangLiteral("bien", "fr")))
	if _, _, err := core.Transform(g3, fixtures.UniversityShapes(), core.Parsimonious); err == nil {
		t.Error("language-tagged annotation should be rejected")
	}
}

// The statement → edge index is lazy: it is extended, by inverting edges back
// to their statements, when an annotation pass runs. The tests below pin the
// cases where the annotated edge was not created by the Apply call that
// carries the annotation; each checks the store CSV and the DDL byte for byte
// against one sequential one-shot run over the same statements.

// starAnnotations returns starGraph's three annotation statements.
func starAnnotations(t *testing.T) []rdf.Triple {
	t.Helper()
	var out []rdf.Triple
	starGraph(t).ForEach(func(tr rdf.Triple) bool {
		if tr.S.IsTripleTerm() {
			out = append(out, tr)
		}
		return true
	})
	if len(out) != 3 {
		t.Fatalf("star graph has %d annotations, want 3", len(out))
	}
	return out
}

// applyChunks applies each chunk as its own graph with a transformer-wide
// worker count and returns the final outputs.
func applyChunks(t *testing.T, workers int, chunks ...[]rdf.Triple) outputs {
	t.Helper()
	tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	for i, chunk := range chunks {
		g := rdf.NewGraph()
		for _, x := range chunk {
			g.Add(x)
		}
		if err := tr.ApplyParallel(context.Background(), g, workers, nil); err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
	}
	return outputsOf(t, tr)
}

func TestStarAnnotationOfEarlierApply(t *testing.T) {
	base := fixtures.UniversityGraph().Triples()
	ann := starAnnotations(t)
	want := applyChunks(t, 1, append(append([]rdf.Triple(nil), base...), ann...))
	for _, workers := range []int{1, 2, 4} {
		got := applyChunks(t, workers, base, ann)
		requireSameOutputs(t, want, got, fmt.Sprintf("annotations one Apply after their statements, workers=%d", workers))
	}
}

func TestStarIndexExtendedAcrossApplies(t *testing.T) {
	// Chunk 1 annotates one of its own edges; chunk 2 brings a new edge and
	// annotates it and an edge of chunk 1, so an annotation pass finds edges
	// of its own Apply call and of an earlier one.
	base := fixtures.UniversityGraph().Triples()
	ann := starAnnotations(t) // [0] on advisedBy, [1] and [2] on takesCourse
	extra := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("DB"))
	onExtra := rdf.NewTriple(rdf.MustTripleTerm(extra), fixtures.Ex("since"),
		rdf.NewTypedLiteral("2023", rdf.XSDInteger))
	chunk1 := append(append([]rdf.Triple(nil), base...), ann[0])
	chunk2 := []rdf.Triple{extra, onExtra, ann[1], ann[2]}

	want := applyChunks(t, 1, append(append([]rdf.Triple(nil), chunk1...), chunk2...))
	for _, workers := range []int{1, 2, 4} {
		got := applyChunks(t, workers, chunk1, chunk2)
		requireSameOutputs(t, want, got, fmt.Sprintf("two annotated chunks, workers=%d", workers))
	}
	if !strings.Contains(string(want.edges), "since") || !strings.Contains(string(want.edges), "certainty") {
		t.Fatalf("annotations missing from the edge export:\n%s", want.edges)
	}
}

func TestStarDuplicateStatementLastEdgeWins(t *testing.T) {
	// The same statement applied in two Apply calls is realized as two edges
	// (each delta graph is a set; the transformer does not dedup across
	// calls). An annotation arriving later attaches to the last of them.
	stmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))
	ann := rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger))
	base := fixtures.UniversityGraph().Triples()

	var ref *outputs
	for _, workers := range []int{1, 2, 4} {
		tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range [][]rdf.Triple{base, {stmt}, {ann}} {
			g := rdf.NewGraph()
			for _, x := range chunk {
				g.Add(x)
			}
			if err := tr.ApplyParallel(context.Background(), g, workers, nil); err != nil {
				t.Fatal(err)
			}
		}
		var ids []pg.EdgeID
		for i := 0; i < tr.Store().NumEdges(); i++ {
			if tr.Store().Edge(pg.EdgeID(i)).Label() == "advisedBy" {
				ids = append(ids, pg.EdgeID(i))
			}
		}
		if len(ids) != 2 {
			t.Fatalf("workers=%d: %d advisedBy edges, want the statement realized twice", workers, len(ids))
		}
		if first := tr.Store().Edge(ids[0]); first.NumProps() != 0 {
			t.Fatalf("workers=%d: annotation attached to the earlier edge: %+v", workers, first)
		}
		if last := tr.Store().Edge(ids[1]); last.Prop("since") != int64(2021) {
			t.Fatalf("workers=%d: annotation missing from the last edge: %+v", workers, last)
		}
		st := outputsOf(t, tr)
		if ref == nil {
			ref = &st
		} else {
			requireSameOutputs(t, *ref, st, fmt.Sprintf("duplicate statement, workers=%d", workers))
		}
	}
}
