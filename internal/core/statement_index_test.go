package core

import (
	"testing"

	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/rdf"
)

// TestStatementIndexIsLazy: an input without annotations builds no statement
// key while statements are routed, and an annotation pass indexes every edge
// there is.
func TestStatementIndexIsLazy(t *testing.T) {
	tr, err := NewTransformer(fixtures.UniversityShapes(), Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(fixtures.UniversityGraph()); err != nil {
		t.Fatal(err)
	}
	if len(tr.edgeOf) != 0 || tr.indexedUpTo != 0 {
		t.Fatalf("annotation-free Apply indexed %d statements (up to edge %d)", len(tr.edgeOf), tr.indexedUpTo)
	}

	stmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	if err := tr.Apply(g); err != nil {
		t.Fatal(err)
	}
	if n := tr.store.NumEdges(); tr.indexedUpTo != n || len(tr.edgeOf) != n {
		t.Fatalf("annotation pass indexed %d statements up to edge %d, store has %d edges", len(tr.edgeOf), tr.indexedUpTo, n)
	}
}
