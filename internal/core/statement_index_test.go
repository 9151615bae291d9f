package core

import (
	"bytes"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/rdf"
)

// TestStatementIndexIsLazy: an input without annotations builds no statement
// key — not while statements are routed, not on restore — and an annotation
// pass indexes every edge there is.
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
	st, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreTransformer(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.edgeOf) != 0 || restored.indexedUpTo != 0 {
		t.Fatalf("restore indexed %d statements", len(restored.edgeOf))
	}

	stmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	for _, x := range []*Transformer{tr, restored} {
		if err := x.Apply(g); err != nil {
			t.Fatal(err)
		}
		if n := x.store.NumEdges(); x.indexedUpTo != n || len(x.edgeOf) != n {
			t.Fatalf("annotation pass indexed %d statements up to edge %d, store has %d edges", len(x.edgeOf), x.indexedUpTo, n)
		}
	}
}

// TestRestoreToleratesUninvertibleEdge: an edge the inverse mapping cannot
// turn back into a statement no longer fails the resume; it is only not
// annotatable, and says so when an annotation asks for it.
func TestRestoreToleratesUninvertibleEdge(t *testing.T) {
	tr, err := NewTransformer(fixtures.UniversityShapes(), Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(fixtures.UniversityGraph()); err != nil {
		t.Fatal(err)
	}
	st, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(st.EdgesCSV, []byte(",worksFor,"), []byte(",ghost,"), 1)
	if bytes.Equal(tampered, st.EdgesCSV) {
		t.Fatal("fixture has no worksFor edge to tamper with")
	}
	st.EdgesCSV = tampered
	restored, err := RestoreTransformer(st)
	if err != nil {
		t.Fatalf("restore over an edge no annotation asks for: %v", err)
	}

	annotate := func(stmt rdf.Triple) error {
		g := rdf.NewGraph()
		g.Add(rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
		return restored.Apply(g)
	}
	if err := annotate(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))); err != nil {
		t.Fatalf("annotation of an invertible edge: %v", err)
	}
	err = annotate(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("worksFor"), fixtures.Ex("CS")))
	if err == nil || !strings.Contains(err.Error(), "is not realized as an edge") {
		t.Fatalf("annotation of the uninvertible edge: %v", err)
	}
}
