package rdf2pgx_test

import (
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/baseline/rdf2pgx"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

func x(l string) rdf.Term { return rdf.NewIRI("http://x/" + l) }

func TestHeterogeneousPropertyLosesMinority(t *testing.T) {
	// 2 IRI values vs 1 literal: the property is declared an object
	// property and the literal is dropped — the paper's Q29-style loss.
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(x("a"), rdf.A, x("Album")))
	g.Add(rdf.NewTriple(x("w1"), rdf.A, x("Person")))
	g.Add(rdf.NewTriple(x("w2"), rdf.A, x("Person")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), x("w1")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), x("w2")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), rdf.NewLiteral("Tofer Brown")))

	st, stats := rdf2pgx.Transform(g)
	if stats.DroppedLiterals != 1 {
		t.Fatalf("dropped literals = %d, want 1", stats.DroppedLiterals)
	}
	album, _ := st.NodeByIRI("http://x/a")
	if album.Prop("writer") != nil {
		t.Fatal("writer literal should have been dropped, not stored")
	}
	edges := 0
	for _, eid := range st.Out(album.ID) {
		if st.Edge(eid).Label() == "writer" {
			edges++
		}
	}
	if edges != 2 {
		t.Fatalf("writer edges = %d", edges)
	}
}

func TestDatatypePropertyDropsIRIs(t *testing.T) {
	// 2 literals vs 1 IRI: datatype property; the IRI side is dropped.
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(x("a"), rdf.A, x("Album")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), rdf.NewLiteral("W One")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), rdf.NewLiteral("W Two")))
	g.Add(rdf.NewTriple(x("w1"), rdf.A, x("Person")))
	g.Add(rdf.NewTriple(x("a"), x("writer"), x("w1")))

	st, stats := rdf2pgx.Transform(g)
	if stats.DroppedResources != 1 {
		t.Fatalf("dropped resources = %d, want 1", stats.DroppedResources)
	}
	album, _ := st.NodeByIRI("http://x/a")
	for _, eid := range st.Out(album.ID) {
		if st.Edge(eid).Label() == "writer" {
			t.Fatal("writer edge should have been dropped")
		}
	}
}

func TestDatatypeCoercion(t *testing.T) {
	// Majority datatype integer; a numeric string coerces, a date does not.
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(x("s"), rdf.A, x("T")))
	g.Add(rdf.NewTriple(x("s"), x("v"), rdf.NewTypedLiteral("1", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(x("s"), x("v"), rdf.NewTypedLiteral("2", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(x("s"), x("v"), rdf.NewLiteral("3")))
	g.Add(rdf.NewTriple(x("s"), x("v"), rdf.NewTypedLiteral("2020-01-01", rdf.XSDDate)))

	st, stats := rdf2pgx.Transform(g)
	if stats.DroppedLiterals != 1 {
		t.Fatalf("dropped = %+v", stats)
	}
	n, _ := st.NodeByIRI("http://x/s")
	arr, ok := n.Prop("v").([]pg.Value)
	if !ok || len(arr) != 3 { // 1, 2, and the coerced "3"
		t.Fatalf("v = %v", n.Prop("v"))
	}
	for _, v := range arr {
		if _, isInt := v.(int64); !isInt {
			t.Fatalf("non-integer survived coercion: %v", v)
		}
	}
}

func TestUniversityMostlyPreserved(t *testing.T) {
	st, stats := rdf2pgx.Transform(fixtures.UniversityGraph())
	// takesCourse has 1 IRI + 1 literal → tie goes to object property →
	// the string course is dropped.
	if stats.DroppedLiterals == 0 {
		t.Fatalf("expected the heterogeneous course literal to be dropped: %+v", stats)
	}
	bob, bobOK := st.NodeByIRI(fixtures.ExNS + "bob")
	if !bobOK || bob.Prop("regNo") != "Bs12" {
		t.Fatalf("bob = %+v", bob)
	}
}

func TestWriteYARSPG(t *testing.T) {
	st, stats := rdf2pgx.Transform(fixtures.UniversityGraph())
	if stats.YARSPGBytes <= 0 {
		t.Fatalf("no YARS-PG output recorded: %+v", stats)
	}
	var b strings.Builder
	if err := rdf2pgx.WriteYARSPG(&b, st); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"Person"`) || !strings.Contains(out, `-["advisedBy"]->`) {
		t.Fatalf("unexpected YARS-PG output:\n%s", out[:min(400, len(out))])
	}
	if int64(len(out)) != stats.YARSPGBytes {
		t.Fatalf("stats bytes %d != serialized %d", stats.YARSPGBytes, len(out))
	}
}
