package neosem_test

import (
	"testing"

	"github.com/s3pg/s3pg/internal/baseline/neosem"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

func TestTransformBasics(t *testing.T) {
	st, stats := neosem.Transform(fixtures.UniversityGraph())
	if stats.DroppedValues != 0 {
		t.Fatalf("unexpected drops: %+v", stats)
	}
	bob, bobOK := st.NodeByIRI(fixtures.ExNS + "bob")
	if !bobOK {
		t.Fatal("bob missing")
	}
	// Labels: Resource + the three classes.
	for _, l := range []string{"Resource", "Person", "Student", "GraduateStudent"} {
		if !bob.HasLabel(l) {
			t.Fatalf("bob labels = %v, missing %s", bob.Labels(), l)
		}
	}
	// All literals are properties — including the heterogeneous course.
	if bob.Prop("regNo") != "Bs12" {
		t.Fatalf("regNo = %v", bob.Prop("regNo"))
	}
	if bob.Prop("takesCourse") != "Intro to Logic" {
		t.Fatalf("takesCourse prop = %v", bob.Prop("takesCourse"))
	}
	// The IRI course is a relationship.
	db, _ := st.NodeByIRI(fixtures.ExNS + "DB")
	foundRel := false
	for _, eid := range st.Out(bob.ID) {
		e := st.Edge(eid)
		if e.Label() == "takesCourse" && e.To == db.ID {
			foundRel = true
		}
	}
	if !foundRel {
		t.Fatal("takesCourse relationship missing")
	}
}

func TestMultivalueArrayCoercion(t *testing.T) {
	g := rdf.NewGraph()
	s := rdf.NewIRI("http://x/s")
	p := rdf.NewIRI("http://x/val")
	g.Add(rdf.NewTriple(s, rdf.A, rdf.NewIRI("http://x/T")))
	// First value fixes the array type to integer…
	g.Add(rdf.NewTriple(s, p, rdf.NewTypedLiteral("1", rdf.XSDInteger)))
	// …a coercible string survives…
	g.Add(rdf.NewTriple(s, p, rdf.NewLiteral("2")))
	// …an uncoercible one is dropped.
	g.Add(rdf.NewTriple(s, p, rdf.NewLiteral("not a number")))

	st, stats := neosem.Transform(g)
	if stats.DroppedValues != 1 {
		t.Fatalf("dropped = %d, want 1", stats.DroppedValues)
	}
	n, _ := st.NodeByIRI("http://x/s")
	arr, ok := n.Prop("val").([]pg.Value)
	if !ok || len(arr) != 2 || arr[0] != int64(1) || arr[1] != int64(2) {
		t.Fatalf("val = %v", n.Prop("val"))
	}
}

func TestStringFirstLosesNothing(t *testing.T) {
	// When the first value is a string, everything coerces (to string).
	g := rdf.NewGraph()
	s := rdf.NewIRI("http://x/s")
	p := rdf.NewIRI("http://x/val")
	g.Add(rdf.NewTriple(s, rdf.A, rdf.NewIRI("http://x/T")))
	g.Add(rdf.NewTriple(s, p, rdf.NewLiteral("first")))
	g.Add(rdf.NewTriple(s, p, rdf.NewTypedLiteral("2", rdf.XSDInteger)))
	_, stats := neosem.Transform(g)
	if stats.DroppedValues != 0 {
		t.Fatalf("dropped = %d", stats.DroppedValues)
	}
}

func TestUntypedObjectsBecomeResources(t *testing.T) {
	g := rdf.NewGraph()
	s := rdf.NewIRI("http://x/s")
	g.Add(rdf.NewTriple(s, rdf.A, rdf.NewIRI("http://x/T")))
	g.Add(rdf.NewTriple(s, rdf.NewIRI("http://x/knows"), rdf.NewIRI("http://x/other")))
	st, _ := neosem.Transform(g)
	other, otherOK := st.NodeByIRI("http://x/other")
	if !otherOK || !other.HasLabel("Resource") {
		t.Fatalf("other = %+v", other)
	}
}

func TestBlankNodes(t *testing.T) {
	g := rdf.NewGraph()
	b := rdf.NewBlank("b0")
	g.Add(rdf.NewTriple(b, rdf.A, rdf.NewIRI("http://x/T")))
	g.Add(rdf.NewTriple(b, rdf.NewIRI("http://x/p"), rdf.NewLiteral("v")))
	st, _ := neosem.Transform(g)
	n, nOK := st.NodeByIRI("_:b0")
	if !nOK || n.Prop("p") != "v" {
		t.Fatalf("blank node = %+v", n)
	}
}
