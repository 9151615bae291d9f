package core_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
)

func TestTransformSchemaParsimoniousUniversity(t *testing.T) {
	sg := fixtures.UniversityShapes()
	spg, err := core.TransformSchema(sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}

	// Single-type literal [1..1] → required key/value property (Figure 5a).
	person := spg.NodeType("personType")
	if person == nil {
		t.Fatal("personType missing")
	}
	name := person.Prop("name")
	if name == nil || name.Optional || name.Array || name.Type != "STRING" {
		t.Fatalf("name property = %+v", name)
	}
	if name.IRI != fixtures.ExNS+"name" {
		t.Fatalf("name IRI = %q", name.IRI)
	}

	// Inheritance: studentType extends personType (Figure 5b).
	student := spg.NodeType("studentType")
	if len(student.Extends) != 1 || student.Extends[0] != "personType" {
		t.Fatalf("student extends = %v", student.Extends)
	}

	// Multi-type literal dob → value node types + edge type (Figure 5d).
	if person.Prop("dob") != nil {
		t.Fatal("multi-type dob must not be a key/value property")
	}
	var dobType *pgschema.EdgeType
	for _, et := range spg.EdgeTypes() {
		if et.Label == "dob" {
			dobType = et
		}
	}
	if dobType == nil || len(dobType.Targets) != 3 {
		t.Fatalf("dob edge type = %+v", dobType)
	}
	for _, target := range dobType.Targets {
		if nt := spg.NodeType(target); nt == nil || !nt.Value {
			t.Fatalf("dob target %s is not a value type", target)
		}
	}

	// Single-type non-literal worksFor → edge type + COUNT 1..1 key (5c).
	var worksForKey *pgschema.Key
	for _, k := range spg.Keys {
		if k.EdgeLabel == "worksFor" {
			worksForKey = k
		}
	}
	if worksForKey == nil || worksForKey.Min != 1 || worksForKey.Max != 1 ||
		worksForKey.SourceLabel != "Professor" {
		t.Fatalf("worksFor key = %+v", worksForKey)
	}

	// Multi-type heterogeneous takesCourse → class + value targets (5f).
	var takes *pgschema.EdgeType
	for _, et := range spg.EdgeTypes() {
		if et.Label == "takesCourse" {
			takes = et
		}
	}
	if takes == nil || len(takes.Targets) != 3 {
		t.Fatalf("takesCourse = %+v", takes)
	}
	values, classes := 0, 0
	for _, target := range takes.Targets {
		if spg.NodeType(target).Value {
			values++
		} else {
			classes++
		}
	}
	if values != 1 || classes != 2 {
		t.Fatalf("takesCourse targets: %d values, %d classes", values, classes)
	}
}

func TestTransformSchemaNonParsimonious(t *testing.T) {
	sg := fixtures.UniversityShapes()
	spg, err := core.TransformSchema(sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5g: no node type declares key/value properties; everything is
	// an edge type.
	for _, nt := range spg.NodeTypes() {
		if len(nt.Properties) != 0 {
			t.Fatalf("node type %s has properties %v in non-parsimonious mode", nt.Name, nt.Properties)
		}
	}
	found := false
	for _, et := range spg.EdgeTypes() {
		if et.Label == "name" {
			found = true
		}
	}
	if !found {
		t.Fatal("name must become an edge type in non-parsimonious mode")
	}
}

func TestSchemaDDLRoundTripBothModes(t *testing.T) {
	sg := fixtures.UniversityShapes()
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		spg, err := core.TransformSchema(sg, mode)
		if err != nil {
			t.Fatal(err)
		}
		ddl := pgschema.WriteDDL(spg)
		back, err := pgschema.ParseDDL(ddl)
		if err != nil {
			t.Fatalf("%v: parse: %v\n%s", mode, err, ddl)
		}
		if !spg.Equal(back) {
			t.Fatalf("%v: DDL round trip mismatch:\n%s", mode, ddl)
		}
	}
}

func TestInverseSchemaRoundTrip(t *testing.T) {
	for _, fix := range []struct {
		name string
		sg   *shacl.Schema
	}{
		{"university", fixtures.UniversityShapes()},
		{"music", fixtures.MusicAlbumShapes()},
	} {
		for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
			spg, err := core.TransformSchema(fix.sg, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", fix.name, mode, err)
			}
			back, err := core.InverseSchema(spg)
			if err != nil {
				t.Fatalf("%s/%v: inverse: %v", fix.name, mode, err)
			}
			if !fix.sg.Equal(back) {
				t.Fatalf("%s/%v: N(F_st(S_G)) ≠ S_G\noriginal:\n%s\nback:\n%s",
					fix.name, mode, fix.sg, back)
			}
		}
	}
}

func TestDataTransformUniversityStructure(t *testing.T) {
	g := fixtures.UniversityGraph()
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}

	bob, bobOK := store.NodeByIRI(fixtures.ExNS + "bob")
	if !bobOK {
		t.Fatal("bob node missing")
	}
	wantLabels := []string{"GraduateStudent", "Person", "Student"}
	if len(bob.Labels()) != 3 {
		t.Fatalf("bob labels = %v", bob.Labels())
	}
	for i, l := range wantLabels {
		if bob.Labels()[i] != l {
			t.Fatalf("bob labels = %v, want %v", bob.Labels(), wantLabels)
		}
	}
	// Parsimonious key/values.
	if bob.Prop("name") != "Bob" || bob.Prop("regNo") != "Bs12" {
		t.Fatalf("bob props = %v %v", bob.Prop("name"), bob.Prop("regNo"))
	}
	// dob is multi-type → value node, not a key/value.
	if bob.Prop("dob") != nil {
		t.Fatal("dob must not be a key/value property")
	}

	// advisedBy edge to alice.
	alice, _ := store.NodeByIRI(fixtures.ExNS + "alice")
	foundAdvised := false
	for _, eid := range store.Out(bob.ID) {
		e := store.Edge(eid)
		if e.Label() == "advisedBy" && e.To == alice.ID {
			foundAdvised = true
		}
	}
	if !foundAdvised {
		t.Fatal("advisedBy edge missing")
	}

	// takesCourse: one edge to the DB course entity, one to a STRING value node.
	var toEntity, toValue int
	for _, eid := range store.Out(bob.ID) {
		e := store.Edge(eid)
		if e.Label() != "takesCourse" {
			continue
		}
		target := store.Node(e.To)
		if target.HasLabel("STRING") {
			toValue++
			if target.Prop("value") != "Intro to Logic" {
				t.Fatalf("string course value = %v", target.Prop("value"))
			}
		} else {
			toEntity++
		}
	}
	if toEntity != 1 || toValue != 1 {
		t.Fatalf("takesCourse edges: %d entity, %d value", toEntity, toValue)
	}

	// Semantics preservation, positive side: conforming G → conforming PG.
	if vs := pgschema.Check(store, spg); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("PG violation: %s", v)
		}
	}
}

func TestDataTransformNonParsimoniousStructure(t *testing.T) {
	g := fixtures.UniversityGraph()
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	bob, _ := store.NodeByIRI(fixtures.ExNS + "bob")
	if bob.NumProps() != 1 { // only iri
		t.Fatalf("non-parsimonious bob has %d props", bob.NumProps())
	}
	// name is now an edge to a STRING value node.
	found := false
	for _, eid := range store.Out(bob.ID) {
		e := store.Edge(eid)
		if e.Label() == "name" && store.Node(e.To).Prop("value") == "Bob" {
			found = true
		}
	}
	if !found {
		t.Fatal("name edge missing in non-parsimonious mode")
	}
	if vs := pgschema.Check(store, spg); len(vs) != 0 {
		t.Fatalf("PG violations: %v", vs)
	}
	// Non-parsimonious graphs are strictly larger (Table 5 effect).
	pStore, _, _ := core.Transform(g, sg, core.Parsimonious)
	if store.NumNodes() <= pStore.NumNodes() || store.NumEdges() <= pStore.NumEdges() {
		t.Fatalf("non-parsimonious (%d n, %d e) not larger than parsimonious (%d n, %d e)",
			store.NumNodes(), store.NumEdges(), pStore.NumNodes(), pStore.NumEdges())
	}
}

func TestInformationPreservationRoundTrip(t *testing.T) {
	for _, fix := range []struct {
		name string
		g    *rdf.Graph
		sg   *shacl.Schema
	}{
		{"university", fixtures.UniversityGraph(), fixtures.UniversityShapes()},
		{"music", fixtures.MusicAlbumGraph(), fixtures.MusicAlbumShapes()},
	} {
		for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
			store, spg, err := core.Transform(fix.g, fix.sg, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", fix.name, mode, err)
			}
			back, err := core.InverseData(store, spg)
			if err != nil {
				t.Fatalf("%s/%v: inverse: %v", fix.name, mode, err)
			}
			if !fix.g.Equal(back) {
				t.Errorf("%s/%v: M(F_dt(G)) ≠ G (%d vs %d triples)",
					fix.name, mode, fix.g.Len(), back.Len())
				fix.g.ForEach(func(tr rdf.Triple) bool {
					if !back.Has(tr) {
						t.Errorf("  missing: %v", tr)
					}
					return true
				})
				back.ForEach(func(tr rdf.Triple) bool {
					if !fix.g.Has(tr) {
						t.Errorf("  extra:   %v", tr)
					}
					return true
				})
			}
		}
	}
}

func TestInverseDataFromSerializedSchema(t *testing.T) {
	// M must be computable from PG + the *serialized* S_PG alone.
	g := fixtures.UniversityGraph()
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
		t.Fatal("round trip through serialized schema lost information")
	}
}

func TestSemanticsPreservationNegative(t *testing.T) {
	// G ⊭ S_G must transform to PG ⊭ S_PG (Definition 3.3, second half).
	sg := fixtures.UniversityShapes()

	// Violation 1: missing mandatory regNo (minCount).
	g1 := fixtures.UniversityGraph()
	g1.Remove(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("regNo"), rdf.NewLiteral("Bs12")))
	if len(shacl.Validate(g1, sg)) == 0 {
		t.Fatal("setup: g1 should violate SHACL")
	}
	store1, spg1, err := core.Transform(g1, sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if len(pgschema.Check(store1, spg1)) == 0 {
		t.Fatal("missing regNo: PG should not conform")
	}

	// Violation 2: wrong datatype on a key/value property.
	g2 := fixtures.UniversityGraph()
	g2.Remove(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("name"), rdf.NewLiteral("Alice")))
	g2.Add(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("name"), rdf.NewTypedLiteral("42", rdf.XSDInteger)))
	store2, spg2, err := core.Transform(g2, sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if len(pgschema.Check(store2, spg2)) == 0 {
		t.Fatal("integer name: PG should not conform")
	}
	// …and the non-conforming value must still round-trip.
	back, err := core.InverseData(store2, spg2)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.Equal(back) {
		t.Fatal("non-conforming data must still be information-preserved")
	}

	// Violation 3: cardinality overflow on an edge-typed property.
	g3 := fixtures.UniversityGraph()
	g3.Add(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("worksFor"), fixtures.Ex("CS2")))
	g3.Add(rdf.NewTriple(fixtures.Ex("CS2"), rdf.A, fixtures.Ex("Department")))
	g3.Add(rdf.NewTriple(fixtures.Ex("CS2"), fixtures.Ex("name"), rdf.NewLiteral("CS Two")))
	store3, spg3, err := core.Transform(g3, sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if len(pgschema.Check(store3, spg3)) == 0 {
		t.Fatal("double worksFor: PG should not conform")
	}
}

func TestMonotonicity(t *testing.T) {
	// Definition 3.4: F(S1) ∪ F(SΔ) ≅ F(S2) with S2 = S1 ∪ SΔ. We verify the
	// isomorphism through the inverse mapping: the incrementally built PG
	// must decode to exactly S2.
	s1 := fixtures.UniversityGraph()
	delta := fixtures.MustParseTurtle(`
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix ex:  <http://example.org/univ#> .
ex:carol a ex:Person, ex:Student ;
  ex:name "Carol" ;
  ex:regNo "Cs77" ;
  ex:dob "2001-01-31"^^xsd:date ;
  ex:advisedBy ex:alice .
ex:bob ex:takesCourse "Advanced Logic" .
`)
	sg := fixtures.UniversityShapes()

	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		tr, err := core.NewTransformer(sg, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Apply(s1); err != nil {
			t.Fatal(err)
		}
		nodesBefore, edgesBefore := tr.Store().NumNodes(), tr.Store().NumEdges()
		if err := tr.Apply(delta); err != nil {
			t.Fatal(err)
		}
		// Monotone: nothing removed, only additions.
		if tr.Store().NumNodes() < nodesBefore || tr.Store().NumEdges() < edgesBefore {
			t.Fatalf("%v: incremental application shrank the PG", mode)
		}

		s2 := s1.Clone()
		s2.AddAll(delta)
		back, err := core.InverseData(tr.Store(), tr.Schema())
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !s2.Equal(back) {
			t.Fatalf("%v: incremental PG decodes to %d triples, want %d", mode, back.Len(), s2.Len())
		}

		// And the incremental result is isomorphic to the from-scratch one.
		full, _, err := core.Transform(s2, sg, mode)
		if err != nil {
			t.Fatal(err)
		}
		if full.NumEdges() != tr.Store().NumEdges() {
			t.Fatalf("%v: edge counts differ: full %d vs incremental %d",
				mode, full.NumEdges(), tr.Store().NumEdges())
		}
	}
}

func TestBlankNodesRoundTrip(t *testing.T) {
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(rdf.NewBlank("anon1"), rdf.A, fixtures.Ex("Person")))
	g.Add(rdf.NewTriple(rdf.NewBlank("anon1"), fixtures.Ex("name"), rdf.NewLiteral("Anon")))
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), rdf.NewBlank("anon1")))
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("blank nodes did not round trip")
	}
}

func TestUntypedResourceObjectRoundTrip(t *testing.T) {
	// An IRI object never declared as an entity becomes a resource value
	// node and must decode back to the IRI, not to a literal.
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("homepage"), rdf.NewIRI("http://bob.example.com/")))
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("untyped resource object did not round trip")
	}
}

func TestNonCanonicalLexicalRoundTrip(t *testing.T) {
	// "042"^^xsd:integer formats back as "42"; the transformation must keep
	// the exact lexical to stay information preserving.
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("dob"), rdf.NewTypedLiteral("1999", rdf.XSDString)))
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("takesCourse"), rdf.NewLiteral("042")))
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("lexical forms did not round trip")
	}
}

func TestLangLiteralRoundTrip(t *testing.T) {
	g := fixtures.UniversityGraph()
	// A language-tagged name violates the xsd:string constraint but must
	// still be preserved (it escapes to a value node).
	g.Add(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("dob"), rdf.NewLangLiteral("les années 70", "fr")))
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("language-tagged literal did not round trip")
	}
}

// Property: random ABox graphs over the university schema always round trip
// through the transformation in both modes.
func TestQuickRoundTrip(t *testing.T) {
	sg := fixtures.UniversityShapes()
	ex := fixtures.Ex
	f := func(seed int64, nonPars bool) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		classes := []rdf.Term{ex("Person"), ex("Student"), ex("GraduateStudent"), ex("Course"), ex("Department")}
		var people []rdf.Term
		for i := 0; i < 3+rng.Intn(6); i++ {
			e := ex(fmt.Sprintf("e%d", i))
			g.Add(rdf.NewTriple(e, rdf.A, classes[rng.Intn(len(classes))]))
			if rng.Intn(2) == 0 {
				g.Add(rdf.NewTriple(e, ex("name"), rdf.NewLiteral(fmt.Sprintf("N%d", rng.Intn(5)))))
			}
			if rng.Intn(3) == 0 {
				g.Add(rdf.NewTriple(e, ex("dob"), rdf.NewTypedLiteral(fmt.Sprint(1950+rng.Intn(70)), rdf.XSDGYear)))
			}
			if rng.Intn(3) == 0 {
				g.Add(rdf.NewTriple(e, ex("takesCourse"), rdf.NewLiteral(fmt.Sprintf("C%d", rng.Intn(4)))))
			}
			people = append(people, e)
		}
		for i := 0; i < rng.Intn(6); i++ {
			a := people[rng.Intn(len(people))]
			b := people[rng.Intn(len(people))]
			g.Add(rdf.NewTriple(a, ex("advisedBy"), b))
		}
		mode := core.Parsimonious
		if nonPars {
			mode = core.NonParsimonious
		}
		store, spg, err := core.Transform(g, sg, mode)
		if err != nil {
			return false
		}
		back, err := core.InverseData(store, spg)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestUntypedSelfLoopIsEntityEdge: a statement whose object is its own
// untyped subject, first made an entity by that statement, is an edge from
// the subject's node to itself — also when an earlier statement already
// encoded that IRI as a resource value node.
func TestUntypedSelfLoopIsEntityEdge(t *testing.T) {
	a := fixtures.Ex("loop")
	loop := rdf.NewTriple(a, rdf.NewIRI(fixtures.ExNS+"p"), a)
	earlier := rdf.NewTriple(fixtures.Ex("x"), rdf.NewIRI(fixtures.ExNS+"q"), a)
	for _, tc := range []struct {
		name    string
		triples []rdf.Triple
	}{
		{"alone", []rdf.Triple{loop}},
		{"after-value-node", []rdf.Triple{earlier, loop}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := rdf.NewGraph()
			for _, tr := range tc.triples {
				g.Add(tr)
			}
			store, _, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
			if err != nil {
				t.Fatal(err)
			}
			loops := 0
			for id := 0; id < store.NumEdges(); id++ {
				if e := store.Edge(pg.EdgeID(id)); e.From == e.To {
					loops++
				}
			}
			if loops != 1 {
				t.Fatalf("%d self-loop edges, want 1 (%d nodes, %d edges)", loops, store.NumNodes(), store.NumEdges())
			}
		})
	}
}

// TestExtendEdgeTargetsAfterNewEdgeType: ExtendEdgeTargets skips a pair it
// has already made complete, but an edge type added since with the same
// label still gets the target.
func TestExtendEdgeTargetsAfterNewEdgeType(t *testing.T) {
	m, err := core.BuildMapping(pgschema.NewSchema())
	if err != nil {
		t.Fatal(err)
	}
	a, b := m.EnsureClassLabel("http://example.org/A"), m.EnsureClassLabel("http://example.org/B")
	edge := m.EnsureEdgeRoute(a, "http://example.org/p").Name
	m.ExtendEdgeTargets(edge, b)
	m.ExtendEdgeTargets(edge, b)
	m.EnsureEdgeRoute(b, "http://example.org/p") // a second edge type labelled edge
	m.ExtendEdgeTargets(edge, b)
	ets, target := m.Schema().EdgeTypesByLabel(edge), m.Schema().NodeTypeByLabel(b).Name
	if len(ets) != 2 {
		t.Fatalf("%d edge types labelled %s, want 2", len(ets), edge)
	}
	for _, et := range ets {
		if !slices.Equal(et.Targets, []string{target}) {
			t.Fatalf("edge type %s has targets %v, want [%s]", et.Name, et.Targets, target)
		}
	}
}
