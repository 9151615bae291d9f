package core_test

import (
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shapeex"
)

func TestOptimizeCompactsNonParsimoniousGraph(t *testing.T) {
	g := fixtures.UniversityGraph()
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	opt, optSchema, err := core.Optimize(store, spg)
	if err != nil {
		t.Fatal(err)
	}

	// The optimized graph is strictly smaller: single-type literal value
	// nodes (name, regNo) fold back into key/value properties.
	if opt.NumNodes() >= store.NumNodes() || opt.NumEdges() >= store.NumEdges() {
		t.Fatalf("not compacted: %d/%d nodes, %d/%d edges",
			opt.NumNodes(), store.NumNodes(), opt.NumEdges(), store.NumEdges())
	}
	bob, bobOK := opt.NodeByIRI(fixtures.ExNS + "bob")
	if !bobOK || bob.Prop("name") != "Bob" {
		t.Fatalf("bob not inlined: %+v", bob)
	}

	// Information preservation survives the optimization.
	back, err := core.InverseData(opt, optSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("optimization broke the inverse mapping")
	}

	// The optimized graph conforms to the optimized schema.
	if vs := pgschema.Check(opt, optSchema); len(vs) != 0 {
		t.Fatalf("optimized PG violations: %v", vs)
	}
}

func TestOptimizeKeepsHeterogeneousAsEdges(t *testing.T) {
	g := fixtures.UniversityGraph()
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	opt, _, err := core.Optimize(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	// takesCourse mixes entity and string targets → must stay edges.
	bob, _ := opt.NodeByIRI(fixtures.ExNS + "bob")
	if bob.Prop("takesCourse") != nil {
		t.Fatal("heterogeneous property must not be inlined")
	}
	edges := 0
	for _, eid := range opt.Out(bob.ID) {
		if opt.Edge(eid).Label() == "takesCourse" {
			edges++
		}
	}
	if edges != 2 {
		t.Fatalf("takesCourse edges = %d", edges)
	}
	// dob mixes datatypes (gYear here, date on alice) → stays as edges too.
	if bob.Prop("dob") != nil {
		t.Fatal("mixed-datatype property must not be inlined")
	}
}

func TestOptimizeSkipsLangAndNonCanonical(t *testing.T) {
	g := fixtures.UniversityGraph()
	// Make regNo values problematic: one non-canonical-free string is fine,
	// but a language-tagged dob would poison that label if inlined.
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("nick"), rdf.NewLangLiteral("Bobby", "en")))
	sg := fixtures.UniversityShapes()
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	opt, optSchema, err := core.Optimize(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(opt, optSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("language-tagged value lost through optimization")
	}
}

func TestOptimizeIdempotentOnParsimonious(t *testing.T) {
	// A parsimonious graph has little to optimize; the result must still
	// round trip and not grow.
	g := fixtures.UniversityGraph()
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	opt, optSchema, err := core.Optimize(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	if opt.NumNodes() > store.NumNodes() {
		t.Fatal("optimization grew the graph")
	}
	back, err := core.InverseData(opt, optSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("round trip broken")
	}
}

func TestOptimizeSharedValueNodes(t *testing.T) {
	// A value node shared between a convertible and a non-convertible label
	// must survive for the latter.
	g := rdf.NewGraph()
	x := func(l string) rdf.Term { return rdf.NewIRI("http://x/" + l) }
	g.Add(rdf.NewTriple(x("e1"), rdf.A, x("T")))
	g.Add(rdf.NewTriple(x("e2"), rdf.A, x("T")))
	// p is uniformly string-valued (convertible); q mixes a string with an
	// entity (not convertible). Both share the literal "shared".
	g.Add(rdf.NewTriple(x("e1"), x("p"), rdf.NewLiteral("shared")))
	g.Add(rdf.NewTriple(x("e1"), x("q"), rdf.NewLiteral("shared")))
	g.Add(rdf.NewTriple(x("e2"), x("q"), x("e1")))

	sg := shapeex.Extract(g, shapeex.Options{})
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	opt, optSchema, err := core.Optimize(store, spg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := core.InverseData(opt, optSchema)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatal("shared value node handling broke the round trip")
	}
}
