package core

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// The mapping is a function of S_PG (Prop. 4.1, Def. 3.2): whatever the data
// added to the schema while F_dt ran, BuildMapping over the schema's DDL must
// give back the mapping F_dt used, table for table. Thinned shapes make the
// data reach every Ensure* path: fallback edge routes for predicates the
// shapes miss, bare node types for classes they miss, value labels, and (in
// the parsimonious mode) escape edges for values a key cannot hold.

// thinShapes returns sg without every propEvery-th property shape and every
// nodeEvery-th node shape (0 keeps them all), and without the references to
// dropped node shapes, so F_st still accepts it.
func thinShapes(sg *shacl.Schema, propEvery, nodeEvery int) *shacl.Schema {
	dropped := make(map[string]bool)
	if nodeEvery > 0 {
		for i, ns := range sg.Shapes() {
			if i%nodeEvery == nodeEvery-1 {
				dropped[ns.Name] = true
			}
		}
	}
	out, n := shacl.NewSchema(), 0
	for _, ns := range sg.Shapes() {
		if dropped[ns.Name] {
			continue
		}
		cp := &shacl.NodeShape{Name: ns.Name, TargetClass: ns.TargetClass}
		for _, parent := range ns.Extends {
			if !dropped[parent] {
				cp.Extends = append(cp.Extends, parent)
			}
		}
		for _, ps := range ns.Properties {
			n++
			if propEvery > 0 && n%propEvery == 0 {
				continue
			}
			p := *ps
			p.Types = slices.DeleteFunc(slices.Clone(ps.Types), func(r shacl.TypeRef) bool { return dropped[r.Shape] })
			if len(p.Types) > 0 {
				cp.Properties = append(cp.Properties, &p)
			}
		}
		out.Add(cp)
	}
	return out
}

// checkMappingRoundTrip transforms g under sg and holds the live mapping
// against BuildMapping(ParseDDL(WriteDDL(S_PG))). It returns the live
// mapping's fallback route count.
func checkMappingRoundTrip(t *testing.T, g *rdf.Graph, sg *shacl.Schema, mode Mode) int {
	t.Helper()
	tr, err := NewTransformer(sg, mode)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(g); err != nil {
		t.Fatal(err)
	}
	spg, err := pgschema.ParseDDL(pgschema.WriteDDL(tr.Schema()))
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := BuildMapping(spg)
	if err != nil {
		t.Fatal(err)
	}
	live := tr.mapping
	diffs := diffTables("routes", routeTable(live.routes), routeTable(rebuilt.routes))
	diffs = append(diffs, diffTables("kvByName", routeTable(live.kvByName), routeTable(rebuilt.kvByName))...)
	for _, tab := range []struct {
		name       string
		live, back map[string]string
	}{
		{"classOfLabel", live.classOfLabel, rebuilt.classOfLabel},
		{"labelOfClass", live.labelOfClass, rebuilt.labelOfClass},
		{"dtOfValLabel", live.dtOfValLabel, rebuilt.dtOfValLabel},
		{"valLabelOfDT", live.valLabelOfDT, rebuilt.valLabelOfDT},
		{"predOfEdge", live.predOfEdge, rebuilt.predOfEdge},
		{"annotPred", live.annotPred, rebuilt.annotPred},
		{"annotDT", live.annotDT, rebuilt.annotDT},
		{"names.byIRI", live.names.byIRI, rebuilt.names.byIRI},
		{"names.byName", live.names.byName, rebuilt.names.byName},
	} {
		diffs = append(diffs, diffTables(tab.name, tab.live, tab.back)...)
	}
	diffs = append(diffs, diffTables("edgeSeen", live.edgeSeen, rebuilt.edgeSeen)...)
	if len(diffs) > 0 {
		if len(diffs) > 20 {
			diffs = append(diffs[:20], fmt.Sprintf("… %d more", len(diffs)-20))
		}
		t.Fatalf("the mapping rebuilt from the DDL differs from the live one:\n%s", fmt.Sprint(diffs))
	}
	fallbacks := 0
	for _, r := range live.routes {
		if r.Fallback {
			fallbacks++
		}
	}
	return fallbacks
}

// routeTable keys a route map by "label|pred" with the routes by value.
func routeTable(routes map[routeKey]*Route) map[string]Route {
	out := make(map[string]Route, len(routes))
	for k, r := range routes {
		out[k.label+"|"+k.pred] = *r
	}
	return out
}

// diffTables lists the keys on which two tables disagree, sorted.
func diffTables[V comparable](name string, live, back map[string]V) []string {
	var out []string
	for k, v := range live {
		if w, ok := back[k]; !ok || w != v {
			out = append(out, fmt.Sprintf("%s[%s]: live %+v, rebuilt %+v (present %v)", name, k, v, w, ok))
		}
	}
	for k, w := range back {
		if _, ok := live[k]; !ok {
			out = append(out, fmt.Sprintf("%s[%s]: only rebuilt, %+v", name, k, w))
		}
	}
	sort.Strings(out)
	return out
}

// mappingScale keeps each profile's graph to a few thousand triples.
var mappingScale = map[string]float64{"DBpedia2022": 0.0002, "DBpedia2020": 0.0002, "Bio2RDFCT": 0.0005, "XL": 0.002}

// profileNames lists datagen's profiles in name order.
func profileNames() []string {
	var names []string
	for name := range datagen.Profiles() {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// shapeThinning is the property test's three shape sets: F_st's input as
// extracted, half the property shapes dropped, every third node shape
// dropped.
var shapeThinning = []struct {
	name                 string
	propEvery, nodeEvery int
}{{"extracted", 0, 0}, {"half-props", 2, 0}, {"third-nodes", 0, 3}}

func TestMappingRoundTrip(t *testing.T) {
	profiles, names := datagen.Profiles(), profileNames()
	fallbacks := 0
	for _, name := range names {
		for seed := int64(1); seed <= 3; seed++ {
			g := datagen.Generate(profiles[name], mappingScale[name], seed)
			sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
			for _, thin := range shapeThinning {
				for _, mode := range []Mode{Parsimonious, NonParsimonious} {
					t.Run(fmt.Sprintf("%s/seed%d/%s/%v", name, seed, thin.name, mode), func(t *testing.T) {
						fallbacks += checkMappingRoundTrip(t, g, thinShapes(sg, thin.propEvery, thin.nodeEvery), mode)
					})
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no configuration reached a fallback route")
	}
}

// TestMappingRoundTripAnnotations covers EnsureAnnotation, with RDF-star
// annotations on a shape-declared edge and on a fallback edge whose property
// shape was dropped, and the fallback edge of an untyped subject, whose
// source is a node type with an empty label.
func TestMappingRoundTripAnnotations(t *testing.T) {
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(fixtures.Ex("mystery"), fixtures.Ex("name"), rdf.NewLiteral("Mystery")))
	advised := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("alice"))
	takes := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("takesCourse"), fixtures.Ex("DB"))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(advised), fixtures.Ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(takes), fixtures.Ex("grade"), rdf.NewLiteral("A")))
	g.Add(rdf.NewTriple(rdf.MustTripleTerm(takes), fixtures.Ex("certainty"), rdf.NewTypedLiteral("0.9", rdf.XSDDouble)))
	for _, thin := range shapeThinning {
		for _, mode := range []Mode{Parsimonious, NonParsimonious} {
			t.Run(fmt.Sprintf("%s/%v", thin.name, mode), func(t *testing.T) {
				checkMappingRoundTrip(t, g, thinShapes(fixtures.UniversityShapes(), thin.propEvery, thin.nodeEvery), mode)
			})
		}
	}
}

// FuzzMappingRoundTrip draws the profile, the mode, the share of property
// and node shapes dropped and the seed.
func FuzzMappingRoundTrip(f *testing.F) {
	f.Add(uint8(0), false, uint8(2), uint8(0), int64(1))
	f.Add(uint8(1), true, uint8(0), uint8(3), int64(2))
	f.Add(uint8(2), false, uint8(3), uint8(2), int64(3))
	f.Add(uint8(3), true, uint8(1), uint8(4), int64(4))
	profiles, names := datagen.Profiles(), profileNames()
	f.Fuzz(func(t *testing.T, profile uint8, nonParsimonious bool, propEvery, nodeEvery uint8, seed int64) {
		name := names[int(profile)%len(names)]
		g := datagen.Generate(profiles[name], mappingScale[name], seed)
		sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
		mode := Parsimonious
		if nonParsimonious {
			mode = NonParsimonious
		}
		checkMappingRoundTrip(t, g, thinShapes(sg, int(propEvery%5), int(nodeEvery%5)), mode)
	})
}
