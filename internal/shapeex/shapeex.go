// Package shapeex extracts SHACL shapes from RDF instance data, standing in
// for the QSE shape extractor the paper uses ([33] in §5) to obtain shapes
// for DBpedia and Bio2RDF. For every class it derives one node shape; for
// every property used by the class's instances it derives a property shape
// whose type alternatives are the observed object kinds (literal datatypes
// and object classes) and whose cardinalities are the observed min/max
// counts. Like QSE, alternatives below a support threshold are pruned, so
// rare dirty values do not pollute the schema.
package shapeex

import (
	"fmt"
	"sort"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
)

// ShapeNS is the namespace minted for extracted shape names.
const ShapeNS = "http://s3pg.io/shapes/auto#"

// Options tune the extraction.
type Options struct {
	// MinSupport prunes a type alternative when it covers less than this
	// fraction of a property's values (QSE-style confidence pruning).
	// Zero keeps everything.
	MinSupport float64
}

// Extract derives a shape schema from the graph.
func Extract(g *rdf.Graph, opts Options) *shacl.Schema {
	classes := g.Classes()
	sg := shacl.NewSchema()
	names := make(map[string]bool)

	for _, class := range classes {
		instances := g.InstancesOf(class)
		if len(instances) == 0 {
			continue
		}
		ns := &shacl.NodeShape{
			Name:        shapeName(class.Value, names),
			TargetClass: class.Value,
		}
		for _, ps := range extractProperties(g, instances) {
			ns.Properties = append(ns.Properties, pruneAlternatives(ps, opts))
		}
		sg.Add(ns)
	}
	return sg
}

// propStats accumulates per-property observations across a class's instances.
type propStats struct {
	pred       string
	totalVals  int
	byDatatype map[string]int
	byClass    map[string]int
	resources  int // IRI/blank objects with no type (sh:IRI kind, classless)
	minCount   int
	maxCount   int
	subjects   int
}

func extractProperties(g *rdf.Graph, instances []rdf.Term) []*propStats {
	stats := make(map[string]*propStats)
	var order []string
	for _, inst := range instances {
		counts := make(map[string]int)
		g.Match(&inst, nil, nil, func(t rdf.Triple) bool {
			if t.P == rdf.A {
				return true
			}
			st := stats[t.P.Value]
			if st == nil {
				st = &propStats{
					pred:       t.P.Value,
					byDatatype: make(map[string]int),
					byClass:    make(map[string]int),
					minCount:   -1,
				}
				stats[t.P.Value] = st
				order = append(order, t.P.Value)
			}
			counts[t.P.Value]++
			st.totalVals++
			if t.O.IsLiteral() {
				st.byDatatype[t.O.DatatypeIRI()]++
			} else {
				types := g.TypesOf(t.O)
				if len(types) == 0 {
					st.resources++
				}
				for _, ty := range types {
					if ty.IsIRI() {
						st.byClass[ty.Value]++
					}
				}
			}
			return true
		})
		for pred, n := range counts {
			st := stats[pred]
			st.subjects++
			if st.minCount == -1 || n < st.minCount {
				st.minCount = n
			}
			if n > st.maxCount {
				st.maxCount = n
			}
		}
	}
	// Instances lacking the property altogether have count 0.
	out := make([]*propStats, 0, len(order))
	for _, pred := range order {
		st := stats[pred]
		if st.subjects < len(instances) {
			st.minCount = 0
		}
		out = append(out, st)
	}
	return out
}

// pruneAlternatives converts accumulated stats into a property shape,
// keeping alternatives with sufficient support.
func pruneAlternatives(st *propStats, opts Options) *shacl.PropertyShape {
	threshold := int(opts.MinSupport * float64(st.totalVals))
	if threshold < 2 && opts.MinSupport > 0 {
		threshold = 2 // singletons are always dirt when pruning is on
	}

	type alt struct {
		ref   shacl.TypeRef
		count int
	}
	var alts []alt
	for dt, n := range st.byDatatype {
		alts = append(alts, alt{shacl.LiteralRef(dt), n})
	}
	for class, n := range st.byClass {
		alts = append(alts, alt{shacl.ClassRef(class), n})
	}
	sort.Slice(alts, func(i, j int) bool {
		if alts[i].count != alts[j].count {
			return alts[i].count > alts[j].count
		}
		return alts[i].ref.String() < alts[j].ref.String()
	})

	ps := &shacl.PropertyShape{Path: st.pred}
	for _, a := range alts {
		if opts.MinSupport > 0 && a.count < threshold {
			continue
		}
		ps.Types = append(ps.Types, a.ref)
	}
	// Everything pruned (or only untyped resources observed): keep the
	// dominant alternative so the shape stays well-formed.
	if len(ps.Types) == 0 {
		if len(alts) > 0 {
			ps.Types = append(ps.Types, alts[0].ref)
		} else {
			ps.Types = append(ps.Types, shacl.LiteralRef(rdf.XSDAnyURI))
		}
	}

	ps.MinCount = st.minCount
	if ps.MinCount > 1 {
		ps.MinCount = 1 // generalize: shapes rarely demand more than one
	}
	if st.maxCount <= 1 {
		ps.MaxCount = 1
	} else {
		ps.MaxCount = shacl.Unbounded
	}
	return ps
}

func shapeName(classIRI string, taken map[string]bool) string {
	base := ShapeNS + rdf.LocalName(classIRI)
	name := base
	for i := 2; taken[name]; i++ {
		name = fmt.Sprintf("%s_%d", base, i)
	}
	taken[name] = true
	return name
}
