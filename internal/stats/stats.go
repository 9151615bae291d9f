// Package stats computes the dataset, shape, and transformed-graph
// statistics the paper reports in Tables 2, 3, and 5.
package stats

import (
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
)

// Dataset mirrors one column of Table 2.
type Dataset struct {
	Triples    int
	Objects    int // distinct object terms
	Subjects   int // distinct subject terms
	Literals   int // distinct literal objects
	Instances  int // distinct subjects of rdf:type
	Classes    int
	Properties int
	SizeBytes  int64 // N-Triples serialization size
}

// ComputeDataset derives Table 2 statistics for a graph.
func ComputeDataset(g *rdf.Graph) Dataset {
	var d Dataset
	d.Triples = g.Len()
	subjects := make(map[rdf.Term]struct{})
	objects := make(map[rdf.Term]struct{})
	literals := make(map[rdf.Term]struct{})
	instances := make(map[rdf.Term]struct{})
	preds := make(map[rdf.Term]struct{})
	g.ForEach(func(t rdf.Triple) bool {
		subjects[t.S] = struct{}{}
		objects[t.O] = struct{}{}
		preds[t.P] = struct{}{}
		if t.O.IsLiteral() {
			literals[t.O] = struct{}{}
		}
		if t.P == rdf.A {
			instances[t.S] = struct{}{}
		}
		// N-Triples line estimate: three terms, separators, dot, newline.
		d.SizeBytes += int64(len(t.S.Value) + len(t.P.Value) + len(t.O.Value) + len(t.O.Datatype) + 12)
		return true
	})
	d.Subjects = len(subjects)
	d.Objects = len(objects)
	d.Literals = len(literals)
	d.Instances = len(instances)
	d.Classes = len(g.Classes())
	d.Properties = len(preds)
	return d
}

// Shapes mirrors one row of Table 3.
type Shapes struct {
	NodeShapes     int
	PropertyShapes int
	SingleType     int
	MultiType      int
	// The five Figure 3 leaf categories.
	SingleTypeLiteral    int
	SingleTypeNonLiteral int
	MultiTypeHomoLit     int
	MultiTypeHomoNonLit  int
	MultiTypeHetero      int
}

// ComputeShapes derives Table 3 statistics for a shape schema.
func ComputeShapes(sg *shacl.Schema) Shapes {
	var s Shapes
	s.NodeShapes = sg.Len()
	for _, ns := range sg.Shapes() {
		for _, ps := range ns.Properties {
			s.PropertyShapes++
			switch ps.Category() {
			case shacl.SingleTypeLiteral:
				s.SingleType++
				s.SingleTypeLiteral++
			case shacl.SingleTypeNonLiteral:
				s.SingleType++
				s.SingleTypeNonLiteral++
			case shacl.MultiTypeHomoLiteral:
				s.MultiType++
				s.MultiTypeHomoLit++
			case shacl.MultiTypeHomoNonLiteral:
				s.MultiType++
				s.MultiTypeHomoNonLit++
			case shacl.MultiTypeHetero:
				s.MultiType++
				s.MultiTypeHetero++
			}
		}
	}
	return s
}

// PG mirrors one row of Table 5.
type PG struct {
	Nodes    int
	Edges    int
	RelTypes int
}

// ComputePG derives Table 5 statistics for a property graph.
func ComputePG(store *pg.Store) PG {
	return PG{
		Nodes:    store.NumNodes(),
		Edges:    store.NumEdges(),
		RelTypes: store.RelTypes(),
	}
}
