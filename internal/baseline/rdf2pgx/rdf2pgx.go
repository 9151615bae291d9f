// Package rdf2pgx reimplements the rdf2pg schema-dependent direct database
// mapping that the paper compares against (§5.1). rdf2pg fixes a single
// declared range per property from an RDFS-style schema — here derived as
// the majority kind (object vs datatype property) and majority datatype
// observed in the data, which is what the schema-dependent variant does when
// ranges are materialized from instance data.
//
// Loss behaviour: values disagreeing with a property's declared range are
// dropped — literals under an object property, IRIs under a datatype
// property, and literals whose datatype cannot be coerced to the declared
// one. Multi-type heterogeneous properties therefore lose their entire
// minority side, reproducing the paper's 30–99% accuracy band (Q29: 30.22%).
package rdf2pgx

import (
	"bufio"
	"fmt"
	"io"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// Stats reports what the transformation dropped and produced.
type Stats struct {
	// DroppedLiterals counts literal values lost (object-property literals
	// and datatype coercion failures).
	DroppedLiterals int
	// DroppedResources counts IRI/blank objects lost under datatype
	// properties.
	DroppedResources int
	// YARSPGBytes is the size of the serialized YARS-PG output the tool
	// emits as its transformation result (rdf2pg writes this file before
	// anything can be loaded; the cost is part of its T column in Table 4).
	YARSPGBytes int64
}

// propertyRange is the declared range derived for one predicate.
type propertyRange struct {
	object   bool   // true: object property (IRI range)
	datatype string // declared datatype for datatype properties
}

// Transform converts an RDF graph with the schema-dependent direct mapping.
// It runs three passes: range derivation, node creation, and property/edge
// creation (one more pass than S3PG, which is part of why rdf2pg's
// transformation times in Table 4 are higher).
func Transform(g *rdf.Graph) (*pg.Store, *Stats) {
	ranges := deriveRanges(g)
	st := pg.NewStore()
	stats := &Stats{}
	nodeOf := make(map[rdf.Term]pg.NodeID)

	ensure := func(t rdf.Term) pg.NodeID {
		if id, ok := nodeOf[t]; ok {
			return id
		}
		uri := t.Value
		if t.IsBlank() {
			uri = "_:" + t.Value
		}
		n := st.AddNode(nil, map[string]pg.Value{"iri": uri})
		nodeOf[t] = n.ID
		return n.ID
	}

	// Pass 2: nodes and labels.
	typePred := rdf.A
	g.Match(nil, &typePred, nil, func(tr rdf.Triple) bool {
		sid := ensure(tr.S)
		if tr.O.IsIRI() {
			st.AddLabel(sid, rdf.LocalName(tr.O.Value))
		}
		return true
	})
	// Object-property targets must exist before edges are created.
	g.ForEach(func(tr rdf.Triple) bool {
		if tr.P == rdf.A {
			return true
		}
		if r := ranges[tr.P.Value]; r.object && tr.O.IsResource() {
			ensure(tr.O)
		}
		return true
	})

	// Pass 3: properties and edges under the declared ranges.
	g.ForEach(func(tr rdf.Triple) bool {
		if tr.P == rdf.A {
			return true
		}
		sid := ensure(tr.S)
		r := ranges[tr.P.Value]
		key := rdf.LocalName(tr.P.Value)
		if r.object {
			if !tr.O.IsResource() {
				stats.DroppedLiterals++ // literal under an object property
				return true
			}
			st.AddEdge(sid, nodeOf[tr.O], key, nil)
			return true
		}
		if tr.O.IsResource() {
			stats.DroppedResources++ // IRI under a datatype property
			return true
		}
		lex, ok := xsd.Coerce(tr.O.Value, tr.O.DatatypeIRI(), r.datatype)
		if !ok {
			stats.DroppedLiterals++
			return true
		}
		st.AppendProp(sid, key, nativeValue(lex, r.datatype))
		return true
	})

	// rdf2pg's output IS a YARS-PG serialization — the in-memory graph only
	// exists to produce it. Emit it (to a counting sink) as the tool does.
	var count countingWriter
	if err := WriteYARSPG(&count, st); err != nil {
		// Serialization of an in-memory store cannot fail short of a bug.
		panic(fmt.Sprintf("rdf2pgx: yars-pg serialization: %v", err))
	}
	stats.YARSPGBytes = count.n
	return st, stats
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// WriteYARSPG serializes the property graph in YARS-PG 3.0-style syntax:
//
//	# node
//	("n123"{"Person"}["name": "Alice", "age": 48])
//	# edge
//	("n1")-["worksFor"]->("n2")
func WriteYARSPG(w io.Writer, st *pg.Store) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for ni := 0; ni < st.NumNodes(); ni++ {
		n := st.Node(pg.NodeID(ni))
		fmt.Fprintf(bw, "(\"n%d\"{", n.ID)
		for i, l := range n.Labels() {
			if i > 0 {
				bw.WriteString(", ")
			}
			fmt.Fprintf(bw, "%q", l)
		}
		bw.WriteString("}[")
		for i := 0; i < n.NumProps(); i++ {
			if i > 0 {
				bw.WriteString(", ")
			}
			k, v := n.PropAt(i)
			fmt.Fprintf(bw, "%q: %q", k, pg.FormatValue(v))
		}
		bw.WriteString("])\n")
	}
	for ei := 0; ei < st.NumEdges(); ei++ {
		e := st.Edge(pg.EdgeID(ei))
		fmt.Fprintf(bw, "(\"n%d\")-[%q]->(\"n%d\")\n", e.From, e.Label(), e.To)
	}
	return bw.Flush()
}

// deriveRanges fixes each predicate's declared range by majority vote over
// kinds, and by majority datatype among literal values.
func deriveRanges(g *rdf.Graph) map[string]propertyRange {
	type tally struct {
		objects  int
		literals int
		byDT     map[string]int
	}
	tallies := make(map[string]*tally)
	g.ForEach(func(tr rdf.Triple) bool {
		if tr.P == rdf.A {
			return true
		}
		t := tallies[tr.P.Value]
		if t == nil {
			t = &tally{byDT: make(map[string]int)}
			tallies[tr.P.Value] = t
		}
		if tr.O.IsResource() {
			t.objects++
		} else {
			t.literals++
			t.byDT[tr.O.DatatypeIRI()]++
		}
		return true
	})
	out := make(map[string]propertyRange, len(tallies))
	for pred, t := range tallies {
		if t.objects >= t.literals && t.objects > 0 {
			out[pred] = propertyRange{object: true}
			continue
		}
		bestDT, bestN := rdf.XSDString, -1
		for dt, n := range t.byDT {
			if n > bestN || n == bestN && dt < bestDT {
				bestDT, bestN = dt, n
			}
		}
		out[pred] = propertyRange{datatype: bestDT}
	}
	return out
}

func nativeValue(lex, dt string) pg.Value {
	v, err := xsd.Parse(lex, dt)
	if err != nil {
		return lex
	}
	switch v.Kind {
	case xsd.KindInt:
		return v.I
	case xsd.KindFloat:
		return v.F
	case xsd.KindBool:
		return v.B
	default:
		return lex
	}
}
