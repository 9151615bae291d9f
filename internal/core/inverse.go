package core

import (
	"context"
	"fmt"
	"strings"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/xsd"
)

// InverseData is the computable mapping M : PG → G of Proposition 4.1: it
// reconstructs the original RDF graph from the transformed property graph
// and the PG-Schema the transformation produced (the schema carries all the
// label/key/edge ↔ IRI correspondences).
func InverseData(store *pg.Store, spg *pgschema.Schema) (*rdf.Graph, error) {
	return InverseDataContext(context.Background(), store, spg, nil)
}

// InverseDataContext is InverseData with cancellation and tracing: the node
// and edge reconstruction passes are recorded under span (nil disables
// tracing), check ctx periodically, and abort with ctx.Err() when it ends.
func InverseDataContext(ctx context.Context, store *pg.Store, spg *pgschema.Schema, span *obs.Span) (*rdf.Graph, error) {
	m, err := BuildMapping(spg)
	if err != nil {
		return nil, err
	}
	return inverseDataWithMapping(ctx, store, m, span)
}

func inverseDataWithMapping(ctx context.Context, store *pg.Store, m *Mapping, span *obs.Span) (*rdf.Graph, error) {
	g := rdf.NewGraph()

	np := span.StartSpan("nodes")
	for i := 0; i < store.NumNodes(); i++ {
		n := store.Node(pg.NodeID(i))
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if m.isValueNode(n) {
			continue
		}
		subj, err := termFromIRIProp(n)
		if err != nil {
			return nil, err
		}
		// Labels → rdf:type triples.
		for _, l := range n.Labels() {
			class := m.ClassOfLabel(l)
			if class == "" {
				return nil, fmt.Errorf("core: node %d label %q maps to no class", n.ID, l)
			}
			g.Add(rdf.NewTriple(subj, rdf.A, rdf.NewIRI(class)))
		}
		// Key/value properties → literal triples.
		for pi := 0; pi < n.NumProps(); pi++ {
			key, val := n.PropAt(pi)
			if key == "iri" {
				continue
			}
			route := m.KVRoute(n.Labels(), key)
			if route == nil {
				return nil, fmt.Errorf("core: node %d property %q has no KV route for labels %v", n.ID, key, n.Labels())
			}
			values, ok := val.([]pg.Value)
			if !ok {
				values = []pg.Value{val}
			}
			for _, v := range values {
				lit := literalFromNative(v, route.Datatype)
				g.Add(rdf.NewTriple(subj, rdf.NewIRI(route.PredIRI), lit))
			}
		}
	}
	np.Count("triples", int64(g.Len()))
	np.End()

	ep := span.StartSpan("edges")
	edgeStart := g.Len()
	for i := 0; i < store.NumEdges(); i++ {
		e := store.Edge(pg.EdgeID(i))
		if i%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		base, err := edgeStatement(store, m, e)
		if err != nil {
			return nil, err
		}
		g.Add(base)

		// Edge record keys are RDF-star annotations on the statement.
		for pi := 0; pi < e.NumProps(); pi++ {
			key, val := e.PropAt(pi)
			annotPred, dt, ok := m.Annotation(key)
			if !ok {
				return nil, fmt.Errorf("core: edge %d property %q maps to no annotation predicate", e.ID, key)
			}
			quoted, err := rdf.NewTripleTerm(base)
			if err != nil {
				return nil, fmt.Errorf("core: edge %d: %v", e.ID, err)
			}
			values, isArr := val.([]pg.Value)
			if !isArr {
				values = []pg.Value{val}
			}
			for _, v := range values {
				g.Add(rdf.NewTriple(quoted, rdf.NewIRI(annotPred), literalFromNative(v, dt)))
			}
		}
	}
	ep.Count("triples", int64(g.Len()-edgeStart))
	ep.End()
	span.Count("triples", int64(g.Len()))
	return g, nil
}

// isValueNode classifies a node as a value node (reconstructed through the
// edges that point at it) rather than an entity.
func (m *Mapping) isValueNode(n pg.Node) bool {
	if n.Prop("value") == nil {
		return false
	}
	for _, l := range n.Labels() {
		if _, ok := m.DatatypeOfValueLabel(l); ok {
			return true
		}
	}
	return false
}

// edgeStatement is M on one edge: the statement (s, p, o) the edge realizes.
func edgeStatement(store *pg.Store, m *Mapping, e pg.Edge) (rdf.Triple, error) {
	pred, ok := m.PredOfEdgeLabel(e.Label())
	if !ok {
		return rdf.Triple{}, fmt.Errorf("core: edge label %q maps to no predicate", e.Label())
	}
	subj, err := termFromIRIProp(store.Node(e.From))
	if err != nil {
		return rdf.Triple{}, err
	}
	to := store.Node(e.To)
	var obj rdf.Term
	if m.isValueNode(to) {
		obj, err = termFromValueNode(to)
	} else {
		obj, err = termFromIRIProp(to)
	}
	if err != nil {
		return rdf.Triple{}, err
	}
	return rdf.NewTriple(subj, rdf.NewIRI(pred), obj), nil
}

// termFromIRIProp rebuilds an entity term from a node's iri key.
func termFromIRIProp(n pg.Node) (rdf.Term, error) {
	iri, ok := n.Prop("iri").(string)
	if !ok {
		return rdf.Term{}, fmt.Errorf("core: node %d (labels %v) has no iri key", n.ID, n.Labels())
	}
	return termFromIRIString(iri), nil
}

func termFromIRIString(iri string) rdf.Term {
	if strings.HasPrefix(iri, "_:") {
		return rdf.NewBlank(iri[2:])
	}
	return rdf.NewIRI(iri)
}

// termFromValueNode rebuilds the literal (or untyped resource) a value node
// encodes.
func termFromValueNode(n pg.Node) (rdf.Term, error) {
	if res, _ := n.Prop("res").(bool); res {
		s, ok := n.Prop("value").(string)
		if !ok {
			return rdf.Term{}, fmt.Errorf("core: resource value node %d has non-string value", n.ID)
		}
		return termFromIRIString(s), nil
	}
	dt, _ := n.Prop("dt").(string)
	if lang, ok := n.Prop("lang").(string); ok && lang != "" {
		lex := lexicalOf(n)
		return rdf.NewLangLiteral(lex, lang), nil
	}
	return rdf.NewTypedLiteral(lexicalOf(n), dt), nil
}

// lexicalOf recovers the exact lexical form of a value node: the preserved
// lex key when formatting was lossy, else the formatted value.
func lexicalOf(n pg.Node) string {
	if lex, ok := n.Prop("lex").(string); ok {
		return lex
	}
	return pg.FormatValue(n.Prop("value"))
}

// literalFromNative rebuilds a literal from a KV value and its datatype.
// KV routing only admits canonical values, so formatting is exact.
func literalFromNative(v pg.Value, dt string) rdf.Term {
	return rdf.NewTypedLiteral(pg.FormatValue(v), dt)
}

// InverseSchema is the computable mapping N : S_PG → S_G of Proposition 4.1:
// it reconstructs the SHACL shape schema from a PG-Schema produced by F_st.
// Node types created only as bare edge targets (no source shape) and
// fallback types added for uncovered instance data are not shapes and are
// skipped.
func InverseSchema(spg *pgschema.Schema) (*shacl.Schema, error) {
	sg := shacl.NewSchema()
	typeToShape := make(map[string]string) // node type name → shape IRI
	for _, nt := range spg.NodeTypes() {
		if !nt.Value && nt.ShapeIRI != "" {
			typeToShape[nt.Name] = nt.ShapeIRI
		}
	}

	for _, nt := range spg.NodeTypes() {
		if nt.Value || nt.ShapeIRI == "" {
			continue
		}
		ns := &shacl.NodeShape{Name: nt.ShapeIRI, TargetClass: nt.ClassIRI}
		for _, parent := range nt.Extends {
			pShape, ok := typeToShape[parent]
			if !ok {
				return nil, fmt.Errorf("core: node type %s extends %s which is not a shape", nt.Name, parent)
			}
			ns.Extends = append(ns.Extends, pShape)
		}
		// Key/value properties → single-type literal property shapes.
		for _, p := range nt.Properties {
			ps := &shacl.PropertyShape{
				Path:  p.IRI,
				Types: []shacl.TypeRef{shacl.LiteralRef(xsd.FromShortName(p.Type))},
			}
			if p.Array {
				ps.MinCount = p.Min
				ps.MaxCount = p.Max
				if p.Max == pgschema.Unbounded {
					ps.MaxCount = shacl.Unbounded
				}
			} else {
				ps.MinCount = boolInt(!p.Optional)
				ps.MaxCount = 1
			}
			ns.Properties = append(ns.Properties, ps)
		}
		sg.Add(ns)
	}

	// Edge types + PG-Keys → property shapes on the source shape.
	keyFor := func(sourceLabel, edgeLabel string) *pgschema.Key {
		for _, k := range spg.Keys {
			if k.SourceLabel == sourceLabel && k.EdgeLabel == edgeLabel {
				return k
			}
		}
		return nil
	}
	for _, et := range spg.EdgeTypes() {
		src := spg.NodeType(et.Source)
		if src == nil || src.ShapeIRI == "" {
			continue // fallback edge type, not part of the shape schema
		}
		ns := sg.Get(src.ShapeIRI)
		ps := &shacl.PropertyShape{Path: et.IRI, MinCount: 0, MaxCount: shacl.Unbounded}
		for i, tName := range et.Targets {
			target := spg.NodeType(tName)
			if target == nil {
				return nil, fmt.Errorf("core: edge type %s targets undeclared type %s", et.Name, tName)
			}
			switch {
			case target.Value:
				ps.Types = append(ps.Types, shacl.LiteralRef(target.Datatype))
			case et.ShapeRef(i):
				if target.ShapeIRI == "" {
					return nil, fmt.Errorf("core: edge type %s shape-ref target %s has no shape IRI", et.Name, tName)
				}
				ps.Types = append(ps.Types, shacl.ShapeRef(target.ShapeIRI))
			default:
				if target.ClassIRI == "" {
					return nil, fmt.Errorf("core: edge type %s class target %s has no class IRI", et.Name, tName)
				}
				ps.Types = append(ps.Types, shacl.ClassRef(target.ClassIRI))
			}
		}
		if k := keyFor(src.Label, et.Label); k != nil {
			ps.MinCount = k.Min
			ps.MaxCount = k.Max
			if k.Max == pgschema.Unbounded {
				ps.MaxCount = shacl.Unbounded
			}
		}
		ns.Properties = append(ns.Properties, ps)
	}
	return sg, nil
}
