package pgschema

import (
	"fmt"

	"github.com/s3pg/s3pg/internal/pg"
)

// Violation is one conformance failure found by Check.
type Violation struct {
	Kind    string // "node", "edge", or "key"
	ID      uint32 // node or edge id (0 for key violations)
	Message string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return fmt.Sprintf("%s %d: %s", v.Kind, v.ID, v.Message)
}

// Check validates the property graph against the schema: every node must
// conform to at least one node type, every edge to at least one edge type,
// and every PG-Key cardinality constraint must hold.
func Check(store *pg.Store, s *Schema) []Violation {
	var out []Violation

	// Typing of nodes: T(v) = {τ | v ⊨ τ} must be non-empty.
	for ni := 0; ni < store.NumNodes(); ni++ {
		n := store.Node(pg.NodeID(ni))
		if !nodeTyped(n, s) {
			out = append(out, Violation{"node", uint32(n.ID),
				fmt.Sprintf("labels %v conform to no node type", n.Labels())})
		}
	}

	// Strict typing (the STRICT graph-type reading that semantics
	// preservation relies on): a node carrying a type's label must satisfy
	// that type's content type, inherited properties included.
	for ni := 0; ni < store.NumNodes(); ni++ {
		n := store.Node(pg.NodeID(ni))
		for _, l := range n.Labels() {
			nt := s.NodeTypeByLabel(l)
			if nt == nil || nt.Value {
				continue
			}
			for _, p := range s.EffectiveProperties(nt.Name) {
				v := n.Prop(p.Key)
				if v == nil {
					if p.Optional || p.Min == 0 {
						continue
					}
					out = append(out, Violation{"node", uint32(n.ID),
						fmt.Sprintf("label %s requires property %q", l, p.Key)})
					continue
				}
				if !valueConforms(v, p) {
					out = append(out, Violation{"node", uint32(n.ID),
						fmt.Sprintf("property %q value %v does not conform to %s", p.Key, v, p.Type)})
				}
			}
		}
	}

	// Typing of edges.
	for ei := 0; ei < store.NumEdges(); ei++ {
		e := store.Edge(pg.EdgeID(ei))
		if !edgeTyped(store, e, s) {
			out = append(out, Violation{"edge", uint32(e.ID),
				fmt.Sprintf("label %q between %v and %v conforms to no edge type",
					e.Label(), store.Node(e.From).Labels(), store.Node(e.To).Labels())})
		}
	}

	// PG-Keys cardinality constraints.
	for _, k := range s.Keys {
		out = append(out, checkKey(store, k)...)
	}
	return out
}

// nodeTyped reports whether the node conforms to at least one node type.
func nodeTyped(n pg.Node, s *Schema) bool {
	for _, nt := range s.NodeTypes() {
		if nodeConforms(n, nt, s) {
			return true
		}
	}
	return false
}

// nodeConforms implements v ⊨ τ: the node carries the type's effective label
// set and its record satisfies the effective content type. Types are open:
// undeclared keys are permitted (the transformation adds bookkeeping keys
// such as "iri", "value", "dt", and "lang").
func nodeConforms(n pg.Node, nt *NodeType, s *Schema) bool {
	for _, l := range s.EffectiveLabels(nt.Name) {
		if !n.HasLabel(l) {
			return false
		}
	}
	if nt.Value {
		// A value node must carry its encoded value.
		return n.Prop("value") != nil
	}
	for _, p := range s.EffectiveProperties(nt.Name) {
		v := n.Prop(p.Key)
		if v == nil {
			if p.Optional || p.Min == 0 {
				continue
			}
			return false
		}
		if !valueConforms(v, p) {
			return false
		}
	}
	return true
}

// valueConforms checks a record value against a property content type.
func valueConforms(v pg.Value, p *Property) bool {
	if arr, ok := v.([]pg.Value); ok {
		if !p.Array {
			return false
		}
		if len(arr) < p.Min {
			return false
		}
		if p.Max != Unbounded && len(arr) > p.Max {
			return false
		}
		for _, e := range arr {
			if !scalarConforms(e, p.Type) {
				return false
			}
		}
		return true
	}
	// Scalar value: acceptable for both scalar properties and arrays (an
	// array with a single element may be stored unwrapped).
	if p.Array && p.Min > 1 {
		return false
	}
	return scalarConforms(v, p.Type)
}

func scalarConforms(v pg.Value, contentType string) bool {
	switch contentType {
	case "STRING", "LANGSTRING", "DATE", "DATETIME", "YEAR", "URI":
		_, ok := v.(string)
		return ok
	case "INTEGER", "INT", "LONG":
		_, ok := v.(int64)
		return ok
	case "DOUBLE", "DECIMAL", "FLOAT":
		switch v.(type) {
		case float64, int64: // integers are acceptable in a float slot
			return true
		}
		return false
	case "BOOLEAN":
		_, ok := v.(bool)
		return ok
	default:
		// Unknown content types admit any scalar (open-world datatypes).
		return true
	}
}

// edgeTyped reports whether the edge conforms to at least one edge type:
// matching label, source endpoint carrying the source type's label, and
// target endpoint carrying one of the target types' labels.
func edgeTyped(store *pg.Store, e pg.Edge, s *Schema) bool {
	from, to := store.Node(e.From), store.Node(e.To)
	for _, et := range s.EdgeTypesByLabel(e.Label()) {
		srcType := s.NodeType(et.Source)
		if srcType == nil || !from.HasLabel(srcType.Label) {
			continue
		}
		for _, tName := range et.Targets {
			tType := s.NodeType(tName)
			if tType != nil && to.HasLabel(tType.Label) {
				return true
			}
		}
	}
	return false
}

// checkKey validates one PG-Keys cardinality constraint: for every node
// carrying the source label, the number of outgoing edges with the edge
// label whose targets carry one of the target labels must lie within bounds.
func checkKey(store *pg.Store, k *Key) []Violation {
	var out []Violation
	targetOK := func(n pg.Node) bool {
		for _, l := range k.TargetLabels {
			if n.HasLabel(l) {
				return true
			}
		}
		return false
	}
	for _, id := range store.NodesByLabel(k.SourceLabel) {
		count := 0
		for _, eid := range store.Out(id) {
			e := store.Edge(eid)
			if e.Label() != k.EdgeLabel {
				continue
			}
			if targetOK(store.Node(e.To)) {
				count++
			}
		}
		if count < k.Min || (k.Max != Unbounded && count > k.Max) {
			out = append(out, Violation{"key", uint32(id),
				fmt.Sprintf("%s: found %d", k, count)})
		}
	}
	return out
}
