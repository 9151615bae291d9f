// Package pgschema implements the PG-Schema standard of Definition 2.5/2.6:
// node types with content types and inheritance, edge types with alternative
// endpoint types, and PG-Keys cardinality constraints. It provides the typed
// model, a DDL-style serializer and parser (Figure 5 syntax, extended with
// IRI metadata so the schema transformation is invertible), and a
// conformance checker PG ⊨ S_PG.
package pgschema

import (
	"fmt"
	"sort"
	"strings"
)

// Unbounded encodes an unlimited upper cardinality bound.
const Unbounded = -1

// Property is one key in a node type's content type, with the Table 1
// cardinality encoding: a plain property ({name: STRING}), an optional
// property, or an array with min/max occurrence bounds.
type Property struct {
	// Key is the property key in node records.
	Key string
	// Type is the content type name (STRING, INTEGER, DATE, …).
	Type string
	// Optional marks {OPTIONAL key: T} (minCount 0 in the source shape).
	Optional bool
	// Array marks {key: T ARRAY {Min, Max}} (maxCount > 1 in the source).
	Array bool
	// Min and Max bound array occurrences; Max == Unbounded means no bound.
	// They are meaningful only when Array is set.
	Min, Max int
	// IRI is the source predicate IRI, carried for invertibility.
	IRI string
}

// NodeType is one element of N_S with its formal base type.
type NodeType struct {
	// Name is the type name, e.g. "personType".
	Name string
	// Label is the node label instances carry, e.g. "Person".
	Label string
	// Extends lists parent node type names (γ_S, rendered with '&').
	Extends []string
	// Properties is the content type.
	Properties []*Property
	// ClassIRI is the source RDF class, for invertibility (empty for value types).
	ClassIRI string
	// ShapeIRI is the source SHACL node shape name, for invertibility.
	ShapeIRI string
	// Value marks a literal value-node type (e.g. stringType); Datatype then
	// holds the XSD datatype IRI the type encodes.
	Value    bool
	Datatype string
}

// Prop returns the declared property with the key, or nil.
func (n *NodeType) Prop(key string) *Property {
	for _, p := range n.Properties {
		if p.Key == key {
			return p
		}
	}
	return nil
}

// EdgeType is one element of E_S: a labelled edge from a source node type to
// one of several alternative target node types.
type EdgeType struct {
	// Name is the type name, e.g. "worksForType".
	Name string
	// Label is the edge label, e.g. "worksFor".
	Label string
	// IRI is the source predicate IRI, for invertibility.
	IRI string
	// Source is the source node type name.
	Source string
	// Targets are alternative target node type names.
	Targets []string
	// ShapeRefs marks, per target, whether the source SHACL constraint was a
	// node-shape reference (sh:node) rather than a class constraint
	// (sh:class); nil means all-false. Carried for invertibility.
	ShapeRefs []bool
	// Properties declares edge record keys — used for RDF-star statement
	// annotations, which S3PG maps onto edge properties.
	Properties []*Property
}

// Prop returns the declared edge property with the key, or nil.
func (e *EdgeType) Prop(key string) *Property {
	for _, p := range e.Properties {
		if p.Key == key {
			return p
		}
	}
	return nil
}

// ShapeRef reports whether the i-th target stems from a sh:node reference.
func (e *EdgeType) ShapeRef(i int) bool {
	return i < len(e.ShapeRefs) && e.ShapeRefs[i]
}

// Key is a PG-Keys cardinality constraint:
//
//	FOR (x: SourceLabel) COUNT Min..Max OF T WITHIN (x)-[:EdgeLabel]->(T: {L1 | L2})
type Key struct {
	SourceLabel  string
	EdgeLabel    string
	Min, Max     int // Max == Unbounded means no upper bound
	TargetLabels []string
}

// Schema is S_PG = (N_S, E_S, ν_S, η_S, γ_S, K_S).
type Schema struct {
	nodeTypes map[string]*NodeType
	nodeOrder []string
	edgeTypes map[string]*EdgeType
	edgeOrder []string
	Keys      []*Key
	// GraphType is STRICT or LOOSE (PG-Schema graph type options).
	GraphType string
}

// NewSchema returns an empty LOOSE schema.
func NewSchema() *Schema {
	return &Schema{
		nodeTypes: make(map[string]*NodeType),
		edgeTypes: make(map[string]*EdgeType),
		GraphType: "LOOSE",
	}
}

// AddNodeType inserts or replaces a node type.
func (s *Schema) AddNodeType(nt *NodeType) {
	if _, ok := s.nodeTypes[nt.Name]; !ok {
		s.nodeOrder = append(s.nodeOrder, nt.Name)
	}
	s.nodeTypes[nt.Name] = nt
}

// AddEdgeType inserts or replaces an edge type.
func (s *Schema) AddEdgeType(et *EdgeType) {
	if _, ok := s.edgeTypes[et.Name]; !ok {
		s.edgeOrder = append(s.edgeOrder, et.Name)
	}
	s.edgeTypes[et.Name] = et
}

// NodeType returns the node type by name, or nil.
func (s *Schema) NodeType(name string) *NodeType { return s.nodeTypes[name] }

// NodeTypes returns node types in insertion order.
func (s *Schema) NodeTypes() []*NodeType {
	out := make([]*NodeType, 0, len(s.nodeOrder))
	for _, n := range s.nodeOrder {
		out = append(out, s.nodeTypes[n])
	}
	return out
}

// EdgeTypes returns edge types in insertion order.
func (s *Schema) EdgeTypes() []*EdgeType {
	out := make([]*EdgeType, 0, len(s.edgeOrder))
	for _, n := range s.edgeOrder {
		out = append(out, s.edgeTypes[n])
	}
	return out
}

// RemoveEdgeType deletes an edge type by name (no-op when absent).
func (s *Schema) RemoveEdgeType(name string) {
	if _, ok := s.edgeTypes[name]; !ok {
		return
	}
	delete(s.edgeTypes, name)
	for i, n := range s.edgeOrder {
		if n == name {
			s.edgeOrder = append(s.edgeOrder[:i], s.edgeOrder[i+1:]...)
			break
		}
	}
}

// RemoveKeys deletes every PG-Key matching the predicate.
func (s *Schema) RemoveKeys(match func(*Key) bool) {
	kept := s.Keys[:0]
	for _, k := range s.Keys {
		if !match(k) {
			kept = append(kept, k)
		}
	}
	s.Keys = kept
}

// NodeTypeByLabel returns the first node type with the label, or nil.
func (s *Schema) NodeTypeByLabel(label string) *NodeType {
	for _, n := range s.nodeOrder {
		if s.nodeTypes[n].Label == label {
			return s.nodeTypes[n]
		}
	}
	return nil
}

// EdgeTypesByLabel returns all edge types carrying the label.
func (s *Schema) EdgeTypesByLabel(label string) []*EdgeType {
	var out []*EdgeType
	for _, n := range s.edgeOrder {
		if s.edgeTypes[n].Label == label {
			out = append(out, s.edgeTypes[n])
		}
	}
	return out
}

// EffectiveProperties returns a node type's properties including inherited
// ones (parents first); inheritance cycles are tolerated.
func (s *Schema) EffectiveProperties(name string) []*Property {
	var out []*Property
	seen := make(map[string]bool)
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		nt := s.nodeTypes[n]
		if nt == nil {
			return
		}
		for _, p := range nt.Extends {
			walk(p)
		}
		out = append(out, nt.Properties...)
	}
	walk(name)
	return out
}

// EffectiveLabels returns the label set implied by a node type: its own
// label plus the labels of all ancestors.
func (s *Schema) EffectiveLabels(name string) []string {
	var out []string
	seen := make(map[string]bool)
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		nt := s.nodeTypes[n]
		if nt == nil {
			return
		}
		for _, p := range nt.Extends {
			walk(p)
		}
		if nt.Label != "" {
			out = append(out, nt.Label)
		}
	}
	walk(name)
	return out
}

// Equal reports whether two schemas define the same types and keys
// (order-insensitive).
func (s *Schema) Equal(o *Schema) bool {
	if len(s.nodeTypes) != len(o.nodeTypes) || len(s.edgeTypes) != len(o.edgeTypes) || len(s.Keys) != len(o.Keys) {
		return false
	}
	for name, a := range s.nodeTypes {
		b := o.nodeTypes[name]
		if b == nil || !nodeTypeEqual(a, b) {
			return false
		}
	}
	for name, a := range s.edgeTypes {
		b := o.edgeTypes[name]
		if b == nil || !edgeTypeEqual(a, b) {
			return false
		}
	}
	ks := keyStrings(s.Keys)
	ko := keyStrings(o.Keys)
	for i := range ks {
		if ks[i] != ko[i] {
			return false
		}
	}
	return true
}

func keyStrings(keys []*Key) []string {
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = k.String()
	}
	sort.Strings(out)
	return out
}

func nodeTypeEqual(a, b *NodeType) bool {
	if a.Name != b.Name || a.Label != b.Label || a.ClassIRI != b.ClassIRI ||
		a.ShapeIRI != b.ShapeIRI || a.Value != b.Value || a.Datatype != b.Datatype {
		return false
	}
	if !stringSetEqual(a.Extends, b.Extends) || len(a.Properties) != len(b.Properties) {
		return false
	}
	byKey := make(map[string]*Property, len(b.Properties))
	for _, p := range b.Properties {
		byKey[p.Key] = p
	}
	for _, p := range a.Properties {
		q := byKey[p.Key]
		if q == nil || *p != *q {
			return false
		}
	}
	return true
}

func edgeTypeEqual(a, b *EdgeType) bool {
	if a.Name != b.Name || a.Label != b.Label || a.IRI != b.IRI ||
		a.Source != b.Source || len(a.Targets) != len(b.Targets) {
		return false
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.ShapeRef(i) != b.ShapeRef(i) {
			return false
		}
	}
	if len(a.Properties) != len(b.Properties) {
		return false
	}
	byKey := make(map[string]*Property, len(b.Properties))
	for _, p := range b.Properties {
		byKey[p.Key] = p
	}
	for _, p := range a.Properties {
		q := byKey[p.Key]
		if q == nil || *p != *q {
			return false
		}
	}
	return true
}

func stringSetEqual(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

// String renders the key in PG-Keys syntax.
func (k *Key) String() string {
	max := ""
	if k.Max != Unbounded {
		max = fmt.Sprint(k.Max)
	}
	targets := strings.Join(k.TargetLabels, " | ")
	return fmt.Sprintf("FOR (x: %s) COUNT %d..%s OF T WITHIN (x)-[:%s]->(T: {%s})",
		k.SourceLabel, k.Min, max, k.EdgeLabel, targets)
}
