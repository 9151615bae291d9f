// Package shacl implements the SHACL core subset of the paper's
// Definition 2.2/2.3: node shapes with target classes, shape inheritance via
// sh:node, and property shapes carrying datatype/class/shape type constraints
// (optionally disjunctive via sh:or) and min/max cardinality constraints.
//
// The package provides the shape model, a loader from an RDF graph (shapes
// are authored in Turtle, cf. Figure 4 of the paper), a serializer back to
// RDF, and a validator implementing the conformance semantics G ⊨ S_G.
package shacl

import (
	"fmt"
	"sort"
	"strings"
)

// Unbounded is the MaxCount value representing ∞.
const Unbounded = -1

// TypeRef is one alternative in a property shape's type constraint T_p.
// Exactly one of Datatype, Class, or Shape is set:
//
//   - Datatype: a literal value type constraint (sh:datatype);
//   - Class: a class value type constraint (sh:class with sh:nodeKind sh:IRI);
//   - Shape: a node type value-based constraint (sh:node referencing a shape).
type TypeRef struct {
	Datatype string
	Class    string
	Shape    string
}

// LiteralRef builds a literal type alternative.
func LiteralRef(datatype string) TypeRef { return TypeRef{Datatype: datatype} }

// ClassRef builds a class type alternative.
func ClassRef(class string) TypeRef { return TypeRef{Class: class} }

// ShapeRef builds a node-shape type alternative.
func ShapeRef(shape string) TypeRef { return TypeRef{Shape: shape} }

// IsLiteral reports whether the alternative constrains to a literal datatype.
func (r TypeRef) IsLiteral() bool { return r.Datatype != "" }

// String renders the alternative for diagnostics.
func (r TypeRef) String() string {
	switch {
	case r.Datatype != "":
		return "literal:" + r.Datatype
	case r.Class != "":
		return "class:" + r.Class
	case r.Shape != "":
		return "shape:" + r.Shape
	default:
		return "any"
	}
}

// Category classifies a property shape according to the Figure 3 taxonomy.
// The category drives both the schema transformation rules (§4.1) and the
// Table 3 shape statistics.
type Category uint8

// The five leaf categories of the Figure 3 taxonomy.
const (
	SingleTypeLiteral Category = iota + 1
	SingleTypeNonLiteral
	MultiTypeHomoLiteral
	MultiTypeHomoNonLiteral
	MultiTypeHetero
)

// String returns the paper's name for the category.
func (c Category) String() string {
	switch c {
	case SingleTypeLiteral:
		return "single-type literal"
	case SingleTypeNonLiteral:
		return "single-type non-literal"
	case MultiTypeHomoLiteral:
		return "multi-type homogeneous literal"
	case MultiTypeHomoNonLiteral:
		return "multi-type homogeneous non-literal"
	case MultiTypeHetero:
		return "multi-type heterogeneous"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// PropertyShape is φ = ⟨τ_p, T_p, C_p⟩ of Definition 2.2.
type PropertyShape struct {
	// Path is the target property IRI τ_p.
	Path string
	// Types is the set of type alternatives T_p. A singleton slice encodes
	// a single-type constraint; multiple entries encode an sh:or.
	Types []TypeRef
	// MinCount and MaxCount are the cardinality pair C_p = (n, m);
	// MaxCount == Unbounded encodes m = ∞.
	MinCount int
	MaxCount int
}

// Category classifies the property shape in the Figure 3 taxonomy.
func (p *PropertyShape) Category() Category {
	lit, nonLit := 0, 0
	for _, t := range p.Types {
		if t.IsLiteral() {
			lit++
		} else {
			nonLit++
		}
	}
	switch {
	case lit > 0 && nonLit > 0:
		return MultiTypeHetero
	case lit == 1 && nonLit == 0:
		return SingleTypeLiteral
	case lit == 0 && nonLit == 1:
		return SingleTypeNonLiteral
	case lit > 1:
		return MultiTypeHomoLiteral
	default:
		return MultiTypeHomoNonLiteral
	}
}

// NodeShape is ⟨s, τ_s, Φ_s⟩ of Definition 2.2.
type NodeShape struct {
	// Name is the shape IRI s.
	Name string
	// TargetClass is τ_s when it refers to a class (sh:targetClass).
	TargetClass string
	// Extends lists node shapes this shape inherits from (sh:node).
	Extends []string
	// Properties is Φ_s, the owned (non-inherited) property shapes.
	Properties []*PropertyShape
}

// Schema is the shape schema S_G: an ordered collection of node shapes.
type Schema struct {
	shapes map[string]*NodeShape
	order  []string
}

// NewSchema returns an empty shape schema.
func NewSchema() *Schema {
	return &Schema{shapes: make(map[string]*NodeShape)}
}

// Add inserts or replaces a node shape.
func (s *Schema) Add(ns *NodeShape) {
	if _, ok := s.shapes[ns.Name]; !ok {
		s.order = append(s.order, ns.Name)
	}
	s.shapes[ns.Name] = ns
}

// Get returns the node shape with the given name, or nil.
func (s *Schema) Get(name string) *NodeShape { return s.shapes[name] }

// Len returns the number of node shapes.
func (s *Schema) Len() int { return len(s.order) }

// Shapes returns the node shapes in insertion order.
func (s *Schema) Shapes() []*NodeShape {
	out := make([]*NodeShape, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.shapes[n])
	}
	return out
}

// ShapeForClass returns the first node shape targeting the class, or nil.
func (s *Schema) ShapeForClass(class string) *NodeShape {
	for _, n := range s.order {
		if s.shapes[n].TargetClass == class {
			return s.shapes[n]
		}
	}
	return nil
}

// EffectiveProperties returns the shape's property shapes including those
// inherited transitively through Extends, parents first. Inheritance cycles
// are tolerated (each shape contributes once).
func (s *Schema) EffectiveProperties(name string) []*PropertyShape {
	var out []*PropertyShape
	seen := make(map[string]bool)
	var walk func(n string)
	walk = func(n string) {
		if seen[n] {
			return
		}
		seen[n] = true
		ns := s.shapes[n]
		if ns == nil {
			return
		}
		for _, parent := range ns.Extends {
			walk(parent)
		}
		out = append(out, ns.Properties...)
	}
	walk(name)
	return out
}

// Equal reports whether two schemas contain the same shapes with the same
// constraints (order-insensitive for shapes and type alternatives).
func (s *Schema) Equal(o *Schema) bool {
	if s.Len() != o.Len() {
		return false
	}
	for name, a := range s.shapes {
		b := o.shapes[name]
		if b == nil || !shapeEqual(a, b) {
			return false
		}
	}
	return true
}

func shapeEqual(a, b *NodeShape) bool {
	if a.Name != b.Name || a.TargetClass != b.TargetClass {
		return false
	}
	if !stringSetEqual(a.Extends, b.Extends) {
		return false
	}
	if len(a.Properties) != len(b.Properties) {
		return false
	}
	byPath := make(map[string]*PropertyShape, len(b.Properties))
	for _, p := range b.Properties {
		byPath[p.Path] = p
	}
	for _, p := range a.Properties {
		q := byPath[p.Path]
		if q == nil || !propEqual(p, q) {
			return false
		}
	}
	return true
}

func propEqual(a, b *PropertyShape) bool {
	if a.Path != b.Path || a.MinCount != b.MinCount || a.MaxCount != b.MaxCount {
		return false
	}
	if len(a.Types) != len(b.Types) {
		return false
	}
	set := make(map[TypeRef]bool, len(b.Types))
	for _, t := range b.Types {
		set[t] = true
	}
	for _, t := range a.Types {
		if !set[t] {
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

// String renders a compact description of the schema for diagnostics.
func (s *Schema) String() string {
	var b strings.Builder
	for _, ns := range s.Shapes() {
		fmt.Fprintf(&b, "%s targetClass=%s extends=%v\n", ns.Name, ns.TargetClass, ns.Extends)
		for _, p := range ns.Properties {
			max := "∞"
			if p.MaxCount != Unbounded {
				max = fmt.Sprint(p.MaxCount)
			}
			fmt.Fprintf(&b, "  %s %v [%d..%s] (%s)\n", p.Path, p.Types, p.MinCount, max, p.Category())
		}
	}
	return b.String()
}
