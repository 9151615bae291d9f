package shacl

import (
	"context"
	"fmt"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
)

// cViolations counts every violation found across validation runs
// (obs.Default registry), so metrics snapshots expose how dirty the
// processed data was.
var cViolations = obs.Default.Counter("shacl.violations")

// ViolationKind classifies a conformance failure by the constraint it
// breaks; ViolationReport aggregates per-shape counts along these kinds.
type ViolationKind uint8

// The violation kinds, mirroring the constraint components of Definition
// 2.2: cardinality bounds, literal datatype membership, class membership,
// and node-kind mismatches (a literal where a resource is required or vice
// versa).
const (
	ViolationCardinality ViolationKind = iota + 1
	ViolationDatatype
	ViolationClass
	ViolationNodeKind
)

// String returns the constraint family name.
func (k ViolationKind) String() string {
	switch k {
	case ViolationCardinality:
		return "cardinality"
	case ViolationDatatype:
		return "datatype"
	case ViolationClass:
		return "class"
	case ViolationNodeKind:
		return "nodeKind"
	default:
		return fmt.Sprintf("ViolationKind(%d)", uint8(k))
	}
}

// Violation describes one conformance failure found by Validate.
type Violation struct {
	Entity  rdf.Term
	Shape   string
	Path    string
	Kind    ViolationKind
	Message string
}

// String renders the violation for diagnostics.
func (v Violation) String() string {
	return fmt.Sprintf("%v ⊭ %s (path %s): %s: %s", v.Entity, v.Shape, v.Path, v.Kind, v.Message)
}

// Validator checks graph conformance against a shape schema, implementing
// the shape semantics of Definition 2.3.
type Validator struct {
	g *rdf.Graph
	s *Schema
	// conformMemo caches recursive conformance checks; entries that are in
	// progress are optimistically true, which yields the standard greatest-
	// fixpoint reading for cyclic shape references.
	conformMemo map[conformKey]bool
}

type conformKey struct {
	entity rdf.Term
	shape  string
}

// NewValidator returns a validator for the graph/schema pair.
func NewValidator(g *rdf.Graph, s *Schema) *Validator {
	return &Validator{g: g, s: s, conformMemo: make(map[conformKey]bool)}
}

// Validate checks every target entity against its node shapes and returns
// all violations (empty means G ⊨ S_G).
func Validate(g *rdf.Graph, s *Schema) []Violation {
	out, _ := ValidateContext(context.Background(), g, s)
	return out
}

// ValidateContext is Validate with cancellation, checked between entities:
// it returns the violations found so far together with ctx.Err() when the
// context ends mid-pass.
func ValidateContext(ctx context.Context, g *rdf.Graph, s *Schema) ([]Violation, error) {
	v := NewValidator(g, s)
	var out []Violation
	checked := 0
	defer func() { cViolations.Add(int64(len(out))) }()
	for _, ns := range s.Shapes() {
		if ns.TargetClass == "" {
			continue
		}
		for _, e := range g.InstancesOf(rdf.NewIRI(ns.TargetClass)) {
			if checked%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return out, err
				}
			}
			checked++
			out = append(out, v.ValidateEntity(e, ns.Name)...)
		}
	}
	return out, nil
}

// ValidateEntity checks a single entity against a node shape (including
// inherited property shapes) and returns its violations.
func (v *Validator) ValidateEntity(e rdf.Term, shapeName string) []Violation {
	var out []Violation
	for _, ps := range v.s.EffectiveProperties(shapeName) {
		out = append(out, v.validateProperty(e, shapeName, ps)...)
	}
	return out
}

func (v *Validator) validateProperty(e rdf.Term, shapeName string, ps *PropertyShape) []Violation {
	var out []Violation
	pred := rdf.NewIRI(ps.Path)
	var objects []rdf.Term
	v.g.Match(&e, &pred, nil, func(t rdf.Triple) bool {
		objects = append(objects, t.O)
		return true
	})

	// Cardinality: n ≤ |{⟨e, τ_p, o⟩}| ≤ m.
	if len(objects) < ps.MinCount {
		out = append(out, Violation{e, shapeName, ps.Path, ViolationCardinality,
			fmt.Sprintf("cardinality %d below minCount %d", len(objects), ps.MinCount)})
	}
	if ps.MaxCount != Unbounded && len(objects) > ps.MaxCount {
		out = append(out, Violation{e, shapeName, ps.Path, ViolationCardinality,
			fmt.Sprintf("cardinality %d above maxCount %d", len(objects), ps.MaxCount)})
	}

	// Type constraints: every value must satisfy at least one alternative.
	for _, o := range objects {
		if !v.valueMatches(o, ps.Types) {
			out = append(out, Violation{e, shapeName, ps.Path, typeViolationKind(o, ps.Types),
				fmt.Sprintf("value %v matches none of %v", o, ps.Types)})
		}
	}
	return out
}

// typeViolationKind classifies a failed type constraint: a value of the
// right node kind but the wrong datatype/class is a datatype/class
// violation; a value of the wrong node kind entirely (literal where only
// resources are admitted, or vice versa) is a nodeKind violation.
func typeViolationKind(o rdf.Term, types []TypeRef) ViolationKind {
	if o.IsLiteral() {
		for _, ref := range types {
			if ref.IsLiteral() {
				return ViolationDatatype
			}
		}
		return ViolationNodeKind
	}
	for _, ref := range types {
		if !ref.IsLiteral() {
			return ViolationClass
		}
	}
	return ViolationNodeKind
}

// valueMatches reports whether the object satisfies at least one alternative.
func (v *Validator) valueMatches(o rdf.Term, types []TypeRef) bool {
	for _, ref := range types {
		if v.valueMatchesRef(o, ref) {
			return true
		}
	}
	return false
}

func (v *Validator) valueMatchesRef(o rdf.Term, ref TypeRef) bool {
	switch {
	case ref.Datatype != "":
		return o.IsLiteral() && o.DatatypeIRI() == ref.Datatype
	case ref.Class != "":
		if !o.IsResource() || !v.g.IsInstanceOf(o, rdf.NewIRI(ref.Class)) {
			return false
		}
		// "if ∃ S_t ∈ S_G, o ⊨_G S_t": when a shape targets the class, the
		// value must also conform to it.
		if ns := v.s.ShapeForClass(ref.Class); ns != nil {
			return v.entityConforms(o, ns.Name)
		}
		return true
	case ref.Shape != "":
		return o.IsResource() && v.entityConforms(o, ref.Shape)
	default:
		return true
	}
}

// entityConforms reports whether the entity satisfies every property shape
// of the named node shape, with memoization that treats in-progress checks
// as conforming (greatest fixpoint for cyclic shapes).
func (v *Validator) entityConforms(e rdf.Term, shapeName string) bool {
	key := conformKey{e, shapeName}
	if got, ok := v.conformMemo[key]; ok {
		return got
	}
	v.conformMemo[key] = true // optimistic, handles cycles
	ok := len(v.ValidateEntity(e, shapeName)) == 0
	v.conformMemo[key] = ok
	return ok
}
