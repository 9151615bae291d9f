package shacl

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/rdf"
)

func reportFixture() []Violation {
	e := rdf.NewIRI("http://e.org/x")
	return []Violation{
		{e, "shape:B", "p", ViolationCardinality, "too few"},
		{e, "shape:A", "p", ViolationCardinality, "too few"},
		{e, "shape:A", "p", ViolationCardinality, "too many"},
		{e, "shape:A", "q", ViolationDatatype, "wrong datatype"},
		{e, "shape:A", "r", ViolationNodeKind, "literal where resource required"},
		{e, "shape:B", "s", ViolationClass, "not an instance"},
	}
}

// Count returns the number of violations of a kind for a shape.
func (r *ViolationReport) Count(shape string, kind ViolationKind) int {
	return r.ByShape[shape][kind]
}

func TestViolationReportCounts(t *testing.T) {
	r := NewViolationReport(reportFixture())
	if r.Total != 6 {
		t.Fatalf("Total = %d, want 6", r.Total)
	}
	cases := []struct {
		shape string
		kind  ViolationKind
		want  int
	}{
		{"shape:A", ViolationCardinality, 2},
		{"shape:A", ViolationDatatype, 1},
		{"shape:A", ViolationNodeKind, 1},
		{"shape:A", ViolationClass, 0},
		{"shape:B", ViolationCardinality, 1},
		{"shape:B", ViolationClass, 1},
		{"shape:missing", ViolationDatatype, 0},
	}
	for _, tc := range cases {
		if got := r.Count(tc.shape, tc.kind); got != tc.want {
			t.Errorf("Count(%s, %s) = %d, want %d", tc.shape, tc.kind, got, tc.want)
		}
	}
	if got := r.KindTotal(ViolationCardinality); got != 3 {
		t.Errorf("KindTotal(cardinality) = %d, want 3", got)
	}
}

func TestViolationReportString(t *testing.T) {
	var nilReport *ViolationReport
	if got := nilReport.String(); got != "no violations" {
		t.Errorf("nil report String = %q", got)
	}
	if got := NewViolationReport(nil).String(); got != "no violations" {
		t.Errorf("empty report String = %q", got)
	}
	s := NewViolationReport(reportFixture()).String()
	if !strings.HasPrefix(s, "6 violation(s)") {
		t.Errorf("String lacks the total: %q", s)
	}
	// Shapes sorted by name, kinds in constraint-family order.
	if !strings.Contains(s, "shape:A: 2 cardinality, 1 datatype, 1 nodeKind") {
		t.Errorf("String lacks the shape:A line: %q", s)
	}
	if !strings.Contains(s, "shape:B: 1 cardinality, 1 class") {
		t.Errorf("String lacks the shape:B line: %q", s)
	}
	if strings.Index(s, "shape:A") > strings.Index(s, "shape:B") {
		t.Errorf("shapes not sorted: %q", s)
	}
}

func TestViolationKindString(t *testing.T) {
	want := map[ViolationKind]string{
		ViolationCardinality: "cardinality",
		ViolationDatatype:    "datatype",
		ViolationClass:       "class",
		ViolationNodeKind:    "nodeKind",
		ViolationKind(99):    "ViolationKind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
}

// TestValidateViolationKinds checks the classifier end to end: a graph
// engineered to break each constraint family yields violations of the
// matching kinds.
func TestValidateViolationKinds(t *testing.T) {
	sg := NewSchema()
	ns := &NodeShape{Name: "shape:T", TargetClass: "http://e.org/T"}
	ns.Properties = []*PropertyShape{
		{Path: "http://e.org/name", Types: []TypeRef{LiteralRef("http://www.w3.org/2001/XMLSchema#string")}, MinCount: 1, MaxCount: 1},
		{Path: "http://e.org/ref", Types: []TypeRef{ClassRef("http://e.org/U")}, MaxCount: Unbounded},
	}
	sg.Add(ns)

	g := rdf.NewGraph()
	x := rdf.NewIRI("http://e.org/x")
	g.Add(rdf.NewTriple(x, rdf.A, rdf.NewIRI("http://e.org/T")))
	// Cardinality: two names where [1..1] is required; datatype: one is an int.
	g.Add(rdf.NewTriple(x, rdf.NewIRI("http://e.org/name"), rdf.NewLiteral("ok")))
	g.Add(rdf.NewTriple(x, rdf.NewIRI("http://e.org/name"), rdf.NewTypedLiteral("7", "http://www.w3.org/2001/XMLSchema#integer")))
	// Class: object typed U is required but y is untyped.
	g.Add(rdf.NewTriple(x, rdf.NewIRI("http://e.org/ref"), rdf.NewIRI("http://e.org/y")))
	// NodeKind: a literal where only resources are admitted.
	g.Add(rdf.NewTriple(x, rdf.NewIRI("http://e.org/ref"), rdf.NewLiteral("not a resource")))

	r := NewViolationReport(Validate(g, sg))
	if r.Count("shape:T", ViolationCardinality) != 1 {
		t.Errorf("cardinality count = %d, want 1\n%s", r.Count("shape:T", ViolationCardinality), r)
	}
	if r.Count("shape:T", ViolationDatatype) != 1 {
		t.Errorf("datatype count = %d, want 1\n%s", r.Count("shape:T", ViolationDatatype), r)
	}
	if r.Count("shape:T", ViolationClass) != 1 {
		t.Errorf("class count = %d, want 1\n%s", r.Count("shape:T", ViolationClass), r)
	}
	if r.Count("shape:T", ViolationNodeKind) != 1 {
		t.Errorf("nodeKind count = %d, want 1\n%s", r.Count("shape:T", ViolationNodeKind), r)
	}
}

func TestValidateContextCancel(t *testing.T) {
	sg := NewSchema()
	sg.Add(&NodeShape{Name: "shape:T", TargetClass: "http://e.org/T"})
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://e.org/x"), rdf.A, rdf.NewIRI("http://e.org/T")))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ValidateContext(ctx, g, sg); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// KindTotal returns the number of violations of a kind across all shapes.
func (r *ViolationReport) KindTotal(kind ViolationKind) int {
	n := 0
	for _, m := range r.ByShape {
		n += m[kind]
	}
	return n
}
