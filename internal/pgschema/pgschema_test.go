package pgschema

import (
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/pg"
)

// buildUniversitySchema hand-builds the Figure 5 PG-Schema for tests.
func buildUniversitySchema() *Schema {
	s := NewSchema()
	s.AddNodeType(&NodeType{
		Name: "personType", Label: "Person",
		ClassIRI: "http://example.org/univ#Person", ShapeIRI: "http://example.org/shapes#Person",
		Properties: []*Property{
			{Key: "name", Type: "STRING", Min: 1, Max: 1, IRI: "http://example.org/univ#name"},
		},
	})
	s.AddNodeType(&NodeType{
		Name: "studentType", Label: "Student", Extends: []string{"personType"},
		ClassIRI: "http://example.org/univ#Student", ShapeIRI: "http://example.org/shapes#Student",
		Properties: []*Property{
			{Key: "regNo", Type: "STRING", Min: 1, Max: 1, IRI: "http://example.org/univ#regNo"},
		},
	})
	s.AddNodeType(&NodeType{
		Name: "departmentType", Label: "Department",
		ClassIRI: "http://example.org/univ#Department",
		Properties: []*Property{
			{Key: "name", Type: "STRING", Min: 1, Max: 1, IRI: "http://example.org/univ#name"},
		},
	})
	s.AddNodeType(&NodeType{
		Name: "professorType", Label: "Professor", Extends: []string{"personType"},
		ClassIRI: "http://example.org/univ#Professor",
	})
	s.AddNodeType(&NodeType{
		Name: "stringType", Label: "STRING", Value: true,
		Datatype: "http://www.w3.org/2001/XMLSchema#string",
	})
	s.AddEdgeType(&EdgeType{
		Name: "worksForType", Label: "worksFor", IRI: "http://example.org/univ#worksFor",
		Source: "professorType", Targets: []string{"departmentType"},
	})
	s.AddEdgeType(&EdgeType{
		Name: "advisedByType", Label: "advisedBy", IRI: "http://example.org/univ#advisedBy",
		Source: "studentType", Targets: []string{"personType", "professorType"},
	})
	s.Keys = append(s.Keys, &Key{
		SourceLabel: "Professor", EdgeLabel: "worksFor", Min: 1, Max: 1,
		TargetLabels: []string{"Department"},
	})
	s.Keys = append(s.Keys, &Key{
		SourceLabel: "Student", EdgeLabel: "advisedBy", Min: 1, Max: Unbounded,
		TargetLabels: []string{"Person", "Professor"},
	})
	return s
}

func TestDDLRoundTrip(t *testing.T) {
	s := buildUniversitySchema()
	ddl := WriteDDL(s)
	back, err := ParseDDL(ddl)
	if err != nil {
		t.Fatalf("parse error: %v\nDDL:\n%s", err, ddl)
	}
	if !s.Equal(back) {
		t.Fatalf("DDL round trip mismatch.\nDDL:\n%s\nre-serialized:\n%s", ddl, WriteDDL(back))
	}
}

func TestDDLRendersFigure5Constructs(t *testing.T) {
	s := buildUniversitySchema()
	ddl := WriteDDL(s)
	for _, want := range []string{
		"CREATE NODE TYPE (personType: Person {name STRING IRI",
		"EXTENDS personType",
		"CREATE VALUE NODE TYPE (stringType: STRING) DATATYPE",
		"CREATE EDGE TYPE (:professorType)-[worksForType: worksFor IRI",
		"]->(:personType | :professorType);",
		"FOR (x: Professor) COUNT 1..1 OF T WITHIN (x)-[:worksFor]->(T: {Department});",
		"FOR (x: Student) COUNT 1.. OF T WITHIN (x)-[:advisedBy]->(T: {Person | Professor});",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
}

func TestDDLPropertyCardinalities(t *testing.T) {
	// Table 1: all six cardinality encodings round trip.
	s := NewSchema()
	s.AddNodeType(&NodeType{
		Name: "t", Label: "T",
		Properties: []*Property{
			{Key: "a", Type: "STRING", Optional: true, Array: true, Min: 0, Max: Unbounded}, // [0..*]
			{Key: "b", Type: "STRING", Optional: true, Min: 0, Max: 1},                      // [0..1]
			{Key: "c", Type: "STRING", Optional: true, Array: true, Min: 0, Max: 4},         // [0..N]
			{Key: "d", Type: "STRING", Min: 1, Max: 1},                                      // [1..1]
			{Key: "e", Type: "STRING", Array: true, Min: 1, Max: 5},                         // [1..N]
			{Key: "f", Type: "STRING", Array: true, Min: 2, Max: 7},                         // [M..N]
		},
	})
	ddl := WriteDDL(s)
	for _, want := range []string{
		"OPTIONAL a STRING ARRAY {}",
		"OPTIONAL b STRING",
		"OPTIONAL c STRING ARRAY {0,4}",
		"d STRING",
		"e STRING ARRAY {1,5}",
		"f STRING ARRAY {2,7}",
	} {
		if !strings.Contains(ddl, want) {
			t.Errorf("DDL missing %q:\n%s", want, ddl)
		}
	}
	back, err := ParseDDL(ddl)
	if err != nil {
		t.Fatalf("%v\n%s", err, ddl)
	}
	if !s.Equal(back) {
		t.Fatalf("cardinality round trip mismatch:\n%s\nvs\n%s", ddl, WriteDDL(back))
	}
}

func TestParseDDLErrors(t *testing.T) {
	bad := []string{
		"CREATE NODE TYPE personType: Person;",                 // missing paren
		"CREATE NODE TYPE (p: P {x STRING});; FOR",             // dangling FOR
		`CREATE NODE TYPE (p: P {x STRING}) EXTENDS ;`,         // empty extends
		`FOR (x: P) COUNT ..1 OF T WITHIN (x)-[:l]->(T: {A});`, // missing min
	}
	for _, src := range bad {
		if _, err := ParseDDL(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestParseDDLEmptyTargets: a fallback edge type whose targets the data has
// not revealed yet serializes with an empty alternative list; it must parse
// back so extended schemas round-trip.
func TestParseDDLEmptyTargets(t *testing.T) {
	const src = "CREATE EDGE TYPE (:a)-[e: l]->();"
	s, err := ParseDDL(src)
	if err != nil {
		t.Fatalf("ParseDDL: %v", err)
	}
	out := WriteDDL(s)
	if _, err := ParseDDL(out); err != nil {
		t.Fatalf("round trip of %q failed: %v (serialized as %q)", src, err, out)
	}
}

func TestEffectiveLabelsAndProperties(t *testing.T) {
	s := buildUniversitySchema()
	labels := s.EffectiveLabels("studentType")
	if len(labels) != 2 || labels[0] != "Person" || labels[1] != "Student" {
		t.Fatalf("EffectiveLabels = %v", labels)
	}
	props := s.EffectiveProperties("studentType")
	if len(props) != 2 || props[0].Key != "name" || props[1].Key != "regNo" {
		t.Fatalf("EffectiveProperties = %v", props)
	}
}

// buildConformingStore creates a PG instance conforming to the test schema.
func buildConformingStore() *pg.Store {
	st := pg.NewStore()
	alice := st.AddNode([]string{"Person", "Professor"}, map[string]pg.Value{
		"iri": "http://x/alice", "name": "Alice",
	})
	bob := st.AddNode([]string{"Person", "Student"}, map[string]pg.Value{
		"iri": "http://x/bob", "name": "Bob", "regNo": "Bs12",
	})
	cs := st.AddNode([]string{"Department"}, map[string]pg.Value{
		"iri": "http://x/cs", "name": "CS",
	})
	st.AddEdge(alice.ID, cs.ID, "worksFor", nil)
	st.AddEdge(bob.ID, alice.ID, "advisedBy", nil)
	return st
}

func TestConformsPositive(t *testing.T) {
	s := buildUniversitySchema()
	st := buildConformingStore()
	if vs := Check(st, s); len(vs) != 0 {
		for _, v := range vs {
			t.Errorf("unexpected violation: %s", v)
		}
	}
}

func TestConformsMissingRequiredProperty(t *testing.T) {
	s := buildUniversitySchema()
	st := buildConformingStore()
	// A Student without regNo conforms to personType (labels ⊇ {Person}) but
	// the paper's strict reading requires a type for the full label set; our
	// open-typing accepts it as long as one type matches. Remove name too so
	// no type matches.
	n := st.AddNode([]string{"Person", "Student"}, map[string]pg.Value{"iri": "http://x/carol"})
	vs := Check(st, s)
	found := false
	for _, v := range vs {
		if v.Kind == "node" && v.ID == uint32(n.ID) {
			found = true
		}
	}
	if !found {
		t.Fatalf("node without any required properties should violate; got %v", vs)
	}
}

func TestConformsEdgeViolations(t *testing.T) {
	s := buildUniversitySchema()
	st := buildConformingStore()
	// worksFor from a Student to a Department matches no edge type (source
	// must be Professor).
	bob, _ := st.NodeByIRI("http://x/bob")
	cs, _ := st.NodeByIRI("http://x/cs")
	st.AddEdge(bob.ID, cs.ID, "worksFor", nil)
	vs := Check(st, s)
	found := false
	for _, v := range vs {
		if v.Kind == "edge" {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected edge violation, got %v", vs)
	}
}

func TestConformsKeyViolations(t *testing.T) {
	s := buildUniversitySchema()
	st := buildConformingStore()
	// A second worksFor edge breaks COUNT 1..1.
	alice, _ := st.NodeByIRI("http://x/alice")
	cs, _ := st.NodeByIRI("http://x/cs")
	st.AddEdge(alice.ID, cs.ID, "worksFor", nil)
	vs := Check(st, s)
	found := false
	for _, v := range vs {
		if v.Kind == "key" && strings.Contains(v.Message, "found 2") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected key violation, got %v", vs)
	}

	// A Student with no advisedBy breaks COUNT 1.. .
	st2 := buildConformingStore()
	st2.AddNode([]string{"Person", "Student"}, map[string]pg.Value{
		"iri": "http://x/dave", "name": "Dave", "regNo": "Ds1",
	})
	vs2 := Check(st2, s)
	found2 := false
	for _, v := range vs2 {
		if v.Kind == "key" && strings.Contains(v.Message, "advisedBy") {
			found2 = true
		}
	}
	if !found2 {
		t.Fatalf("expected advisedBy key violation, got %v", vs2)
	}
}

func TestValueNodeConformance(t *testing.T) {
	s := buildUniversitySchema()
	st := buildConformingStore()
	// A STRING value node with a value property conforms to stringType.
	st.AddNode([]string{"STRING"}, map[string]pg.Value{"value": "Intro to Logic"})
	if vs := Check(st, s); len(vs) != 0 {
		t.Fatalf("value node should conform: %v", vs)
	}
	// Without the value property it does not.
	st.AddNode([]string{"STRING"}, nil)
	if vs := Check(st, s); len(vs) == 0 {
		t.Fatal("value node without value should violate")
	}
}

func TestValueConformsArrayBounds(t *testing.T) {
	p := &Property{Key: "k", Type: "STRING", Array: true, Min: 2, Max: 3}
	if valueConforms([]pg.Value{"a"}, p) {
		t.Error("array below min accepted")
	}
	if !valueConforms([]pg.Value{"a", "b"}, p) {
		t.Error("array within bounds rejected")
	}
	if valueConforms([]pg.Value{"a", "b", "c", "d"}, p) {
		t.Error("array above max accepted")
	}
	if valueConforms([]pg.Value{"a", int64(2)}, p) {
		t.Error("mixed-type array accepted for STRING")
	}
	scalar := &Property{Key: "k", Type: "INTEGER", Min: 1, Max: 1}
	if !valueConforms(int64(5), scalar) {
		t.Error("scalar int rejected")
	}
	if valueConforms("x", scalar) {
		t.Error("string accepted for INTEGER")
	}
}

func TestSchemaEqualDetectsDifferences(t *testing.T) {
	a := buildUniversitySchema()
	b := buildUniversitySchema()
	if !a.Equal(b) {
		t.Fatal("identical schemas differ")
	}
	b.NodeType("personType").Properties[0].Type = "INTEGER"
	if a.Equal(b) {
		t.Fatal("property type change undetected")
	}
	c := buildUniversitySchema()
	c.Keys[0].Max = 5
	if a.Equal(c) {
		t.Fatal("key change undetected")
	}
	d := buildUniversitySchema()
	d.EdgeType("advisedByType").Targets = []string{"personType"}
	if a.Equal(d) {
		t.Fatal("edge target change undetected")
	}
}

func TestEdgeTypePropertiesDDLRoundTrip(t *testing.T) {
	// RDF-star annotation declarations: edge record types survive the DDL.
	s := buildUniversitySchema()
	s.EdgeType("advisedByType").Properties = []*Property{
		{Key: "since", Type: "INTEGER", Optional: true, Array: true, Min: 0, Max: Unbounded,
			IRI: "http://example.org/univ#since"},
		{Key: "grade", Type: "STRING", Optional: true, Array: true, Min: 0, Max: Unbounded,
			IRI: "http://example.org/univ#grade"},
	}
	ddl := WriteDDL(s)
	if !strings.Contains(ddl, "{OPTIONAL since INTEGER ARRAY {} IRI") {
		t.Fatalf("DDL missing edge properties:\n%s", ddl)
	}
	back, err := ParseDDL(ddl)
	if err != nil {
		t.Fatalf("%v\n%s", err, ddl)
	}
	if !s.Equal(back) {
		t.Fatalf("edge-property DDL round trip mismatch:\n%s\nvs\n%s", ddl, WriteDDL(back))
	}
	// And a difference in edge properties is detected.
	back.EdgeType("advisedByType").Properties[0].Type = "STRING"
	if s.Equal(back) {
		t.Fatal("edge property change undetected")
	}
}

func TestRemoveEdgeTypeAndKeys(t *testing.T) {
	s := buildUniversitySchema()
	before := len(s.EdgeTypes())
	s.RemoveEdgeType("worksForType")
	if len(s.EdgeTypes()) != before-1 || s.EdgeType("worksForType") != nil {
		t.Fatal("edge type not removed")
	}
	s.RemoveEdgeType("worksForType") // idempotent
	s.RemoveKeys(func(k *Key) bool { return k.EdgeLabel == "worksFor" })
	for _, k := range s.Keys {
		if k.EdgeLabel == "worksFor" {
			t.Fatal("key not removed")
		}
	}
}

// EdgeType returns the edge type by name, or nil.
func (s *Schema) EdgeType(name string) *EdgeType { return s.edgeTypes[name] }
