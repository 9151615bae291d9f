package stats_test

import (
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/stats"
)

func TestComputeDataset(t *testing.T) {
	g := fixtures.UniversityGraph()
	d := stats.ComputeDataset(g)
	if d.Triples != g.Len() {
		t.Fatalf("triples = %d, want %d", d.Triples, g.Len())
	}
	if d.Instances != 5 { // bob, alice, DB, CS, AAU
		t.Fatalf("instances = %d", d.Instances)
	}
	if d.Classes != 9 {
		t.Fatalf("classes = %d", d.Classes)
	}
	if d.Subjects != 5 || d.Objects == 0 || d.Literals == 0 {
		t.Fatalf("stats = %+v", d)
	}
	if d.SizeBytes <= 0 {
		t.Fatalf("size = %d", d.SizeBytes)
	}
}

func TestComputeShapes(t *testing.T) {
	s := stats.ComputeShapes(fixtures.UniversityShapes())
	if s.NodeShapes != 9 {
		t.Fatalf("node shapes = %d", s.NodeShapes)
	}
	// name×4 (Person, Course, Department, University), regNo, worksFor,
	// partOf, dob, advisedBy, takesCourse = 10 property shapes.
	if s.PropertyShapes != 10 {
		t.Fatalf("property shapes = %d", s.PropertyShapes)
	}
	// Single-type literals: name×4 + regNo; non-literals: worksFor + partOf.
	if s.SingleTypeLiteral != 5 || s.SingleTypeNonLiteral != 2 {
		t.Fatalf("single-type stats = %+v", s)
	}
	// dob is homo-literal, advisedBy homo-non-literal, takesCourse hetero.
	if s.MultiTypeHomoLit != 1 || s.MultiTypeHomoNonLit != 1 || s.MultiTypeHetero != 1 {
		t.Fatalf("multi-type stats = %+v", s)
	}
	if s.SingleType+s.MultiType != s.PropertyShapes {
		t.Fatalf("category sums inconsistent: %+v", s)
	}
}

func TestComputePG(t *testing.T) {
	g := fixtures.UniversityGraph()
	store, _, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	p := stats.ComputePG(store)
	if p.Nodes != store.NumNodes() || p.Edges != store.NumEdges() || p.RelTypes != store.RelTypes() {
		t.Fatalf("pg stats = %+v", p)
	}
	if p.Nodes == 0 || p.Edges == 0 || p.RelTypes == 0 {
		t.Fatalf("pg stats empty: %+v", p)
	}
}
