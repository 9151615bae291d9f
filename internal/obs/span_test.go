package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestSpanNestingAndJSONRoundTrip(t *testing.T) {
	root := NewSpan("transform")
	fst := root.StartSpan("F_st")
	fst.Count("node_types", 5)
	fst.End()
	fdt := root.StartSpan("F_dt")
	p1 := fdt.StartSpan("phase1.types")
	p1.Count("type_triples", 100)
	p1.End()
	p2 := fdt.StartSpan("phase2.properties")
	p2.Count("edges", 80)
	p2.Count("edges", 20) // counters accumulate
	p2.End()
	fdt.End()
	root.End()

	if root.Child("F_dt").Child("phase2.properties").counters["edges"] != 100 {
		t.Fatal("span counters did not accumulate")
	}
	if root.Wall() <= 0 {
		t.Fatal("root wall time not recorded")
	}

	rec := root.Record()
	if len(rec.Children) != 2 || rec.Children[1].Name != "F_dt" {
		t.Fatalf("unexpected tree: %+v", rec)
	}

	var buf bytes.Buffer
	if err := root.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := spanFromJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rec, back) {
		t.Fatalf("JSON round trip mismatch:\n got %+v\nwant %+v", back, rec)
	}

	var tree bytes.Buffer
	if err := rec.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	out := tree.String()
	for _, want := range []string{"transform", "  F_dt", "    phase2.properties", "edges=100"} {
		if !strings.Contains(out, want) {
			t.Errorf("tree rendering missing %q:\n%s", want, out)
		}
	}
}

func TestNilSpanNoOp(t *testing.T) {
	var s *Span
	child := s.StartSpan("child")
	if child != nil {
		t.Fatal("nil span must start nil children")
	}
	// None of these may panic.
	child.Count("k", 1)
	child.End()
	grand := child.StartSpan("grand")
	grand.End()
	if s.Wall() != 0 || s.HeapGrowth() != 0 {
		t.Fatal("nil span must read zero")
	}
	if s.Child("x") != nil {
		t.Fatal("nil span must have empty identity")
	}
	if rec := s.Record(); rec.Name != "" || len(rec.Children) != 0 {
		t.Fatalf("nil span record not zero: %+v", rec)
	}
	var buf bytes.Buffer
	if err := s.WriteTree(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil span must render nothing")
	}
}

func TestSpanEndIdempotentAndAllocs(t *testing.T) {
	s := NewSpan("alloc")
	sink := make([]byte, 1<<20)
	_ = sink
	s.End()
	first := s.Wall()
	s.End() // second End must not overwrite
	if s.Wall() != first {
		t.Fatal("End is not idempotent")
	}
	if s.allocBytes < 1<<20 {
		t.Fatalf("allocation delta %d did not capture the 1MiB allocation", s.allocBytes)
	}
}

// spanFromJSON parses a span tree written with WriteJSON.
func spanFromJSON(r io.Reader) (SpanRecord, error) {
	var rec SpanRecord
	err := json.NewDecoder(r).Decode(&rec)
	return rec, err
}

// Child returns the first child span with the given name, or nil.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range s.children {
		if c.name == name {
			return c
		}
	}
	return nil
}

// WriteJSON writes the span tree as indented JSON.
func (s *Span) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Record())
}
