package cypher

import (
	"fmt"
	"testing"

	"github.com/s3pg/s3pg/internal/pg"
)

// The allocation benchmarks pin the query hot path: the serving tier runs
// thousands of evaluations per second over a shared immutable store, so
// per-match allocations multiply directly into GC pressure. Run with
// -benchmem; DESIGN.md §9 records the before/after of the allocation diet.

const benchQuery = `MATCH (p:Person)-[:worksFor]->(d:Dept) WHERE p.age >= 30 RETURN d.iri AS dept, count(*) AS n`

// benchStore builds a small two-label graph: 200 people spread over 10
// departments, enough rows that per-row costs dominate fixed costs.
func benchStore() *pg.Store {
	s := pg.NewStore()
	var depts []pg.NodeID
	for i := 0; i < 10; i++ {
		d := s.AddNode([]string{"Dept"}, map[string]pg.Value{"iri": fmt.Sprintf("http://x/dept/%d", i)})
		depts = append(depts, d.ID)
	}
	for i := 0; i < 200; i++ {
		p := s.AddNode([]string{"Person"}, map[string]pg.Value{
			"iri": fmt.Sprintf("http://x/person/%d", i),
			"age": int64(i % 60),
		})
		s.AddEdge(p.ID, depts[i%len(depts)], "worksFor", nil)
	}
	return s
}

func BenchmarkLexer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := newLexer(benchQuery)
		for l.next().kind != tEOF {
		}
	}
}

func BenchmarkParse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(benchQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvalHop exercises the match pipeline: label-indexed head binding,
// a relationship hop, a WHERE filter, and grouped COUNT aggregation.
func BenchmarkEvalHop(b *testing.B) {
	store := benchStore()
	q := MustParse(benchQuery)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := EvalWith(store, q, EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 10 {
			b.Fatalf("got %d rows, want 10", len(res.Rows))
		}
	}
}

// BenchmarkEvalCross exercises the multi-clause path where every input
// binding re-enters bindNode: the candidate set must not be rebuilt per row.
func BenchmarkEvalCross(b *testing.B) {
	store := benchStore()
	q := MustParse(`MATCH (p:Person) MATCH (d:Dept) RETURN count(*) AS n`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := EvalWith(store, q, EvalOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatal("want one row")
		}
	}
}

// MustParse parses or panics; for the tests' statically known queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}
