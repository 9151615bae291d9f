package cypher_test

import (
	"reflect"
	"testing"

	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pg"
)

// buildStore creates a small university-shaped property graph:
//
//	(bob:Person:Student {iri, name, regNo})-[:advisedBy]->(alice:Person:Professor)
//	(bob)-[:takesCourse]->(db:Course {name})
//	(bob)-[:takesCourse]->(sv:STRING {value})
//	(alice)-[:worksFor]->(cs:Department)
func buildStore() *pg.Store {
	st := pg.NewStore()
	bob := st.AddNode([]string{"Person", "Student"}, map[string]pg.Value{
		"iri": "http://x/bob", "name": "Bob", "regNo": "Bs12",
		"scores": []pg.Value{int64(7), int64(9)},
	})
	alice := st.AddNode([]string{"Person", "Professor"}, map[string]pg.Value{
		"iri": "http://x/alice", "name": "Alice", "age": int64(48),
	})
	db := st.AddNode([]string{"Course"}, map[string]pg.Value{
		"iri": "http://x/DB", "name": "Databases",
	})
	sv := st.AddNode([]string{"STRING"}, map[string]pg.Value{
		"value": "Intro to Logic", "dt": "http://www.w3.org/2001/XMLSchema#string",
	})
	cs := st.AddNode([]string{"Department"}, map[string]pg.Value{
		"iri": "http://x/CS", "name": "CS",
	})
	st.AddEdge(bob.ID, alice.ID, "advisedBy", nil)
	st.AddEdge(bob.ID, db.ID, "takesCourse", nil)
	st.AddEdge(bob.ID, sv.ID, "takesCourse", nil)
	st.AddEdge(alice.ID, cs.ID, "worksFor", map[string]pg.Value{"since": int64(2010)})
	return st
}

func run(t *testing.T, src string) *cypher.Results {
	t.Helper()
	q, err := cypher.Parse(src)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	res, err := cypher.EvalWith(buildStore(), q, cypher.EvalOptions{})
	if err != nil {
		t.Fatalf("eval %q: %v", src, err)
	}
	return res
}

func TestMatchByLabel(t *testing.T) {
	res := run(t, `MATCH (n:Person) RETURN n.name AS name`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchMultiLabel(t *testing.T) {
	res := run(t, `MATCH (n:Person:Professor) RETURN n.name AS name`)
	if res.Len() != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchPropertyMap(t *testing.T) {
	res := run(t, `MATCH (n:Person {name: 'Bob'}) RETURN n.regNo AS r`)
	if res.Len() != 1 || res.Rows[0][0] != "Bs12" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchRelationship(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:advisedBy]->(p) RETURN p.name AS advisor`)
	if res.Len() != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchRelationshipAlternation(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:advisedBy|takesCourse]->(x) RETURN x`)
	if res.Len() != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchReverseDirection(t *testing.T) {
	res := run(t, `MATCH (p:Professor)<-[:advisedBy]-(s) RETURN s.name AS student`)
	if res.Len() != 1 || res.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchUndirected(t *testing.T) {
	res := run(t, `MATCH (a {name: 'Alice'})-[:advisedBy]-(b) RETURN b.name AS n`)
	if res.Len() != 1 || res.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchChain(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:advisedBy]->(p)-[:worksFor]->(d:Department) RETURN d.name AS dept`)
	if res.Len() != 1 || res.Rows[0][0] != "CS" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestMatchCommaPatterns(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:takesCourse]->(c:Course), (s)-[:advisedBy]->(p) RETURN c.name AS c, p.name AS p`)
	if res.Len() != 1 || res.Rows[0][0] != "Databases" || res.Rows[0][1] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestWhereComparisons(t *testing.T) {
	res := run(t, `MATCH (n:Person) WHERE n.age > 40 RETURN n.name AS name`)
	if res.Len() != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, `MATCH (n:Person) WHERE n.name = 'Bob' OR n.age >= 48 RETURN n.name AS name`)
	if res2.Len() != 2 {
		t.Fatalf("rows = %v", res2.Rows)
	}
	res3 := run(t, `MATCH (n:Person) WHERE NOT n.name = 'Bob' RETURN n.name AS name`)
	if res3.Len() != 1 || res3.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res3.Rows)
	}
}

func TestWhereNullSemantics(t *testing.T) {
	// bob has no age; n.age > 40 must be null → filtered, not an error.
	res := run(t, `MATCH (n) WHERE n.age > 100 RETURN n`)
	if res.Len() != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, `MATCH (n:Person) WHERE n.age IS NULL RETURN n.name AS name`)
	if res2.Len() != 1 || res2.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res2.Rows)
	}
	res3 := run(t, `MATCH (n:Person) WHERE n.age IS NOT NULL RETURN n.name AS name`)
	if res3.Len() != 1 || res3.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res3.Rows)
	}
}

func TestCoalesce(t *testing.T) {
	// The paper's Q22 pattern: COALESCE(tn.value, tn.iri).
	res := run(t, `MATCH (s:Student)-[:takesCourse]->(tn) RETURN COALESCE(tn.value, tn.iri) AS course`)
	got := map[pg.Value]bool{}
	for _, r := range res.Rows {
		got[r[0]] = true
	}
	if !got["http://x/DB"] || !got["Intro to Logic"] || res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnwind(t *testing.T) {
	res := run(t, `MATCH (n:Student) UNWIND n.scores AS s RETURN s`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// UNWIND of a missing property produces no rows.
	res2 := run(t, `MATCH (n:Professor) UNWIND n.scores AS s RETURN s`)
	if res2.Len() != 0 {
		t.Fatalf("rows = %v", res2.Rows)
	}
	// UNWIND of a scalar produces one row.
	res3 := run(t, `MATCH (n:Student) UNWIND n.regNo AS s RETURN s`)
	if res3.Len() != 1 || res3.Rows[0][0] != "Bs12" {
		t.Fatalf("rows = %v", res3.Rows)
	}
}

func TestUnionAll(t *testing.T) {
	res := run(t, `
MATCH (s:Student)-[:takesCourse]->(c:Course) RETURN c.name AS v
UNION ALL
MATCH (s:Student)-[:takesCourse]->(c:STRING) RETURN c.value AS v`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionDistinct(t *testing.T) {
	res := run(t, `
MATCH (n:Person) RETURN n.name AS v
UNION
MATCH (n:Person) RETURN n.name AS v`)
	if res.Len() != 2 { // deduplicated
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountStar(t *testing.T) {
	res := run(t, `MATCH (n:Person) RETURN COUNT(*) AS c`)
	if res.Len() != 1 || res.Rows[0][0] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountGrouped(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:takesCourse]->(c) RETURN s.name AS n, COUNT(*) AS c`)
	if res.Len() != 1 || res.Rows[0][1] != int64(2) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCountDistinctAndNulls(t *testing.T) {
	res := run(t, `MATCH (n:Person) RETURN COUNT(n.age) AS c`)
	if res.Rows[0][0] != int64(1) { // bob's age is null
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, `MATCH (n:Person)-[:advisedBy|takesCourse|worksFor]->(m) RETURN COUNT(DISTINCT n.name) AS c`)
	if res2.Rows[0][0] != int64(2) {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestCountOverEmptyMatch(t *testing.T) {
	res := run(t, `MATCH (n:Nothing) RETURN COUNT(*) AS c`)
	if res.Len() != 1 || res.Rows[0][0] != int64(0) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestOptionalMatch(t *testing.T) {
	res := run(t, `MATCH (n:Person) OPTIONAL MATCH (n)-[:worksFor]->(d) RETURN n.name AS n, d.name AS d`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	sawNull := false
	for _, r := range res.Rows {
		if r[1] == nil {
			sawNull = true
		}
	}
	if !sawNull {
		t.Fatalf("expected a null department: %v", res.Rows)
	}
}

func TestOrderByLimit(t *testing.T) {
	res := run(t, `MATCH (n:Person) RETURN n.name AS name ORDER BY name DESC LIMIT 1`)
	if res.Len() != 1 || res.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestLabelsAndTypeFunctions(t *testing.T) {
	res := run(t, `MATCH (n {name: 'Alice'}) RETURN labels(n) AS l`)
	want := []pg.Value{"Person", "Professor"}
	if !reflect.DeepEqual(res.Rows[0][0], want) {
		t.Fatalf("labels = %v", res.Rows[0][0])
	}
	res2 := run(t, `MATCH (a)-[r]->(b:Department) RETURN type(r) AS t`)
	if res2.Rows[0][0] != "worksFor" {
		t.Fatalf("type = %v", res2.Rows[0][0])
	}
}

func TestStringPredicates(t *testing.T) {
	res := run(t, `MATCH (n:Person) WHERE n.name STARTS WITH 'Al' RETURN n.name AS n`)
	if res.Len() != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, `MATCH (n:Person) WHERE n.name CONTAINS 'ob' RETURN n.name AS n`)
	if res2.Len() != 1 || res2.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res2.Rows)
	}
	res3 := run(t, `MATCH (n:Person) WHERE n.name IN ['Alice', 'Zed'] RETURN n.name AS n`)
	if res3.Len() != 1 {
		t.Fatalf("rows = %v", res3.Rows)
	}
}

func TestEdgePropertyAccess(t *testing.T) {
	res := run(t, `MATCH (a)-[r:worksFor]->(b) RETURN r.since AS s`)
	if res.Len() != 1 || res.Rows[0][0] != int64(2010) {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestAnonymousPatterns(t *testing.T) {
	res := run(t, `MATCH (:Student)-[:advisedBy]->(p) RETURN p.name AS n`)
	if res.Len() != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := run(t, `MATCH ()-[:takesCourse]->() RETURN COUNT(*) AS c`)
	if res2.Rows[0][0] != int64(2) {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestDistinct(t *testing.T) {
	res := run(t, `MATCH (n:Person)-[:takesCourse|advisedBy]->(m) RETURN DISTINCT n.name AS n`)
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNodeReuseAcrossPatterns(t *testing.T) {
	// The same variable in two patterns must refer to the same node.
	res := run(t, `MATCH (s)-[:takesCourse]->(c:Course), (s)-[:takesCourse]->(v:STRING) RETURN s.name AS n`)
	if res.Len() != 1 || res.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`MATCH (n:Person)`,                         // no RETURN
		`MATCH (n:Person RETURN n`,                 // unbalanced
		`MATCH (n)-[:x]->(m RETURN n`,              // unbalanced
		`MATCH (n) RETURN unknownfn(n)`,            // unsupported function
		`MATCH (n) WHERE n.x == 1 RETURN n`,        // wrong operator
		`MATCH (n) RETURN n.name AS`,               // missing alias
		`MATCH (n) RETURN COUNT(n LIMIT 1`,         // unbalanced count
		`MATCH (a)-[:x]->(b) UNION MATCH RETURN a`, // malformed second part
	}
	for _, src := range bad {
		if _, err := cypher.Parse(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

func TestCanonical(t *testing.T) {
	res := run(t, `MATCH (s:Student)-[:takesCourse]->(tn) RETURN COALESCE(tn.value, tn.iri) AS v`)
	canon := res.Canonical()
	if len(canon) != 2 || canon[0] != "Intro to Logic" || canon[1] != "http://x/DB" {
		t.Fatalf("canonical = %v", canon)
	}
}
