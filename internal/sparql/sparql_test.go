package sparql_test

import (
	"context"
	"testing"

	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/sparql"
)

const prefixes = `
PREFIX ex: <http://example.org/univ#>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
`

func evalUni(t *testing.T, query string) *sparql.Results {
	t.Helper()
	q, err := sparql.Parse(prefixes + query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := sparql.EvalCtx(context.Background(), fixtures.UniversityGraph(), q)
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	return res
}

func TestSelectSimpleBGP(t *testing.T) {
	res := evalUni(t, `SELECT ?s WHERE { ?s a ex:Person . }`)
	if res.Len() != 2 {
		t.Fatalf("persons = %d, want 2: %v", res.Len(), res.Rows)
	}
}

func TestSelectJoin(t *testing.T) {
	res := evalUni(t, `SELECT ?s ?n WHERE { ?s a ex:GraduateStudent ; ex:advisedBy ?a . ?a ex:name ?n . }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %d: %v", res.Len(), res.Rows)
	}
	if got := res.Rows[0][1]; got != rdf.NewLiteral("Alice") {
		t.Fatalf("advisor name = %v", got)
	}
}

func TestSelectConstantObject(t *testing.T) {
	res := evalUni(t, `SELECT ?s WHERE { ?s ex:name "Bob" . }`)
	if res.Len() != 1 || res.Rows[0][0] != fixtures.Ex("bob") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSelectCommaObjects(t *testing.T) {
	res := evalUni(t, `SELECT ?c WHERE { ex:bob ex:takesCourse ?c . }`)
	if res.Len() != 2 {
		t.Fatalf("courses = %d: %v", res.Len(), res.Rows)
	}
}

func TestHeterogeneousObjects(t *testing.T) {
	// The paper's key case: ?c binds both an IRI (ex:DB) and a literal.
	res := evalUni(t, `SELECT ?c WHERE { ex:bob ex:takesCourse ?c . }`)
	var iris, lits int
	for _, row := range res.Rows {
		if row[0].IsIRI() {
			iris++
		}
		if row[0].IsLiteral() {
			lits++
		}
	}
	if iris != 1 || lits != 1 {
		t.Fatalf("iris=%d lits=%d", iris, lits)
	}
}

func TestFilterIsLiteralIsIRI(t *testing.T) {
	res := evalUni(t, `SELECT ?c WHERE { ex:bob ex:takesCourse ?c . FILTER(isLiteral(?c)) }`)
	if res.Len() != 1 || res.Rows[0][0] != rdf.NewLiteral("Intro to Logic") {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := evalUni(t, `SELECT ?c WHERE { ex:bob ex:takesCourse ?c . FILTER(isIRI(?c)) }`)
	if res2.Len() != 1 || res2.Rows[0][0] != fixtures.Ex("DB") {
		t.Fatalf("rows = %v", res2.Rows)
	}
}

func TestFilterComparison(t *testing.T) {
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("credits"), rdf.NewTypedLiteral("30", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(fixtures.Ex("alice"), fixtures.Ex("credits"), rdf.NewTypedLiteral("120", rdf.XSDInteger)))
	q := sparql.MustParse(prefixes + `SELECT ?s WHERE { ?s ex:credits ?c . FILTER(?c > 100) }`)
	res, err := sparql.EvalCtx(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	if res.Len() != 1 || res.Rows[0][0] != fixtures.Ex("alice") {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestFilterLogicalOps(t *testing.T) {
	res := evalUni(t, `SELECT ?p ?n WHERE { ?p ex:name ?n . FILTER(?n = "Alice" || ?n = "Bob") }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	res2 := evalUni(t, `SELECT ?p ?n WHERE { ?p ex:name ?n . FILTER(!(?n = "Alice")) }`)
	for _, row := range res2.Rows {
		if row[1] == rdf.NewLiteral("Alice") {
			t.Fatal("negation failed")
		}
	}
}

func TestFilterRegexAndDatatype(t *testing.T) {
	res := evalUni(t, `SELECT ?p WHERE { ?p ex:name ?n . FILTER(REGEX(?n, "^A")) }`)
	if res.Len() != 2 { // Alice, Aalborg University
		t.Fatalf("regex rows = %v", res.Rows)
	}
	res2 := evalUni(t, `SELECT ?d WHERE { ?p ex:dob ?d . FILTER(DATATYPE(?d) = xsd:gYear) }`)
	if res2.Len() != 1 {
		t.Fatalf("datatype rows = %v", res2.Rows)
	}
}

func TestOptional(t *testing.T) {
	res := evalUni(t, `SELECT ?p ?d WHERE { ?p a ex:Person . OPTIONAL { ?p ex:dob ?d . } }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Both persons have a dob in the fixture; drop one to see the unbound case.
	g := fixtures.UniversityGraph()
	g.Remove(rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("dob"), rdf.NewTypedLiteral("1999", rdf.XSDGYear)))
	q := sparql.MustParse(prefixes + `SELECT ?p ?d WHERE { ?p a ex:Person . OPTIONAL { ?p ex:dob ?d . } }`)
	res2, err := sparql.EvalCtx(context.Background(), g, q)
	if err != nil {
		t.Fatal(err)
	}
	unbound := 0
	for _, row := range res2.Rows {
		if row[1].IsZero() {
			unbound++
		}
	}
	if res2.Len() != 2 || unbound != 1 {
		t.Fatalf("rows = %v, unbound = %d", res2.Rows, unbound)
	}
}

func TestUnion(t *testing.T) {
	res := evalUni(t, `SELECT ?x WHERE { { ?x a ex:Professor . } UNION { ?x a ex:GraduateStudent . } }`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestUnionDoesNotCorruptSiblings(t *testing.T) {
	// A filter inside the first branch must not affect the second branch.
	res := evalUni(t, `SELECT ?x WHERE {
		{ ?x ex:name ?n . FILTER(?n = "nobody") } UNION { ?x a ex:Professor . } }`)
	if res.Len() != 1 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestCount(t *testing.T) {
	res := evalUni(t, `SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Person . }`)
	if res.Len() != 1 || res.Rows[0][0].Value != "2" {
		t.Fatalf("count = %v", res.Rows)
	}
}

func TestDistinct(t *testing.T) {
	res := evalUni(t, `SELECT DISTINCT ?t WHERE { ?s a ?t . ?s ex:name ?n . }`)
	withoutDistinct := evalUni(t, `SELECT ?t WHERE { ?s a ?t . ?s ex:name ?n . }`)
	if res.Len() >= withoutDistinct.Len() {
		t.Fatalf("distinct %d !< plain %d", res.Len(), withoutDistinct.Len())
	}
}

func TestOrderByAndLimit(t *testing.T) {
	res := evalUni(t, `SELECT ?n WHERE { ?p ex:name ?n . } ORDER BY ?n LIMIT 2`)
	if res.Len() != 2 {
		t.Fatalf("rows = %v", res.Rows)
	}
	if res.Rows[0][0].Value > res.Rows[1][0].Value {
		t.Fatalf("not sorted: %v", res.Rows)
	}
	resD := evalUni(t, `SELECT ?n WHERE { ?p ex:name ?n . } ORDER BY DESC(?n) LIMIT 1`)
	if resD.Rows[0][0].Value < res.Rows[0][0].Value {
		t.Fatalf("desc order wrong: %v", resD.Rows)
	}
}

func TestRepeatedVariableJoin(t *testing.T) {
	// ?x advisedBy ?x must only match self-advising entities (none here).
	res := evalUni(t, `SELECT ?x WHERE { ?x ex:advisedBy ?x . }`)
	if res.Len() != 0 {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`SELECT WHERE { ?s ?p ?o }`,
		`SELECT ?s { ?s ?p ?o }`, // missing WHERE
		`SELECT ?s WHERE { ?s ex:p ?o }`,
		`SELECT ?s WHERE { ?s <http://x/p ?o }`,
		`SELECT (SUM(*) AS ?c) WHERE { ?s ?p ?o }`,
		`SELECT ?s WHERE { ?s ?p ?o . FILTER(UNKNOWNFN(?o)) }`,
		// Term syntax outside the grammar is refused, not read as another term.
		"SELECT ?s WHERE { ?s <http://p> \"line\nbreak\" }",
		`SELECT ?s WHERE { ?s <http://p> "\q" }`,
		`SELECT ?s WHERE { ?s <http://p> <http://a b> }`,
		`SELECT ?s WHERE { ?s <http://p> _:b }`,
		`SELECT ?s WHERE { ?s <http://p> [] }`,
		`SELECT ?s WHERE { ?s <http://p> [ <http://q> 1 ] }`,
		`SELECT ?s WHERE { ?s <http://p> ?o FILTER(?o = _:b) }`,
		`SELECT ?s WHERE { ?s <http://p> << _:b <http://q> 1 >> }`,
	}
	for _, src := range bad {
		if _, err := sparql.Parse(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
}

func TestCanonicalResults(t *testing.T) {
	res := evalUni(t, `SELECT ?c WHERE { ex:bob ex:takesCourse ?c . }`)
	canon := res.Canonical()
	if len(canon) != 2 {
		t.Fatalf("canonical = %v", canon)
	}
	// IRIs are rendered as bare strings (tr(µ) of Definition 3.2).
	want := map[string]bool{
		fixtures.ExNS + "DB": true,
		"Intro to Logic":     true,
	}
	for _, c := range canon {
		if !want[c] {
			t.Fatalf("unexpected canonical row %q", c)
		}
	}
}

func TestStrFunction(t *testing.T) {
	res := evalUni(t, `SELECT ?p WHERE { ?p a ex:Person . FILTER(CONTAINS(STR(?p), "bob")) }`)
	if res.Len() != 1 || res.Rows[0][0] != fixtures.Ex("bob") {
		t.Fatalf("rows = %v", res.Rows)
	}
}
