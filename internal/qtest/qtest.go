// Package qtest is the corpus the query-engine tests share: the graphs the
// differential tests run over (each with its transformed stores) and the
// query texts every engine test and benchmark feeds them. Only tests import
// it; it lives outside _test files because three packages' tests need it.
package qtest

import (
	"context"
	"fmt"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// Fixture is one graph with the shapes that describe it.
type Fixture struct {
	Name   string
	Graph  *rdf.Graph
	Shapes *shacl.Schema
}

// Fixtures builds the graphs afresh (callers spill and otherwise mutate
// them): the university graph of Figure 2a; a dirty variant with an untyped
// subject, ill-typed literals and one property over several value spaces;
// an RDF-star variant; and two datagen profiles.
func Fixtures() []Fixture {
	uni := fixtures.UniversityShapes
	ex := func(l string) rdf.Term { return rdf.NewIRI(fixtures.ExNS + l) }

	dirty := fixtures.UniversityGraph()
	for _, t := range []rdf.Triple{
		{S: ex("mystery"), P: ex("name"), O: rdf.NewLiteral("Mystery")},
		{S: ex("bob"), P: ex("age"), O: rdf.NewTypedLiteral("abc", rdf.XSDInteger)},
		{S: ex("bob"), P: ex("rank"), O: rdf.NewTypedLiteral("10", rdf.XSDInteger)},
		{S: ex("alice"), P: ex("rank"), O: rdf.NewTypedLiteral("9", rdf.XSDInteger)},
		{S: ex("alice"), P: ex("rank"), O: rdf.NewLiteral("5")},
		{S: ex("mystery"), P: ex("rank"), O: rdf.NewTypedLiteral("9.5", rdf.XSDDouble)},
		{S: ex("mystery"), P: ex("rank"), O: rdf.NewTypedLiteral("true", rdf.XSDBoolean)},
		{S: ex("mystery"), P: ex("rank"), O: rdf.NewTypedLiteral("2001-02-03", rdf.XSDDate)},
		{S: ex("mystery"), P: ex("rank"), O: rdf.NewLangLiteral("neuf", "fr")},
		{S: ex("mystery"), P: ex("rank"), O: rdf.NewBlank("b0")},
		{S: ex("mystery"), P: ex("rank"), O: ex("alice")},
	} {
		dirty.Add(t)
	}

	star := fixtures.UniversityGraph()
	advised := rdf.NewTriple(ex("bob"), ex("advisedBy"), ex("alice"))
	takes := rdf.NewTriple(ex("bob"), ex("takesCourse"), ex("DB"))
	star.Add(rdf.NewTriple(rdf.MustTripleTerm(advised), ex("since"), rdf.NewTypedLiteral("2021", rdf.XSDInteger)))
	star.Add(rdf.NewTriple(rdf.MustTripleTerm(takes), ex("grade"), rdf.NewLiteral("A")))

	out := []Fixture{
		{"university", fixtures.UniversityGraph(), uni()},
		{"dirty", dirty, uni()},
		{"star", star, uni()},
	}
	for _, p := range []struct {
		profile string
		scale   float64
	}{{"DBpedia2022", 0.0002}, {"Bio2RDFCT", 0.0005}} {
		g := datagen.Generate(datagen.Profiles()[p.profile], p.scale, 1)
		out = append(out, Fixture{p.profile, g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})})
	}
	return out
}

// SpillIn returns g rebuilt in k installments of equal size, spilled to dir
// after each: the same ids, slots and admission order, read across k spill
// segments with triples of one subject on both sides of a boundary.
func SpillIn(g *rdf.Graph, k int, dir string) (*rdf.Graph, error) {
	out := rdf.NewGraph()
	triples := g.Triples()
	for i := 1; i <= k; i++ {
		for _, t := range triples[len(triples)*(i-1)/k : len(triples)*i/k] {
			out.Add(t)
		}
		if err := out.Spill(dir, nil); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Transform runs F_st and F_dt over the fixture in the given mode.
func (f Fixture) Transform(mode core.Mode) (*pg.Store, *pgschema.Schema, error) {
	return core.Transform(f.Graph, f.Shapes, mode)
}

// Subject is an entity of the fixture that has outgoing statements: the
// subject of its first triple.
func (f Fixture) Subject() string {
	var s string
	f.Graph.ForEach(func(t rdf.Triple) bool { s = t.S.Value; return false })
	return s
}

const uniPrefix = "PREFIX ex: <" + fixtures.ExNS + ">\n"

// TranslateInputs are the SPARQL queries core's translation tests feed
// F_qt over the university schema.
var TranslateInputs = []string{
	uniPrefix + `SELECT ?s ?a WHERE { ?s a ex:GraduateStudent ; ex:advisedBy ?a . ?a a ex:Professor . }`,
	uniPrefix + `SELECT ?s ?n WHERE { ?s a ex:Person ; ex:name ?n . }`,
	uniPrefix + `SELECT ?s ?c WHERE { ?s a ex:GraduateStudent ; ex:takesCourse ?c . }`,
	uniPrefix + `SELECT ?s ?d WHERE { ?s a ex:Person ; ex:dob ?d . }`,
	uniPrefix + `SELECT ?s ?n ?r WHERE { ?s a ex:Student ; ex:name ?n ; ex:regNo ?r . }`,
	uniPrefix + `SELECT DISTINCT ?n WHERE { ?s a ex:Person ; ex:name ?n . }`,
	uniPrefix + `SELECT ?s ?d WHERE { ?s a ex:Professor ; ex:worksFor ?d . ?d a ex:Department . }`,
}

// SPARQL is the SPARQL half of the corpus for a fixture: the 30 DBpedia and
// 12 Bio2RDF workload queries, the translation inputs, the extra shapes of
// the benchmark's query mix (bound-subject lookup, ORDER BY with LIMIT and
// OFFSET, COUNT) and one query per operator and builtin the workload leaves
// out.
func SPARQL(f Fixture) []string {
	var qs []string
	for _, q := range exp.DBpediaQueries() {
		qs = append(qs, q.SPARQL)
	}
	for _, q := range exp.Bio2RDFQueries() {
		qs = append(qs, q.SPARQL)
	}
	qs = append(qs, TranslateInputs...)
	dns := datagen.DBpedia2022().NS
	qs = append(qs,
		fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", f.Subject()),
		fmt.Sprintf("PREFIX d: <%s>\nSELECT ?e ?v WHERE { ?e a d:Place ; d:name ?v } ORDER BY ?v ?e LIMIT 10 OFFSET 5", dns),
		fmt.Sprintf("PREFIX d: <%s>\nSELECT (COUNT(*) AS ?n) WHERE { ?e a d:Person }", dns),
		fmt.Sprintf("PREFIX d: <%s>\nSELECT ?e ?v WHERE { ?e a d:Place ; d:population ?v } ORDER BY DESC(?v) ?e LIMIT 7", dns),
		fmt.Sprintf("PREFIX d: <%s>\nSELECT ?e ?v ?c WHERE { ?e a d:Place . OPTIONAL { ?e d:population ?v . FILTER(?v > 50000) } OPTIONAL { ?e d:country ?c } } LIMIT 40 OFFSET 3", dns),
		fmt.Sprintf("PREFIX d: <%s>\nSELECT DISTINCT ?c WHERE { { ?e a d:Place ; d:country ?c } UNION { ?e a d:Person ; d:birthPlace ?c } } ORDER BY ?c LIMIT 12", dns),
		uniPrefix+`SELECT ?s ?n WHERE { ?s ex:name ?n } ORDER BY ?n ?s LIMIT 3 OFFSET 1`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ex:rank ?o } ORDER BY ?o`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ex:rank ?o } ORDER BY DESC(?o) ?s LIMIT 4`,
		uniPrefix+`SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?o ?p ?s LIMIT 9 OFFSET 2`,
		uniPrefix+`SELECT * WHERE { ?s ?p ?o }`,
		uniPrefix+`SELECT ?s ?s WHERE { ?s a ex:Person } ORDER BY DESC(?s)`,
		uniPrefix+`SELECT ?x WHERE { ?x ?p ?x }`,
		uniPrefix+`SELECT ?s ?a ?n WHERE { ?s a ex:Person . OPTIONAL { ?s ex:advisedBy ?a . OPTIONAL { ?a ex:name ?n } } }`,
		uniPrefix+`SELECT ?s ?a WHERE { ?s a ex:Person . OPTIONAL { ?s ex:advisedBy ?a } FILTER(!BOUND(?a)) }`,
		uniPrefix+`SELECT ?s ?a ?c WHERE { ?s a ex:Person . OPTIONAL { ?s ex:advisedBy ?a } ?s ex:takesCourse ?c . ?a ex:name ?an }`,
		uniPrefix+`SELECT ?x ?y WHERE { { ?x a ex:Professor } UNION { ?y a ex:GraduateStudent } ?x ex:name ?n }`,
		uniPrefix+`SELECT ?x WHERE { { ?x ex:name ?n . FILTER(?n = "nobody") } UNION { ?x a ex:Professor } }`,
		uniPrefix+`SELECT ?a ?b WHERE { ?a a ex:Person . ?b a ex:Course }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(ISLITERAL(?o) && (DATATYPE(?o) = <http://www.w3.org/2001/XMLSchema#integer> || LANG(?o) = "fr")) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(REGEX(STR(?o), "^[A-M]") || ISBLANK(?o)) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(REGEX(?o, "([")) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(REGEX(?o, STR(?s))) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ex:rank ?o . FILTER(?o >= 9) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ex:rank ?o . FILTER(?o != "5" && !(?o = ex:alice)) }`,
		uniPrefix+`SELECT ?s ?o WHERE { ?s ex:rank ?o . FILTER(?nope > 1 || CONTAINS(STR(?o), "9")) }`,
		uniPrefix+`SELECT ?s WHERE { ?s a ex:Person . FILTER(ISIRI(?s) && STRSTARTS(STR(?s), "http://example.org/univ#b")) }`,
		uniPrefix+`SELECT ?s WHERE { ?s a ex:Person } LIMIT 0`,
		uniPrefix+`SELECT ?s WHERE { ?s a ex:Person } OFFSET 99`,
		uniPrefix+`SELECT DISTINCT ?p WHERE { ?s ?p ?o } LIMIT 4 OFFSET 1`,
		uniPrefix+`SELECT ?s WHERE { ?s a ex:Nothing . ?s ?p ?o }`,
		uniPrefix+`SELECT ?q ?v WHERE { ?q ex:since ?v }`,
		uniPrefix+`ASK { ?s a ex:Professor }`,
		uniPrefix+`ASK { ?s a ex:Nothing }`,
		`SELECT ?s WHERE { }`,
	)
	return qs
}

// CypherQuery is one Cypher text with the parameters it needs.
type CypherQuery struct {
	Text   string
	Params map[string]pg.Value
}

// Cypher is the Cypher half of the corpus for a fixture, the counterpart of
// SPARQL: workload queries, the query mix's $iri lookup and count(*), and
// one query per clause, operator and builtin the workload leaves out —
// including the ones that fail at evaluation time.
func Cypher(f Fixture) []CypherQuery {
	var qs []CypherQuery
	add := func(texts ...string) {
		for _, t := range texts {
			qs = append(qs, CypherQuery{Text: t})
		}
	}
	for _, q := range exp.DBpediaQueries() {
		add(q.Cypher)
	}
	for _, q := range exp.Bio2RDFQueries() {
		add(q.Cypher)
	}
	iri := map[string]pg.Value{"iri": f.Subject()}
	qs = append(qs,
		CypherQuery{`MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`, iri},
		CypherQuery{`MATCH (n) WHERE $iri = n.iri AND n.iri IS NOT NULL RETURN n`, iri},
		CypherQuery{`MATCH (n)-[r]->(m) WHERE n.iri = $iri RETURN type(r) AS t, m ORDER BY t, m`, iri},
		CypherQuery{`MATCH (n {iri: "` + f.Subject() + `"})-[r]-(m) RETURN id(n), type(r), labels(m) LIMIT 5`, nil},
		CypherQuery{`MATCH (n) WHERE n.iri = $missing RETURN n`, nil},
		CypherQuery{`MATCH (n) WHERE n.iri = $iri RETURN n`, map[string]pg.Value{"iri": int64(7)}},
	)
	lists := map[string]pg.Value{
		"list": []pg.Value{int64(1), 2.5, "x", int64(2), nil, true},
		"nums": []pg.Value{int64(3), int64(1), int64(2), int64(1)},
	}
	for _, t := range []string{
		`UNWIND $list AS v RETURN v ORDER BY v DESC LIMIT 3`,
		`UNWIND $list AS v RETURN v ORDER BY v`,
		`UNWIND $nums AS v RETURN DISTINCT v`,
		`UNWIND $nums AS v RETURN v ORDER BY v DESC LIMIT 2`,
		`UNWIND $nums AS v UNWIND $list AS w RETURN v, w, v < w, v = w, v <> w, w IN [1, "x"]`,
		`UNWIND $nums AS v MATCH (v) RETURN v`,
		`UNWIND $nums AS v MATCH (a:Person)-[v]->(b) RETURN a`,
		`UNWIND $nums AS v RETURN v.x`,
		`UNWIND $list AS v RETURN size(v), toString(v), v IS NULL, count(*)`,
		`MATCH (a:Person) UNWIND $nums AS v RETURN a.iri, v LIMIT 5`,
	} {
		qs = append(qs, CypherQuery{t, lists})
	}
	add(
		`MATCH (n:Person) RETURN count(*) AS n`,
		`MATCH (n:Person) RETURN n.iri AS e, n.name AS v ORDER BY v, e LIMIT 10`,
		`MATCH (n:Place) WHERE n.population > 50000 RETURN n.iri AS e, n.population AS v ORDER BY v DESC LIMIT 7`,
		`MATCH (n:Place)-[:country]->(c) RETURN c.iri AS c, count(*) AS n, count(DISTINCT n.name) AS names ORDER BY n DESC, c LIMIT 6`,
		`MATCH (n:Person) OPTIONAL MATCH (n)-[:birthPlace]->(p:Place) RETURN n.iri, p.iri, p IS NULL LIMIT 50`,
		`MATCH (p:Person) RETURN p`,
		`MATCH (p:Person) RETURN DISTINCT labels(p) AS l`,
		`MATCH (p:Person)-[r:advisedBy|takesCourse]-(x) RETURN p.iri, type(r), x ORDER BY x`,
		`MATCH (p:Person)-[r]->(x) WHERE p.name STARTS WITH "B" AND x.iri IS NOT NULL RETURN p.name AS n, r, x.iri`,
		`MATCH (a)-[]->()-[]->(c) RETURN count(*) AS paths`,
		`MATCH (a:Person)-[:advisedBy]->(b), (a)-[:takesCourse]->(c) RETURN a, b, c`,
		`MATCH (a:Person)-[:advisedBy]->(b) MATCH (b)-[r]->(d) RETURN a.iri, b.iri, type(r), d LIMIT 20`,
		`MATCH (a:Person)-[r]->(b)-[r]->(c) RETURN a`,
		`MATCH (a:Person)-[]->(b)<-[]-(a) RETURN a.iri, b LIMIT 10`,
		`MATCH (a:Person), (c:Course) RETURN a.iri AS a, c.iri AS c ORDER BY c DESC, a`,
		`MATCH (a:Person) OPTIONAL MATCH (a)-[:advisedBy]->(b) OPTIONAL MATCH (b)-[:worksFor]->(d) RETURN a.iri, b.iri, d.iri`,
		`MATCH (a:Person) OPTIONAL MATCH (a)-[:advisedBy]->(b) MATCH (b)-[:worksFor]->(d) RETURN a.iri, d.iri`,
		`MATCH (a:Person) OPTIONAL MATCH (a)-[:nothing]->(b) RETURN a.iri, b, b.iri, COALESCE(b.iri, a.name, "none")`,
		`MATCH (a:Person) WHERE a.name IN ["Bob", "Alice", 3] OR NOT a.name = "x" RETURN a.name, size(a.name), toString(a.age)`,
		`MATCH (a) WHERE a.value IS NOT NULL RETURN labels(a), a.value ORDER BY expr LIMIT 8`,
		`MATCH (a) WHERE a.value > 3 RETURN a.value AS v ORDER BY v`,
		`MATCH (a) RETURN a.rank AS r, count(*) ORDER BY r DESC`,
		`MATCH (a:Person) UNWIND a.name AS n RETURN a.iri, n`,
		`MATCH (a:Person) UNWIND a AS b RETURN b, b.name`,
		`UNWIND NULL AS v RETURN v`,
		`UNWIND NULL AS v RETURN count(*), count(v)`,
		`MATCH (a:Person) RETURN count(a.name), count(DISTINCT a.name), count(*)`,
		`MATCH (a:Nothing) RETURN a.iri, count(*)`,
		`MATCH (a:Person) RETURN a.iri UNION MATCH (a:Professor) RETURN a.iri`,
		`MATCH (a:Person) RETURN a.iri AS x UNION ALL MATCH (a:Professor) RETURN a.iri AS y ORDER BY x LIMIT 3`,
		`MATCH (a:Person) RETURN a.iri, a.name UNION MATCH (a:Professor) RETURN a.iri`,
		`MATCH (a:Person) RETURN a.iri AS x, a.name AS x ORDER BY x`,
		`RETURN 1 AS one, "two", NULL, TRUE, 2.5, $p`,
		`RETURN 1 AS one, "two", NULL IS NULL, NOT TRUE, NOT NULL, 2 >= 2.0, "a" < "b", 1 < "b"`,
		// Evaluation-time failures: the outcome (error or answer) must agree.
		`MATCH (a:Person) RETURN b`,
		`MATCH (a:Person) WHERE b.x = 1 RETURN a`,
		`MATCH (a:Nothing) WHERE b.x = 1 RETURN a`,
		`MATCH (a:Person) WHERE a.name = "zz" AND b.x = 1 RETURN a`,
		`MATCH (a:Person) WHERE a.age > 0 AND labels(a.name) = 1 RETURN a`,
		`MATCH (a:Person) WHERE a.iri = "nobody" AND type(a) = "x" RETURN a`,
		`MATCH (a:Person)-[r]->(b) RETURN labels(r)`,
		`MATCH (a:Person)-[r]->(b) RETURN id(a.name)`,
		`MATCH (a:Person) RETURN a.iri LIMIT 2 ; `,
	)
	return qs
}

// PollCtx is a context that counts how often an evaluator polls it and, from
// poll CancelAt on (0: never), reports cancellation: a deadline that fires
// at a chosen point of the evaluation instead of a chosen time. Evaluators
// poll Err only, from one goroutine.
type PollCtx struct {
	context.Context
	Polls    int
	CancelAt int
}

// NewPollCtx returns a PollCtx over the background context.
func NewPollCtx(cancelAt int) *PollCtx {
	return &PollCtx{Context: context.Background(), CancelAt: cancelAt}
}

// Err counts the poll.
func (c *PollCtx) Err() error {
	c.Polls++
	if c.CancelAt > 0 && c.Polls >= c.CancelAt {
		return context.Canceled
	}
	return nil
}
