package core_test

import (
	"context"
	"reflect"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/sparql"
)

// checkQueryPreservation asserts tr(⟦Q⟧_G) = ⟦F_qt(Q)⟧_PG (Definition 3.2).
func checkQueryPreservation(t *testing.T, sparqlQuery string) {
	t.Helper()
	g := fixtures.UniversityGraph()
	store, spg, err := core.Transform(g, fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}

	sq, err := sparql.Parse(sparqlQuery)
	if err != nil {
		t.Fatalf("sparql parse: %v", err)
	}
	want, err := sparql.EvalCtx(context.Background(), g, sq)
	if err != nil {
		t.Fatalf("sparql eval: %v", err)
	}

	translated, err := core.TranslateQuery(sparqlQuery, spg)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	cq, err := cypher.Parse(translated)
	if err != nil {
		t.Fatalf("cypher parse of translation: %v\n%s", err, translated)
	}
	got, err := cypher.EvalWith(store, cq, cypher.EvalOptions{})
	if err != nil {
		t.Fatalf("cypher eval: %v\n%s", err, translated)
	}
	if !reflect.DeepEqual(want.Canonical(), got.Canonical()) {
		t.Fatalf("answers differ.\nSPARQL: %v\nCypher: %v\ntranslation:\n%s",
			want.Canonical(), got.Canonical(), translated)
	}
}

const uniPrefix = "PREFIX ex: <http://example.org/univ#>\n"

func TestTranslateEntityQuery(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?a WHERE { ?s a ex:GraduateStudent ; ex:advisedBy ?a . ?a a ex:Professor . }`)
}

func TestTranslateKVProperty(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?n WHERE { ?s a ex:Person ; ex:name ?n . }`)
}

func TestTranslateHeterogeneousProperty(t *testing.T) {
	// The paper's Q22 shape: values split between entities and value nodes.
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?c WHERE { ?s a ex:GraduateStudent ; ex:takesCourse ?c . }`)
}

func TestTranslateMultiTypeLiteral(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?d WHERE { ?s a ex:Person ; ex:dob ?d . }`)
}

func TestTranslateTwoProperties(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?n ?r WHERE { ?s a ex:Student ; ex:name ?n ; ex:regNo ?r . }`)
}

func TestTranslateDistinct(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT DISTINCT ?n WHERE { ?s a ex:Person ; ex:name ?n . }`)
}

func TestTranslateJoinThroughEntities(t *testing.T) {
	checkQueryPreservation(t, uniPrefix+
		`SELECT ?s ?d WHERE { ?s a ex:Professor ; ex:worksFor ?d . ?d a ex:Department . }`)
}

func TestTranslateUnsupported(t *testing.T) {
	_, spg, err := core.Transform(fixtures.UniversityGraph(), fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	unsupported := []string{
		uniPrefix + `SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Person . }`,
		uniPrefix + `SELECT ?s WHERE { ?s a ex:Person . FILTER(isIRI(?s)) }`,
		uniPrefix + `SELECT ?s WHERE { ?s ex:name "Bob" . }`,
		uniPrefix + `SELECT ?s ?p WHERE { ?s ?p ex:alice . }`,
		uniPrefix + `SELECT ?n WHERE { ?s ex:name ?n . }`, // untyped subject
	}
	for _, q := range unsupported {
		if _, err := core.TranslateQuery(q, spg); err == nil {
			t.Errorf("expected translation error for %q", q)
		}
	}
}
