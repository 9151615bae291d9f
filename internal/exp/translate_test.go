package exp_test

import (
	"io"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/pgschema"
)

// TestTranslatedPaperQueriesAnswerLikeSPARQL is F_qt's golden over the 42
// paper queries: each is translated over the PG-Schema read back from its
// DDL, and the Cypher must give the SPARQL query's answers over the same
// data, row for row. The queries F_qt cannot translate yet are pinned to
// their error, so teaching it FILTER flips them on purpose.
func TestTranslatedPaperQueriesAnswerLikeSPARQL(t *testing.T) {
	untranslated := map[string]bool{
		"DBpedia2022/Q4": true, "DBpedia2022/Q25": true, "DBpedia2022/Q26": true, "DBpedia2022/Q27": true,
		"Bio2RDFCT/Q3": true,
	}
	e := exp.NewEnv(exp.DefaultConfig(io.Discard))
	for _, ds := range []struct {
		name    string
		queries []exp.Query
	}{{"DBpedia2022", exp.DBpediaQueries()}, {"Bio2RDFCT", exp.Bio2RDFQueries()}} {
		store, schema := e.S3PG(ds.name)
		spg, err := pgschema.ParseDDL(pgschema.WriteDDL(schema))
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.queries {
			id := ds.name + "/" + q.ID
			t.Run(id, func(t *testing.T) {
				cypher, err := core.TranslateQuery(q.SPARQL, spg)
				if untranslated[id] {
					if err == nil || !strings.Contains(err.Error(), "only single-BGP queries are supported") {
						t.Fatalf("want the single-BGP error, got %v", err)
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				gt, err := exp.GroundTruth(e.Graph(ds.name), q)
				if err != nil {
					t.Fatal(err)
				}
				got, err := exp.PGAnswers(store, exp.Query{ID: q.ID, Cypher: cypher})
				if err != nil {
					t.Fatal(err)
				}
				if acc := exp.Accuracy(gt, got); acc != 1 || len(got) != len(gt) {
					t.Fatalf("accuracy %.3f, %d rows, SPARQL %d rows\n%s", acc, len(got), len(gt), cypher)
				}
			})
		}
	}
}
