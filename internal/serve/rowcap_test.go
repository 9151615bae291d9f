package serve

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/qtest"
	"github.com/s3pg/s3pg/internal/rdf"
)

// TestRowCapStopsEarly checks where the row cap takes effect. Where the
// query's tail is a plain projection the leaves stop one row past the cap —
// counted in context polls, one per 256 rows read or candidates visited —
// and where a sort, DISTINCT or aggregate needs every row they do not; the
// capped answer is the uncapped one's prefix either way, and Truncated says
// whether anything was cut.
func TestRowCapStopsEarly(t *testing.T) {
	const m, maxRows = 20000, 10
	g, st := rdf.NewGraph(), pg.NewStore()
	typ := rdf.NewIRI("http://x/T")
	for i := 0; i < m; i++ {
		iri := fmt.Sprintf("http://x/n%05d", i)
		g.Add(rdf.NewTriple(rdf.NewIRI(iri), rdf.A, typ))
		st.AddNode([]string{"T"}, map[string]pg.Value{"iri": iri, "i": int64(i % 50)})
	}
	snap := NewSnapshot(g, st, "", 0)

	cases := []struct {
		lang, query string
		early       bool
		truncated   bool
	}{
		{"cypher", `MATCH (n:T) RETURN n.iri AS iri`, true, true},
		{"cypher", `MATCH (n:T) WHERE n.i = 7 RETURN n.iri AS iri, n.i AS i`, true, true},
		{"cypher", `MATCH (n:T) RETURN n.iri AS iri UNION ALL MATCH (n:T) RETURN n.iri AS iri`, true, true},
		{"cypher", `MATCH (n:T) RETURN n.iri AS iri LIMIT 5`, true, false},
		{"cypher", `MATCH (n:T) RETURN n.iri AS iri ORDER BY iri DESC`, false, true},
		{"cypher", `MATCH (n:T) RETURN DISTINCT n.i AS i`, false, true},
		{"cypher", `MATCH (n:T) RETURN n.i AS i, count(*) AS c`, false, true},
		{"cypher", `MATCH (n:T) RETURN count(*) AS c`, false, false},
		{"sparql", `SELECT ?s WHERE { ?s a <http://x/T> }`, true, true},
		{"sparql", `SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(ISIRI(?o)) }`, true, true},
		{"sparql", `SELECT ?s WHERE { { ?s a <http://x/T> } UNION { ?s a <http://x/T> } } OFFSET 3`, true, true},
		{"sparql", `SELECT ?s WHERE { ?s a <http://x/T> } LIMIT 5`, true, false},
		{"sparql", `SELECT ?s WHERE { ?s a <http://x/T> } ORDER BY DESC(?s)`, false, true},
		{"sparql", `SELECT DISTINCT ?o WHERE { ?s a ?o }`, false, false},
		{"sparql", `SELECT (COUNT(*) AS ?c) WHERE { ?s a ?o }`, false, false},
		{"sparql", `ASK { ?s a ?o }`, true, false},
	}
	for _, c := range cases {
		full, err := Execute(qtest.NewPollCtx(0), snap, Request{Lang: c.lang, Query: c.query})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		ctx := qtest.NewPollCtx(0)
		capped, err := Execute(ctx, snap, Request{Lang: c.lang, Query: c.query, MaxRows: maxRows})
		if err != nil {
			t.Fatalf("%s: %v", c.query, err)
		}
		want := full.Rows()
		if len(want) > maxRows {
			want = want[:maxRows]
		}
		if !reflect.DeepEqual(capped.Rows(), want) || capped.Truncated != c.truncated {
			t.Errorf("%s: capped answer has %d rows (truncated=%v), want the first %d of %d (truncated=%v)",
				c.query, capped.Len(), capped.Truncated, len(want), full.Len(), c.truncated)
		}
		// Beyond the poll New makes, a scan of m candidates polls m/256 times.
		if early := ctx.Polls <= 3; early != c.early {
			t.Errorf("%s: %d polls under a cap of %d rows over %d candidates; stops early = %v, want %v",
				c.query, ctx.Polls, maxRows, m, early, c.early)
		}
	}
}
