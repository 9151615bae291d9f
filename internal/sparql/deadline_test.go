package sparql_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/s3pg/s3pg/internal/qtest"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/sparql"
)

// TestDeadlineInterruptsEveryOperator checks that no operator can outrun a
// deadline: each case is a query whose work is one operator kind's (m rows
// or candidates, counted in units of m), so the context must be polled in
// proportion — an operator that never ticks shows as too few polls — and a
// cancellation that lands mid-flight, or before the start, must end the
// evaluation with the context's error.
func TestDeadlineInterruptsEveryOperator(t *testing.T) {
	const m = 20000
	g := rdf.NewGraph()
	typ, val := rdf.NewIRI("http://x/T"), rdf.NewIRI("http://x/v")
	for i := 0; i < m; i++ {
		g.Add(rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://x/n%d", i)), typ, val))
	}
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/a"), val, rdf.NewLiteral("1")))
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/b"), val, rdf.NewLiteral("2")))

	cases := []struct {
		op    string
		units float64 // multiples of m rows or candidates the operators visit
		query string
	}{
		// One input row, m candidates: the scan itself has to tick.
		{"scan", 1, `SELECT ?s WHERE { ?s ?p ?s }`},
		{"scan", 1, `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`},
		// The join's inner scans: 2 outer rows, m candidates each.
		{"join", 2, `SELECT (COUNT(*) AS ?n) WHERE { ?x <http://x/v> ?l . ?s <http://x/T> ?o }`},
		// Three filters over the 2m solutions of a union of two scans (a
		// filter right behind a pattern would run inside its join).
		{"filter", 8, `SELECT ?s WHERE { { ?s <http://x/T> ?o } UNION { ?s <http://x/T> ?o } FILTER(ISIRI(?s)) FILTER(BOUND(?o)) FILTER(?o = <http://x/none>) }`},
		// A scan, then one OPTIONAL probe per row, twice.
		{"optional", 3, `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/T> ?o OPTIONAL { ?s <http://x/none> ?x } OPTIONAL { ?s <http://x/none> ?y } }`},
		{"union", 2, `SELECT (COUNT(*) AS ?n) WHERE { { ?s <http://x/T> ?o } UNION { ?s <http://x/T> ?o } }`},
		// Scan, projection, then the DISTINCT pass.
		{"distinct", 3, `SELECT DISTINCT ?o WHERE { ?s <http://x/T> ?o }`},
		// Scan, projection, key extraction, and at least m comparisons.
		{"order", 4, `SELECT ?s WHERE { ?s <http://x/T> ?o } ORDER BY DESC(?s)`},
		{"project", 2, `SELECT ?s ?o WHERE { ?s <http://x/T> ?o } LIMIT 5 OFFSET 19990`},
	}
	for _, c := range cases {
		q, err := sparql.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		// Uninterrupted: the operators poll as often as their work demands.
		count := qtest.NewPollCtx(0)
		if _, err := sparql.EvalCtx(count, g, q); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if min := int(0.9 * c.units * m / 256); count.Polls < min {
			t.Errorf("%s: %d polls over %v×%d units of work, want >= %d\n%s", c.op, count.Polls, c.units, m, min, c.query)
		}
		// Pre-cancelled, and cancelled half way through.
		for _, at := range []int{1, 1 + count.Polls/2} {
			_, err := sparql.EvalCtx(qtest.NewPollCtx(at), g, q)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled at poll %d of %d: err = %v\n%s", c.op, at, count.Polls, err, c.query)
			}
		}
	}
}
