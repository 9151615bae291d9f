package cypher_test

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/qtest"
)

// TestDeadlineInterruptsEveryOperator checks that no operator can outrun a
// deadline: each case is a query whose work is one operator kind's (m rows
// or candidates, counted in units of m), so the context must be polled in
// proportion — an operator that never ticks shows as too few polls — and a
// cancellation that lands mid-flight, or before the start, must end the
// evaluation with the context's error.
func TestDeadlineInterruptsEveryOperator(t *testing.T) {
	const m = 20000
	store := pg.NewStore()
	hub := store.AddNode([]string{"Hub"}, nil)
	for i := 0; i < m; i++ {
		n := store.AddNode([]string{"T"}, map[string]pg.Value{"iri": fmt.Sprintf("http://x/n%d", i), "i": int64(i % 97)})
		store.AddEdge(hub.ID, n.ID, "spoke", nil)
	}
	empties := make([]pg.Value, m)
	for i := range empties {
		empties[i] = []pg.Value{}
	}
	params := map[string]pg.Value{"empties": empties}

	cases := []struct {
		op    string
		units float64 // multiples of m rows or candidates the operators visit
		query string
	}{
		// One input row, m candidates that all fail the filter.
		{"node scan", 1, `MATCH (n) WHERE n.nope = 1 RETURN n`},
		{"label scan", 1, `MATCH (n:T {nope: 1}) RETURN n`},
		{"expand", 1, `MATCH (h:Hub)-[:spoke]->(n) WHERE n.nope = 1 RETURN n`},
		// m items out of one row, then m rows that each unwind to nothing.
		{"unwind", 2, `UNWIND $empties AS a UNWIND a AS b RETURN b`},
		// A scan, then one failing probe per row.
		{"optional", 2, `MATCH (n:T) OPTIONAL MATCH (n)-[:none]->(x) RETURN count(*)`},
		{"project", 2, `MATCH (n:T) RETURN n.iri`},
		{"aggregate", 2, `MATCH (n:T) RETURN n.i, count(*)`},
		// Scan, projection, then the DISTINCT pass.
		{"distinct", 3, `MATCH (n:T) RETURN DISTINCT n.i`},
		// Two scans and projections, then the dedupe pass over both.
		{"union", 6, `MATCH (n:T) RETURN n.i UNION MATCH (n:T) RETURN n.i`},
		// Scan, projection, key extraction, and at least m comparisons.
		{"order", 4, `MATCH (n:T) RETURN n.iri AS iri ORDER BY iri DESC`},
	}
	for _, c := range cases {
		q, err := cypher.Parse(c.query)
		if err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		eval := func(ctx context.Context) error {
			_, err := cypher.EvalWith(store, q, cypher.EvalOptions{Ctx: ctx, Params: params})
			return err
		}
		// Uninterrupted: the operators poll as often as their work demands.
		count := qtest.NewPollCtx(0)
		if err := eval(count); err != nil {
			t.Fatalf("%s: %v", c.op, err)
		}
		if min := int(0.9 * c.units * m / 256); count.Polls < min {
			t.Errorf("%s: %d polls over %v×%d units of work, want >= %d\n%s", c.op, count.Polls, c.units, m, min, c.query)
		}
		// Pre-cancelled, and cancelled half way through.
		for _, at := range []int{1, 1 + count.Polls/2} {
			if err := eval(qtest.NewPollCtx(at)); !errors.Is(err, context.Canceled) {
				t.Errorf("%s: cancelled at poll %d of %d: err = %v\n%s", c.op, at, count.Polls, err, c.query)
			}
		}
	}
}
