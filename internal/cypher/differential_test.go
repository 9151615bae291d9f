package cypher_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/qtest"
)

// errNoReference marks a query the reference evaluator panics on (it indexes
// a builtin's missing argument): there is no answer to compare with, and the
// executor only has to survive it.
var errNoReference = errors.New("reference evaluator panicked")

// evalBoth runs a query through the reference evaluator and the executor.
func evalBoth(store *pg.Store, q *cypher.Query, params map[string]pg.Value) (want, got *cypher.Results, wantErr, gotErr error) {
	opt := cypher.EvalOptions{Params: params}
	func() {
		defer func() {
			if recover() != nil {
				wantErr = errNoReference
			}
		}()
		want, wantErr = cypher.ReferenceEvalWith(store, q, opt)
	}()
	got, gotErr = cypher.EvalWith(store, q, opt)
	return
}

// diffResults reports the first difference between two outcomes: the same
// error/no-error outcome, the same Cols and the same row sequence.
func diffResults(want, got *cypher.Results, wantErr, gotErr error) string {
	if wantErr == errNoReference {
		return ""
	}
	if (wantErr != nil) != (gotErr != nil) {
		return fmt.Sprintf("error outcome: reference %v, executor %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	if len(want.Cols) != len(got.Cols) || fmt.Sprint(want.Cols) != fmt.Sprint(got.Cols) {
		return fmt.Sprintf("cols: reference %q, executor %q", want.Cols, got.Cols)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("rows: reference %d, executor %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			return fmt.Sprintf("row %d width: reference %d, executor %d", i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if !reflect.DeepEqual(want.Rows[i][j], got.Rows[i][j]) {
				return fmt.Sprintf("row %d col %d: reference %#v, executor %#v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
	return ""
}

var params = map[string]pg.Value{"who": "Alice", "min": int64(20), "tag": "t", "p": 2.5}

// corpus is the fixture's queries plus the parser seeds and, for the fixture
// F_qt's tests run over, the translations of their inputs.
func corpus(t *testing.T, f qtest.Fixture) []qtest.CypherQuery {
	qs := qtest.Cypher(f)
	for _, s := range cypher.ParseSeeds {
		qs = append(qs, qtest.CypherQuery{Text: s, Params: params})
	}
	if f.Name == "university" {
		_, spg, err := f.Transform(core.Parsimonious)
		if err != nil {
			t.Fatal(err)
		}
		for _, in := range qtest.TranslateInputs {
			out, err := core.TranslateQuery(in, spg)
			if err != nil {
				t.Fatalf("translate %q: %v", in, err)
			}
			qs = append(qs, qtest.CypherQuery{Text: out})
		}
	}
	return qs
}

// TestEvalMatchesReference holds the executor to the evaluator it replaced:
// the same outcome on the whole corpus, over every fixture's store in both
// transformation modes.
func TestEvalMatchesReference(t *testing.T) {
	for _, f := range qtest.Fixtures() {
		queries := corpus(t, f)
		for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
			store, _, err := f.Transform(mode)
			if err != nil {
				t.Fatal(err)
			}
			evaluated := 0
			for _, cq := range queries {
				q, err := cypher.Parse(cq.Text)
				if err != nil {
					continue
				}
				evaluated++
				if d := diffResults(evalBoth(store, q, cq.Params)); d != "" {
					t.Errorf("%s/%v: %s\n%s", f.Name, mode, d, cq.Text)
				}
			}
			if evaluated < 100 {
				t.Errorf("%s/%v: only %d corpus queries parsed", f.Name, mode, evaluated)
			}
		}
	}
}

// FuzzEvalDifferential mutates corpus query texts and holds the executor to
// the reference evaluator on a small store with every kind of value in it.
func FuzzEvalDifferential(f *testing.F) {
	dirty := qtest.Fixtures()[1]
	store, _, err := dirty.Transform(core.Parsimonious)
	if err != nil {
		f.Fatal(err)
	}
	for _, cq := range qtest.Cypher(dirty) {
		f.Add(cq.Text)
	}
	for _, s := range cypher.ParseSeeds {
		f.Add(s)
	}
	p := map[string]pg.Value{"iri": dirty.Subject()}
	for k, v := range params {
		p[k] = v
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		q, err := cypher.Parse(src)
		if err != nil {
			return
		}
		if d := diffResults(evalBoth(store, q, p)); d != "" {
			t.Fatalf("%s\n%s", d, src)
		}
	})
}

// TestSharedIRIFallsBackToScan covers the store S3PG never builds: two nodes
// under one iri. WHERE n.iri = … promises both, which the first-writer-wins
// index cannot give, so the executor must notice and scan as the reference
// evaluator does.
func TestSharedIRIFallsBackToScan(t *testing.T) {
	store := pg.NewStore()
	a := store.AddNode(nil, map[string]pg.Value{"iri": "http://x/a", "n": int64(1)})
	store.AddNode([]string{"T"}, map[string]pg.Value{"iri": "http://x/a", "n": int64(2)})
	moved := store.AddNode(nil, map[string]pg.Value{"iri": "http://x/b", "n": int64(3)})
	store.SetProp(moved.ID, "iri", "http://x/a")
	store.AddEdge(a.ID, moved.ID, "r", nil)
	if store.IRIUnique() {
		t.Fatal("store with a shared iri reports IRIUnique")
	}
	for _, st := range []*pg.Store{store, store.Clone()} {
		for _, c := range []struct {
			text string
			rows int
		}{
			{`MATCH (n) WHERE n.iri = $iri RETURN n.n AS n`, 3},
			{`MATCH (n) WHERE "http://x/a" = n.iri RETURN n.n AS n`, 3},
			{`MATCH (n)-[:r]->(m) WHERE m.iri = $iri RETURN n.n AS n, m.n AS m`, 1},
			{`MATCH (n) WHERE n.iri = "http://x/b" RETURN n.n AS n`, 0},
		} {
			q, err := cypher.Parse(c.text)
			if err != nil {
				t.Fatal(err)
			}
			want, got, wantErr, gotErr := evalBoth(st, q, map[string]pg.Value{"iri": "http://x/a"})
			if d := diffResults(want, got, wantErr, gotErr); d != "" {
				t.Errorf("%s\n%s", d, c.text)
			} else if gotErr != nil || len(got.Rows) != c.rows {
				t.Errorf("%s: %d rows (err %v), want %d", c.text, len(got.Rows), gotErr, c.rows)
			}
		}
	}
}
