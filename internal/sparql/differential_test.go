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

// errNoReference marks a query the reference evaluator panics on (it indexes
// a builtin's missing argument): there is no answer to compare with, and the
// executor only has to survive it.
var errNoReference = errors.New("reference evaluator panicked")

// evalBoth runs a query through the reference evaluator and the executor.
func evalBoth(g *rdf.Graph, q *sparql.Query) (want, got *sparql.Results, wantErr, gotErr error) {
	func() {
		defer func() {
			if recover() != nil {
				wantErr = errNoReference
			}
		}()
		want, wantErr = sparql.ReferenceEvalCtx(context.Background(), g, q)
	}()
	got, gotErr = sparql.EvalCtx(context.Background(), g, q)
	return
}

// diffResults reports the first difference between two outcomes: the same
// error/no-error outcome, the same Vars and the same row sequence.
func diffResults(want, got *sparql.Results, wantErr, gotErr error) string {
	if wantErr == errNoReference {
		return ""
	}
	if (wantErr != nil) != (gotErr != nil) {
		return fmt.Sprintf("error outcome: reference %v, executor %v", wantErr, gotErr)
	}
	if wantErr != nil {
		return ""
	}
	if fmt.Sprint(want.Vars) != fmt.Sprint(got.Vars) || len(want.Vars) != len(got.Vars) {
		return fmt.Sprintf("vars: reference %q, executor %q", want.Vars, got.Vars)
	}
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf("rows: reference %d, executor %d", len(want.Rows), len(got.Rows))
	}
	for i := range want.Rows {
		if len(want.Rows[i]) != len(got.Rows[i]) {
			return fmt.Sprintf("row %d width: reference %d, executor %d", i, len(want.Rows[i]), len(got.Rows[i]))
		}
		for j := range want.Rows[i] {
			if want.Rows[i][j] != got.Rows[i][j] {
				return fmt.Sprintf("row %d col %d: reference %v, executor %v", i, j, want.Rows[i][j], got.Rows[i][j])
			}
		}
	}
	return ""
}

// TestEvalMatchesReference holds the executor to the evaluator it replaced:
// the same outcome on the whole corpus, over every fixture, with the graph
// resident and spilled in three installments.
func TestEvalMatchesReference(t *testing.T) {
	for _, f := range qtest.Fixtures() {
		queries := append(qtest.SPARQL(f), sparql.ParseSeeds...)
		for _, variant := range []string{"resident", "spilled"} {
			if variant == "spilled" {
				var err error
				if f.Graph, err = qtest.SpillIn(f.Graph, 3, t.TempDir()); err != nil {
					t.Fatal(err)
				}
			}
			evaluated := 0
			for _, src := range queries {
				q, err := sparql.Parse(src)
				if err != nil {
					continue
				}
				evaluated++
				if d := diffResults(evalBoth(f.Graph, q)); d != "" {
					t.Errorf("%s/%s: %s\n%s", f.Name, variant, d, src)
				}
			}
			if evaluated < 80 {
				t.Errorf("%s/%s: only %d corpus queries parsed", f.Name, variant, evaluated)
			}
		}
	}
}

// FuzzEvalDifferential mutates corpus query texts and holds the executor to
// the reference evaluator on a small graph with every kind of term in it.
func FuzzEvalDifferential(f *testing.F) {
	dirty := qtest.Fixtures()[1]
	for _, s := range append(qtest.SPARQL(dirty), sparql.ParseSeeds...) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		q, err := sparql.Parse(src)
		if err != nil {
			return
		}
		if d := diffResults(evalBoth(dirty.Graph, q)); d != "" {
			t.Fatalf("%s\n%s", d, src)
		}
	})
}
