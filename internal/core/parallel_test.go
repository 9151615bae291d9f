package core_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// outputs is what the CLI commits for a transformer — nodes.csv, edges.csv
// and schema.ddl, byte for byte — plus its degradation tally.
type outputs struct {
	nodes, edges []byte
	ddl          string
	degraded     int64
}

func outputsOf(t *testing.T, tr *core.Transformer) outputs {
	t.Helper()
	var nb, eb bytes.Buffer
	if err := tr.Store().WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return outputs{nb.Bytes(), eb.Bytes(), pgschema.WriteDDL(tr.Schema()), tr.DegradedCount()}
}

// outputsAt runs the full pipeline at the given worker count. Equal outputs
// at every worker count is the determinism contract of the parallel
// transform.
func outputsAt(t *testing.T, g *rdf.Graph, mode core.Mode, lenient bool, workers int) outputs {
	t.Helper()
	tr, err := core.TransformWith(context.Background(), g, fixtures.UniversityShapes(), mode, nil,
		core.TransformOptions{Lenient: lenient, Workers: workers})
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
	}
	return outputsOf(t, tr)
}

func requireSameOutputs(t *testing.T, want, got outputs, label string) {
	t.Helper()
	if want.ddl != got.ddl {
		t.Fatalf("%s: DDL differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", label, want.ddl, got.ddl)
	}
	if !bytes.Equal(want.nodes, got.nodes) {
		t.Fatalf("%s: nodes.csv differs (%d vs %d bytes)", label, len(want.nodes), len(got.nodes))
	}
	if !bytes.Equal(want.edges, got.edges) {
		t.Fatalf("%s: edges.csv differs (%d vs %d bytes)", label, len(want.edges), len(got.edges))
	}
	if want.degraded != got.degraded {
		t.Fatalf("%s: degraded tally %d, want %d", label, got.degraded, want.degraded)
	}
}

// dirtyUniversityGraph is the university graph plus one instance of every
// degradation class the lenient policy handles, plus RDF-star annotations and
// assorted literal shapes, so the parallel commit is exercised on every
// branch of Algorithm 1.
func dirtyUniversityGraph(t *testing.T) *rdf.Graph {
	t.Helper()
	g := fixtures.UniversityGraph()
	name := rdf.NewIRI(fixtures.ExNS + "name")
	// Untyped subject → generic rdfs:Resource label.
	g.Add(rdf.NewTriple(fixtures.Ex("mystery"), name, rdf.NewLiteral("Mystery")))
	// Literal rdf:type object → coerced to a property statement.
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), rdf.A, rdf.NewLiteral("Person")))
	// Typed quoted triple → skipped.
	qt, err := rdf.NewTripleTerm(rdf.NewTriple(fixtures.Ex("bob"), name, rdf.NewLiteral("Bob")))
	if err != nil {
		t.Fatal(err)
	}
	g.Add(rdf.NewTriple(qt, rdf.A, fixtures.Ex("Statement")))
	// Resource object never declared as an entity → resource value node.
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), rdf.NewIRI(fixtures.ExNS+"homepage"), rdf.NewIRI("http://bob.example.org/")))
	// Duplicate value literals across subjects → value-node dedup.
	seen := rdf.NewIRI(fixtures.ExNS + "motto")
	for i := 0; i < 8; i++ {
		g.Add(rdf.NewTriple(fixtures.Ex(fmt.Sprintf("extra%d", i)), rdf.A, fixtures.Ex("Person")))
		g.Add(rdf.NewTriple(fixtures.Ex(fmt.Sprintf("extra%d", i)), seen, rdf.NewLangLiteral("per aspera", "la")))
		g.Add(rdf.NewTriple(fixtures.Ex(fmt.Sprintf("extra%d", i)), rdf.NewIRI(fixtures.ExNS+"age"),
			rdf.NewTypedLiteral("041", rdf.XSDInteger))) // non-canonical lexical
	}
	// RDF-star annotation on an existing statement.
	if base := g.Triples(); true {
		for _, tr := range base {
			if tr.P == name && !tr.S.IsTripleTerm() {
				key, kerr := rdf.NewTripleTerm(tr)
				if kerr != nil {
					continue
				}
				g.Add(rdf.NewTriple(key, rdf.NewIRI(fixtures.ExNS+"certainty"),
					rdf.NewTypedLiteral("0.9", rdf.XSDDecimal)))
				break
			}
		}
	}
	return g
}

func TestApplyParallelDeterministicCleanGraph(t *testing.T) {
	g := fixtures.UniversityGraph()
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		want := outputsAt(t, g, mode, false, 1)
		for _, workers := range []int{2, 8} {
			got := outputsAt(t, g, mode, false, workers)
			requireSameOutputs(t, want, got, fmt.Sprintf("mode=%v workers=%d", mode, workers))
		}
	}
}

func TestApplyParallelDeterministicDirtyGraph(t *testing.T) {
	g := dirtyUniversityGraph(t)
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		want := outputsAt(t, g, mode, true, 1)
		for _, workers := range []int{2, 8} {
			got := outputsAt(t, g, mode, true, workers)
			requireSameOutputs(t, want, got, fmt.Sprintf("dirty mode=%v workers=%d", mode, workers))
		}
	}
}

// TestApplyParallelIncrementalMixedWorkers applies the graph in two chunks
// with different worker counts per chunk and checks the final state matches a
// fully sequential two-chunk run — the monotone incremental transformation
// must be oblivious to how each increment was parallelized.
func TestApplyParallelIncrementalMixedWorkers(t *testing.T) {
	full := dirtyUniversityGraph(t)
	all := full.Triples()
	half := len(all) / 2

	build := func(w1, w2 int) outputs {
		t.Helper()
		tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
		if err != nil {
			t.Fatal(err)
		}
		tr.SetLenient(true)
		dict := rdf.NewDict()
		g1 := rdf.NewGraphWithDict(dict)
		for _, x := range all[:half] {
			g1.Add(x)
		}
		g2 := rdf.NewGraphWithDict(dict)
		for _, x := range all[half:] {
			g2.Add(x)
		}
		if err := tr.ApplyParallel(context.Background(), g1, w1, nil); err != nil {
			t.Fatal(err)
		}
		if err := tr.ApplyParallel(context.Background(), g2, w2, nil); err != nil {
			t.Fatal(err)
		}
		return outputsOf(t, tr)
	}

	want := build(1, 1)
	for _, wk := range [][2]int{{8, 1}, {1, 8}, {4, 4}} {
		got := build(wk[0], wk[1])
		requireSameOutputs(t, want, got, fmt.Sprintf("chunks at workers %d then %d", wk[0], wk[1]))
	}
}

// TestApplyParallelStrictErrorsMatch checks the parallel path fails on the
// same statement with the same error text as the sequential path.
func TestApplyParallelStrictErrorsMatch(t *testing.T) {
	cases := map[string]func(*rdf.Graph){
		"literal_type": func(g *rdf.Graph) {
			g.Add(rdf.NewTriple(fixtures.Ex("bob"), rdf.A, rdf.NewLiteral("Person")))
		},
		"typed_quoted_triple": func(g *rdf.Graph) {
			qt, _ := rdf.NewTripleTerm(rdf.NewTriple(fixtures.Ex("bob"), rdf.NewIRI(fixtures.ExNS+"name"), rdf.NewLiteral("Bob")))
			g.Add(rdf.NewTriple(qt, rdf.A, fixtures.Ex("Statement")))
		},
	}
	for name, poison := range cases {
		g := fixtures.UniversityGraph()
		poison(g)
		_, err1 := core.TransformWith(context.Background(), g, fixtures.UniversityShapes(), core.Parsimonious, nil,
			core.TransformOptions{Workers: 1})
		_, err8 := core.TransformWith(context.Background(), g, fixtures.UniversityShapes(), core.Parsimonious, nil,
			core.TransformOptions{Workers: 8})
		if err1 == nil || err8 == nil {
			t.Fatalf("%s: expected both to fail, got %v / %v", name, err1, err8)
		}
		if err1.Error() != err8.Error() {
			t.Fatalf("%s: error texts differ:\nsequential: %v\nparallel:   %v", name, err1, err8)
		}
	}
}

func TestApplyParallelCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.ApplyParallel(ctx, fixtures.UniversityGraph(), 4, nil); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestApplyParallelAnnotationsAcrossChunks: the annotated statements and
// their annotations arrive in different ApplyParallel calls at different
// worker counts; the second call's annotations find the first call's edges
// whatever parallelism made them, and the result is the sequential one-shot
// run's, byte for byte.
func TestApplyParallelAnnotationsAcrossChunks(t *testing.T) {
	var statements, annotations []rdf.Triple
	starGraph(t).ForEach(func(tr rdf.Triple) bool {
		if tr.S.IsTripleTerm() {
			annotations = append(annotations, tr)
		} else {
			statements = append(statements, tr)
		}
		return true
	})
	want := outputsAt(t, starGraph(t), core.Parsimonious, false, 1)
	for _, wk := range [][2]int{{1, 4}, {4, 1}, {2, 2}, {4, 4}} {
		tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
		if err != nil {
			t.Fatal(err)
		}
		for i, chunk := range [][]rdf.Triple{statements, annotations} {
			g := rdf.NewGraph()
			for _, x := range chunk {
				g.Add(x)
			}
			if err := tr.ApplyParallel(context.Background(), g, wk[i], nil); err != nil {
				t.Fatal(err)
			}
		}
		requireSameOutputs(t, want, outputsOf(t, tr), fmt.Sprintf("statements at %d workers, annotations at %d", wk[0], wk[1]))
	}
}

// TestRouteCacheInvisible: a transformer routes each (label set, predicate)
// pair once, keeps the routing across Apply calls and writes the store by
// pg.Sym after. Routing every statement in an Apply call of its own, with the
// caches dropped before each — so nothing is reused from one statement to
// the next — must give the same bytes: the cache is only ever an earlier
// answer to the same question, dropped when the mapping moves. The input leaves most classes and predicates uncovered (fallback
// routes whose targets grow), sends KV-routed properties down their escape
// edges after KV writes, has untyped subjects, and has a fallback route for
// (Person, regNo) take over, mid-stream, the pair (Person+Student, regNo)
// that had been routed to Student's key.
func TestRouteCacheInvisible(t *testing.T) {
	g := fixtures.UniversityGraph()
	extra, err := rio.LoadNTriples(strings.NewReader(`
<http://example.org/univ#carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Student> .
<http://example.org/univ#carol> <http://example.org/univ#name> "Carol" .
<http://example.org/univ#carol> <http://example.org/univ#name> "Caroline"@en .
<http://example.org/univ#carol> <http://example.org/univ#regNo> "007"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://example.org/univ#carol> <http://example.org/univ#hobby> <http://example.org/univ#chess> .
<http://example.org/univ#carol> <http://example.org/univ#hobby> "go" .
<http://example.org/univ#carol> <http://example.org/univ#hobby> <http://example.org/univ#alice> .
<http://example.org/univ#bob> <http://example.org/univ#hobby> <http://example.org/univ#DB> .
<http://example.org/univ#dan> <http://example.org/univ#knows> <http://example.org/univ#carol> .
<http://example.org/univ#dan> <http://example.org/univ#name> "Dan" .
<http://example.org/univ#carol> <http://example.org/univ#hobby> <http://example.org/univ#dan> .
<http://example.org/univ#erin> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Person> .
<http://example.org/univ#erin> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Student> .
<http://example.org/univ#frank> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Person> .
<http://example.org/univ#erin> <http://example.org/univ#regNo> "E1" .
<http://example.org/univ#frank> <http://example.org/univ#regNo> "F1" .
<http://example.org/univ#erin> <http://example.org/univ#regNo> "E2" .
`))
	if err != nil {
		t.Fatal(err)
	}
	extra.ForEach(func(tr rdf.Triple) bool { g.Add(tr); return true })
	datagen.Generate(datagen.Profiles()["DBpedia2022"], 0.0001, 3).ForEach(func(tr rdf.Triple) bool { g.Add(tr); return true })

	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		for _, lenient := range []bool{false, true} {
			label := fmt.Sprintf("mode=%v lenient=%v", mode, lenient)
			whole, err := core.NewTransformer(fixtures.UniversityShapes(), mode)
			if err != nil {
				t.Fatal(err)
			}
			whole.SetLenient(lenient)
			wholeErr := whole.Apply(g)

			// The type statements first, as phase 1 takes them, then every
			// other statement alone, in admission order.
			each, err := core.NewTransformer(fixtures.UniversityShapes(), mode)
			if err != nil {
				t.Fatal(err)
			}
			each.SetLenient(lenient)
			types, rest := rdf.NewGraph(), []rdf.Triple{}
			g.ForEach(func(tr rdf.Triple) bool {
				if tr.P == rdf.A {
					types.Add(tr)
				} else {
					rest = append(rest, tr)
				}
				return true
			})
			eachErr := each.Apply(types)
			for _, tr := range rest {
				if eachErr != nil {
					break
				}
				one := rdf.NewGraph()
				one.Add(tr)
				each.ForgetRoutes()
				eachErr = each.Apply(one)
			}
			if (wholeErr == nil) != (eachErr == nil) || wholeErr != nil && wholeErr.Error() != eachErr.Error() {
				t.Fatalf("%s: one Apply: %v; an Apply per statement: %v", label, wholeErr, eachErr)
			}
			if wholeErr == nil {
				requireSameOutputs(t, outputsOf(t, each), outputsOf(t, whole), label)
			}
		}
	}
}
