package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/sparql"
)

// exportState captures the maintained outputs of a DeltaState.
func exportState(t *testing.T, s *core.DeltaState) (nodes, edges []byte, ddl string) {
	t.Helper()
	var nb, eb bytes.Buffer
	if err := s.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), eb.Bytes(), s.SchemaDDL()
}

// exportBaseline runs the from-scratch full transformation of the state's
// current graph in its mode — the byte-equality oracle every incremental step
// must match.
func exportBaseline(t *testing.T, s *core.DeltaState, mode core.Mode) (nodes, edges []byte, ddl string) {
	t.Helper()
	store, spg, err := core.Transform(s.Graph(), fixtures.UniversityShapes(), mode)
	if err != nil {
		t.Fatalf("baseline transform: %v", err)
	}
	var nb, eb bytes.Buffer
	if err := store.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), eb.Bytes(), pgschema.WriteDDL(spg)
}

func assertMatchesBaseline(t *testing.T, s *core.DeltaState, mode core.Mode, step string) {
	t.Helper()
	gotN, gotE, gotDDL := exportState(t, s)
	wantN, wantE, wantDDL := exportBaseline(t, s, mode)
	if !bytes.Equal(gotN, wantN) {
		t.Fatalf("%s: nodes.csv diverged from full re-transform\n got: %s\nwant: %s", step, gotN, wantN)
	}
	if !bytes.Equal(gotE, wantE) {
		t.Fatalf("%s: edges.csv diverged from full re-transform\n got: %s\nwant: %s", step, gotE, wantE)
	}
	if gotDDL != wantDDL {
		t.Fatalf("%s: schema DDL diverged from full re-transform\n got: %s\nwant: %s", step, gotDDL, wantDDL)
	}
}

func newUniversityState(t *testing.T) *core.DeltaState {
	t.Helper()
	s, err := core.NewDeltaState(fixtures.UniversityGraph(), fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustUpdate(t *testing.T, src string) *rdf.Delta {
	t.Helper()
	d, err := sparql.ParseUpdate(src)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

const exPrefix = "PREFIX ex: <http://example.org/univ#>\nPREFIX xsd: <http://www.w3.org/2001/XMLSchema#>\n"

func TestApplyDeltaInsertOnlyRidesFastPath(t *testing.T) {
	s := newUniversityState(t)
	d := mustUpdate(t, exPrefix+`INSERT DATA {
		ex:bob ex:dob "1999-02-03"^^xsd:date .
		ex:bob ex:takesCourse "Advanced Logic" .
		ex:alice ex:email "alice@example.org" .
	}`)
	pgd, err := s.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	if s.FastApplies() != 1 || s.Rebuilds() != 0 {
		t.Fatalf("fast=%d rebuilds=%d, want 1/0", s.FastApplies(), s.Rebuilds())
	}
	if string(pgd.Encode(nil)) == "{}" {
		t.Fatal("insert batch produced an empty PG delta")
	}
	// ex:email is uncovered by the shapes → the batch extends the schema.
	if pgd.SchemaDDL == "" || !strings.Contains(pgd.SchemaDDL, "email") {
		t.Fatalf("schema extension not reported: %q", pgd.SchemaDDL)
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "insert-only")
}

func TestApplyDeltaTypeInsertIsAppliedInPlace(t *testing.T) {
	s := newUniversityState(t)
	d := mustUpdate(t, exPrefix+`INSERT DATA {
		ex:carol a ex:Person, ex:Student ;
			ex:name "Carol" ;
			ex:regNo "Cs7" ;
			ex:advisedBy ex:alice .
	}`)
	if _, err := s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	// A type statement is hoisted into phase 1 of a full run; for a subject
	// new to the graph that only puts its node before the phase-2 nodes,
	// which the in-place path does by splicing it in there.
	if s.FastApplies() != 1 || s.Rebuilds() != 0 {
		t.Fatalf("fast=%d rebuilds=%d, want 1/0", s.FastApplies(), s.Rebuilds())
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "typed insert")

	// Typing a resource the graph already knows changes how its statements
	// are routed: that is still a rebuild.
	d = mustUpdate(t, exPrefix+`INSERT DATA { ex:DB a ex:Person . }`)
	if _, err := s.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if path, reason := s.LastPath(); s.Rebuilds() != 1 || path != "rebuild" || reason != "retyped_subject" {
		t.Fatalf("rebuilds=%d, served by %s (%s), want a retyped_subject rebuild", s.Rebuilds(), path, reason)
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "retyped")
}

func TestApplyDeltaDeleteHeavy(t *testing.T) {
	s := newUniversityState(t)
	d := mustUpdate(t, exPrefix+`DELETE DATA {
		ex:bob ex:takesCourse "Intro to Logic" .
		ex:bob ex:dob "1999"^^xsd:gYear .
		ex:AAU a ex:University .
		ex:AAU ex:name "Aalborg University" .
		ex:CS ex:partOf ex:AAU .
	}`)
	pgd, err := s.ApplyDelta(d)
	if err != nil {
		t.Fatal(err)
	}
	deletes := 0
	for _, nc := range pgd.Nodes {
		if nc.Op == core.OpDelete {
			deletes++
		}
	}
	if deletes == 0 {
		t.Fatalf("delete-heavy batch reported no node deletions: %+v", pgd.Nodes)
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "delete-heavy")
}

func TestApplyDeltaMixedChurnSequence(t *testing.T) {
	s := newUniversityState(t)
	steps := []string{
		// Mutate a property: delete + reinsert with a new value.
		exPrefix + `DELETE DATA { ex:alice ex:dob "1975-05-17"^^xsd:date . } ;
			INSERT DATA { ex:alice ex:dob "1975-05-18"^^xsd:date . }`,
		// Grow monotonically.
		exPrefix + `INSERT DATA { ex:DB ex:credits "10"^^xsd:integer . }`,
		// New entity plus edge rewiring in one batch.
		exPrefix + `DELETE DATA { ex:bob ex:advisedBy ex:alice . } ;
			INSERT DATA {
				ex:dave a ex:Person, ex:Faculty, ex:Professor ;
					ex:name "Dave" ;
					ex:worksFor ex:CS .
				ex:bob ex:advisedBy ex:dave .
			}`,
		// Delete an entity wholesale.
		exPrefix + `DELETE DATA {
			ex:DB a ex:Course . ex:DB a ex:GraduateCourse .
			ex:DB ex:name "Databases" . ex:DB ex:credits "10"^^xsd:integer .
			ex:bob ex:takesCourse ex:DB .
		}`,
		// Re-insert a previously deleted triple (lands at a new admission slot).
		exPrefix + `INSERT DATA { ex:bob ex:advisedBy ex:alice . }`,
	}
	for i, src := range steps {
		if _, err := s.ApplyDelta(mustUpdate(t, src)); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		assertMatchesBaseline(t, s, core.Parsimonious, src[:60])
	}
	if s.FastApplies() == 0 || s.Rebuilds() == 0 {
		t.Fatalf("churn sequence should exercise both paths: fast=%d rebuilds=%d", s.FastApplies(), s.Rebuilds())
	}
}

func TestApplyDeltaAnnotations(t *testing.T) {
	s := newUniversityState(t)
	// Insert a statement and an RDF-star annotation on it in one batch.
	ins := mustUpdate(t, exPrefix+`INSERT DATA {
		ex:carol a ex:Person ; ex:name "Carol" .
		ex:carol ex:knows ex:bob .
		<< ex:carol ex:knows ex:bob >> ex:since "2020"^^xsd:gYear .
	}`)
	if _, err := s.ApplyDelta(ins); err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "annotated insert")

	// With annotations present, even pure inserts must take the rebuild path
	// (the annotation pass does not commute with appended triples).
	rebuilds := s.Rebuilds()
	if _, err := s.ApplyDelta(mustUpdate(t, exPrefix+`INSERT DATA { ex:carol ex:age "30"^^xsd:integer . }`)); err != nil {
		t.Fatal(err)
	}
	if s.Rebuilds() != rebuilds+1 {
		t.Fatalf("insert with annotations present did not rebuild (rebuilds=%d)", s.Rebuilds())
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "insert under annotations")

	// Deleting the annotated statement while keeping the annotation orphans
	// it — the batch is refused and the state must roll back.
	gotN, gotE, gotDDL := exportState(t, s)
	before := s.Graph().Clone()
	_, err := s.ApplyDelta(mustUpdate(t, exPrefix+`DELETE DATA { ex:carol ex:knows ex:bob . }`))
	if err == nil || !strings.Contains(err.Error(), "but keeps its annotation") {
		t.Fatalf("orphaned annotation not rejected: %v", err)
	}
	if !s.Graph().Equal(before) {
		t.Fatal("rejected batch left the RDF graph changed")
	}
	n2, e2, ddl2 := exportState(t, s)
	if !bytes.Equal(gotN, n2) || !bytes.Equal(gotE, e2) || gotDDL != ddl2 {
		t.Fatal("rejected batch left the property graph changed")
	}

	// Deleting statement and annotation together is fine.
	if _, err := s.ApplyDelta(mustUpdate(t, exPrefix+`DELETE DATA {
		ex:carol ex:knows ex:bob .
		<< ex:carol ex:knows ex:bob >> ex:since "2020"^^xsd:gYear .
	}`)); err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, s, core.Parsimonious, "annotation removed")
}

func TestApplyDeltaRejectionsRollBackExactly(t *testing.T) {
	missing := exPrefix + `INSERT DATA { << ex:bob ex:advisedBy ex:zed >> ex:since "2020"^^xsd:gYear . }`
	note := exPrefix + `INSERT DATA { ex:bob ex:note "n1" . << ex:bob ex:note "n1" >> ex:certainty "0.1" . }`
	renote := exPrefix + `DELETE DATA { ex:bob ex:note "n1" } ; INSERT DATA { ex:bob ex:note "n2" . }`
	const noteKept = `core: delta rejected: core: the batch deletes the annotated statement <http://example.org/univ#bob> <http://example.org/univ#note> "n1" . ` +
		`but keeps its annotation << <http://example.org/univ#bob> <http://example.org/univ#note> "n1" >> <http://example.org/univ#certainty> "0.1" .`
	rows := []struct {
		name  string
		mode  core.Mode
		setup string // an accepted batch before the rejected one
		src   string
		want  string // the error; "" takes any
	}{
		{"typed quoted triple", core.Parsimonious, "", exPrefix + `INSERT DATA { << ex:bob ex:advisedBy ex:alice >> a ex:Claim . }`, ""},
		{"annotation of a missing statement", core.Parsimonious, "", missing, ""},
		{"annotation of a missing statement", core.NonParsimonious, "", missing, `core: delta rejected: core: annotated statement ` +
			`<http://example.org/univ#bob> <http://example.org/univ#advisedBy> <http://example.org/univ#zed> . is not realized as an edge (missing from the data)`},
		{"annotation with a language-tagged value", core.Parsimonious, "", exPrefix + `INSERT DATA { << ex:bob ex:advisedBy ex:alice >> ex:note "hi"@en . }`, ""},
		{"statement deleted under its kept annotation", core.Parsimonious, note, renote, noteKept},
		{"statement deleted under its kept annotation", core.NonParsimonious, note, renote, noteKept},
	}
	for _, row := range rows {
		t.Run(fmt.Sprintf("%s/%v", row.name, row.mode), func(t *testing.T) {
			s, err := core.NewDeltaState(fixtures.UniversityGraph(), fixtures.UniversityShapes(), row.mode)
			if err != nil {
				t.Fatal(err)
			}
			if row.setup != "" {
				if _, err := s.ApplyDelta(mustUpdate(t, row.setup)); err != nil {
					t.Fatal(err)
				}
			}
			gotN, gotE, _ := exportState(t, s)
			before := s.Graph().Clone()
			_, err = s.ApplyDelta(mustUpdate(t, row.src))
			if err == nil || row.want != "" && err.Error() != row.want {
				t.Fatalf("error %v\nwant %s", err, row.want)
			}
			if !s.Graph().Equal(before) {
				t.Fatal("the rejected batch left the RDF graph changed")
			}
			n2, e2, _ := exportState(t, s)
			if !bytes.Equal(gotN, n2) || !bytes.Equal(gotE, e2) {
				t.Fatal("the rejected batch left the property graph changed")
			}
			// The state is still usable after the rejection.
			if _, err := s.ApplyDelta(mustUpdate(t, exPrefix+`INSERT DATA { ex:alice ex:office "B2-201" . }`)); err != nil {
				t.Fatal(err)
			}
			assertMatchesBaseline(t, s, row.mode, "after the rejection")
		})
	}
}

func TestApplyDeltaNoopBatch(t *testing.T) {
	s := newUniversityState(t)
	n1, e1, ddl1 := exportState(t, s)
	// Deleting an absent triple and inserting a present one are both no-ops.
	pgd, err := s.ApplyDelta(mustUpdate(t, exPrefix+`
		DELETE DATA { ex:zed ex:name "Nobody" . } ;
		INSERT DATA { ex:alice ex:name "Alice" . }`))
	if err != nil {
		t.Fatal(err)
	}
	if got := string(pgd.Encode(nil)); got != "{}" {
		t.Fatalf("no-op batch produced changes: %s", got)
	}
	n2, e2, ddl2 := exportState(t, s)
	if !bytes.Equal(n1, n2) || !bytes.Equal(e1, e2) || ddl1 != ddl2 {
		t.Fatal("no-op batch changed the state")
	}
}

func TestApplyDeltaDeterministicDigest(t *testing.T) {
	src := exPrefix + `DELETE DATA { ex:bob ex:takesCourse "Intro to Logic" . } ;
		INSERT DATA { ex:bob ex:takesCourse "Modal Logic" . ex:eve a ex:Person ; ex:name "Eve" . }`
	digest := func() string {
		s := newUniversityState(t)
		pgd, err := s.ApplyDelta(mustUpdate(t, src))
		if err != nil {
			t.Fatal(err)
		}
		d, err := pgd.Digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if d1, d2 := digest(), digest(); d1 != d2 {
		t.Fatalf("same batch on same state produced different digests: %s vs %s", d1, d2)
	}
}

func TestApplyDeltaChangeStreamOps(t *testing.T) {
	s := newUniversityState(t)
	pgd, err := s.ApplyDelta(mustUpdate(t, exPrefix+`
		DELETE DATA { ex:alice ex:dob "1975-05-17"^^xsd:date . } ;
		INSERT DATA { ex:alice ex:dob "1980-01-01"^^xsd:date . }`))
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, nc := range pgd.Nodes {
		ops = append(ops, nc.Op+" "+nc.Key)
	}
	for _, ec := range pgd.Edges {
		ops = append(ops, ec.Op+" "+ec.From+" -["+ec.Label+"]-> "+ec.To)
	}
	joined := strings.Join(ops, "\n")
	// The old date's value node disappears (no other statement realizes it),
	// the new one appears, and the dob edge is rewired.
	for _, want := range []string{
		`delete v:l:"1975-05-17"`,
		`create v:l:"1980-01-01"`,
		"delete e:http://example.org/univ#alice -[dob]->",
		"create e:http://example.org/univ#alice -[dob]->",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("change stream missing %q:\n%s", want, joined)
		}
	}
	// Round trip through the wire encoding.
	var back core.PGDelta
	if err := json.Unmarshal(pgd.Encode(nil), &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Nodes) != len(pgd.Nodes) || len(back.Edges) != len(pgd.Edges) {
		t.Fatal("PGDelta did not round-trip")
	}
}

func TestApplyDeltaReplayIsExactlyOnceByDeterminism(t *testing.T) {
	// Replaying the same batch sequence from the same base state twice must
	// produce identical digests and identical final exports — the property
	// the WAL recovery path relies on for exactly-once application.
	batches := []string{
		exPrefix + `INSERT DATA { ex:bob ex:email "bob@example.org" . }`,
		exPrefix + `DELETE DATA { ex:bob ex:email "bob@example.org" . } ;
			INSERT DATA { ex:bob ex:email "rob@example.org" . }`,
		exPrefix + `INSERT DATA { ex:frank a ex:Person ; ex:name "Frank" . }`,
	}
	run := func() (digests []string, nodes, edges []byte) {
		s := newUniversityState(t)
		for _, src := range batches {
			pgd, err := s.ApplyDelta(mustUpdate(t, src))
			if err != nil {
				t.Fatal(err)
			}
			dg, err := pgd.Digest()
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, dg)
		}
		n, e, _ := exportState(t, s)
		return digests, n, e
	}
	d1, n1, e1 := run()
	d2, n2, e2 := run()
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("batch %d digest differs across replays", i)
		}
	}
	if !bytes.Equal(n1, n2) || !bytes.Equal(e1, e2) {
		t.Fatal("replay produced different exports")
	}
}

// TestUntypedSubjectSchemaRoundTrips: a live graph that receives a property
// of a not-yet-typed subject extends the schema with the label-less node type
// (and an edge type leaving it). The served schema.ddl must be readable by
// the repo's own parser, and the exports must invert to the live graph.
func TestUntypedSubjectSchemaRoundTrips(t *testing.T) {
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		s, err := core.NewDeltaState(fixtures.UniversityGraph(), fixtures.UniversityShapes(), mode)
		if err != nil {
			t.Fatal(err)
		}
		d := mustUpdate(t, exPrefix+`INSERT DATA {
			ex:stranger ex:email "who@example.org" .
			ex:stranger ex:knows ex:alice .
		}`)
		pd, err := s.ApplyDelta(d)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !strings.Contains(pd.SchemaDDL, "anonType") {
			t.Fatalf("%v: the update did not extend the schema with the label-less node type:\n%s", mode, pd.SchemaDDL)
		}
		spg, err := pgschema.ParseDDL(s.SchemaDDL())
		if err != nil {
			t.Fatalf("%v: ParseDDL of the served schema: %v\n%s", mode, err, s.SchemaDDL())
		}
		if again := pgschema.WriteDDL(spg); again != s.SchemaDDL() {
			t.Fatalf("%v: DDL does not round-trip byte for byte\n got: %s\nwant: %s", mode, again, s.SchemaDDL())
		}
		var nb, eb bytes.Buffer
		if err := s.WriteCSV(&nb, &eb); err != nil {
			t.Fatal(err)
		}
		store, err := pg.LoadCSV(&nb, &eb)
		if err != nil {
			t.Fatal(err)
		}
		back, err := core.InverseData(store, spg)
		if err != nil {
			t.Fatalf("%v: InverseData: %v", mode, err)
		}
		if !back.Equal(s.Graph()) {
			t.Fatalf("%v: inverse of the exports differs from the live graph", mode)
		}
	}
}
