package core

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// goldenStreamFile pins the change stream across versions: a WAL records the
// digest of every PGDelta it applied, and a reopen replays the batches and
// checks each digest, so a change to the emitted bytes — however consistent
// between the apply paths of one build — breaks every spool written before
// it. The file holds what the build before the two apply paths shared one
// emitter wrote; it changes only together with a migration of the spools.
const goldenStreamFile = "testdata/pgdelta_stream.golden"

// goldenScript is a fixed sequence of batches over the University fixture:
// grow and churn applied in place, then one batch for each reason a batch
// can be rebuilt for (all but an apply error, which planning makes
// unreachable).
func goldenScript() []*rdf.Delta {
	logic := tr("bob", "takesCourse", lit("Intro to Logic"))
	since := rdf.NewTriple(rdf.MustTripleTerm(tr("bob", "advisedBy", univ("alice"))), univ("since"), rdf.NewTypedLiteral("2020", rdf.XSDGYear))
	return []*rdf.Delta{
		{Inserts: []rdf.Triple{tr("bob", "takesCourse", lit("Advanced Logic")), tr("bob", "name", lit("Robert")), tr("alice", "dob", lit("1999"))}},
		{Deletes: []rdf.Triple{logic, tr("bob", "name", lit("Bob"))}, Inserts: []rdf.Triple{
			tr("carol", "name", lit("Carol")), typeOf("carol", "Person"), typeOf("carol", "Student"),
			tr("carol", "advisedBy", univ("alice")), tr("bob", "advisedBy", univ("carol")),
		}},
		{Inserts: []rdf.Triple{tr("bob", "email", lit("bob@example.org"))}},
		{Inserts: []rdf.Triple{tr("bob", "email", lit("rob@example.org"))}},
		{Deletes: []rdf.Triple{tr("bob", "email", lit("bob@example.org"))}},            // schema_first_trigger
		{Inserts: []rdf.Triple{typeOf("DB", "Person")}},                                // retyped_subject
		{Inserts: []rdf.Triple{typeOf("zoe", "Ghost"), tr("zoe", "name", lit("Zoe"))}}, // schema_phase1_extension
		{Deletes: []rdf.Triple{typeOf("bob", "GraduateStudent")}},                      // type_delete
		{Inserts: []rdf.Triple{tr("s1", "email", lit("one@example.org"))}},
		{Inserts: []rdf.Triple{tr("s2", "email", lit("a@example.org")), tr("s1", "knows", univ("s2")), tr("s2", "email", lit("b@example.org"))}},
		{Deletes: []rdf.Triple{tr("s2", "email", lit("a@example.org"))}}, // untyped_subject
		{Inserts: []rdf.Triple{since}},                                   // annotation
		{Deletes: []rdf.Triple{tr("alice", "dob", lit("1999"))}, Inserts: []rdf.Triple{tr("alice", "dob", lit("2000"))}},
		{Deletes: []rdf.Triple{since}},
	}
}

// goldenStream runs the script in both modes, then grow and churn batches
// over a small generated graph, and returns the encoded deltas one a line.
// served counts the batches by how they were applied.
func goldenStream(t testing.TB, served map[string]int) []byte {
	var out bytes.Buffer
	emit := func(s *DeltaState, d *rdf.Delta, step string) {
		pd, err := s.ApplyDelta(d)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		path, reason := s.LastPath()
		served[path+" "+reason]++
		out.Write(pd.Encode(nil))
		out.WriteByte('\n')
	}
	for _, mode := range []Mode{Parsimonious, NonParsimonious} {
		s, err := NewDeltaState(fixtures.UniversityGraph(), fixtures.UniversityShapes(), mode)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range goldenScript() {
			emit(s, d, fmt.Sprintf("%v batch %d", mode, i))
		}
	}
	p := datagen.DBpedia2022()
	g := datagen.Generate(p, 0.00004, 7)
	s, err := NewDeltaState(g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}), NonParsimonious)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		var d *rdf.Delta
		switch i % 3 {
		case 0:
			d = &rdf.Delta{Inserts: datagen.Evolve(s.g, p, 0.004, int64(i)).Triples()}
		default:
			d = datagen.EvolveChurn(s.g, p, datagen.Churn{AddFrac: 0.003, DeleteFrac: 0.002, MutateFrac: 0.002}, int64(i))
			if i%3 == 1 {
				d.Deletes = withoutTypes(d.Deletes)
			}
		}
		emit(s, d, fmt.Sprintf("generated batch %d", i))
	}
	return out.Bytes()
}

// TestPGDeltaGoldenStream holds the change stream to the bytes the file
// pins, line for line.
func TestPGDeltaGoldenStream(t *testing.T) {
	want, err := os.ReadFile(filepath.FromSlash(goldenStreamFile))
	if err != nil {
		t.Fatal(err)
	}
	served := make(map[string]int)
	got := goldenStream(t, served)
	for _, reason := range []string{"in_place ", "rebuild " + reasonAnnotation, "rebuild " + reasonTypeDelete,
		"rebuild " + reasonRetyped, "rebuild " + reasonFirstTrigger, "rebuild " + reasonPhase1Schema,
		"rebuild " + reasonUntyped} {
		if served[reason] == 0 {
			t.Errorf("no batch of the script was served by %q: %v", reason, served)
		}
	}
	gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gl) || i < len(wl); i++ {
		switch {
		case i >= len(gl):
			t.Fatalf("line %d: the stream ends, the file goes on with %s", i+1, wl[i])
		case i >= len(wl):
			t.Fatalf("line %d: the file ends, the stream goes on with %s", i+1, gl[i])
		case !bytes.Equal(gl[i], wl[i]):
			t.Fatalf("line %d differs\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
}
