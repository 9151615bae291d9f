package jobs

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// transformOutputs is what `s3pg data` writes for shapes and data: the whole
// graph through core.TransformWith, then the CSV export and the DDL.
func transformOutputs(t *testing.T, shapes, data string) map[string][]byte {
	t.Helper()
	sg, err := shacl.FromGraph(fixtures.MustParseTurtle(shapes))
	if err != nil {
		t.Fatal(err)
	}
	g, err := rio.LoadNTriples(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.TransformWith(context.Background(), g, sg, core.Parsimonious, nil, core.TransformOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var nodes, edges bytes.Buffer
	if err := tr.Store().WriteCSV(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		nodesFile:  nodes.Bytes(),
		edgesFile:  edges.Bytes(),
		schemaFile: []byte(pgschema.WriteDDL(tr.Schema())),
	}
}

func ntriples(t *testing.T, triples []rdf.Triple) string {
	t.Helper()
	g := rdf.NewGraph()
	for _, x := range triples {
		g.Add(x)
	}
	var b bytes.Buffer
	if err := rio.WriteNTriples(&b, g); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// dbpediaDataset is a small DBpedia2022 graph — the profile of batch_seq's
// input — with its extracted shapes, the statements of the first subject
// whose data extends the schema F_st built moved to the front.
func dbpediaDataset(t *testing.T) (shapes, data string) {
	t.Helper()
	g := datagen.Generate(datagen.DBpedia2022(), 0.0001, 1)
	var sb bytes.Buffer
	tw := rio.NewTurtleWriter()
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(&sb, shacl.ToGraph(shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}))); err != nil {
		t.Fatal(err)
	}
	shapes, data = sb.String(), ntriples(t, g.Triples())
	lines := strings.SplitAfter(data, "\n")
	k := sort.Search(len(lines), func(n int) bool { return schemaExtendedBy(t, shapes, data, n) })
	if k == len(lines) {
		t.Fatal("DBpedia2022 data no longer extends its extracted schema")
	}
	subject := strings.Fields(lines[k-1])[0] + " "
	var front, rest []string
	for _, l := range lines {
		if strings.HasPrefix(l, subject) {
			front = append(front, l)
		} else {
			rest = append(rest, l)
		}
	}
	return shapes, strings.Join(append(front, rest...), "")
}

// schemaExtendedBy reports whether applying the first n statements of data
// grows the PG-Schema F_st derives from shapes.
func schemaExtendedBy(t *testing.T, shapes, data string, n int) bool {
	t.Helper()
	sg, err := shacl.FromGraph(fixtures.MustParseTurtle(shapes))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := core.NewTransformer(sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	before := pgschema.WriteDDL(tr.Schema())
	lines := strings.SplitAfter(data, "\n")
	prefix, err := rio.LoadNTriples(strings.NewReader(strings.Join(lines[:min(n, len(lines))], "")))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(prefix); err != nil {
		t.Fatal(err)
	}
	return pgschema.WriteDDL(tr.Schema()) != before
}

// annotationFirstDataset is the university fixture plus one statement it
// lacks, with an RDF-star annotation of that statement written 64+
// statements before it.
func annotationFirstDataset(t *testing.T) string {
	t.Helper()
	stmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("DB"))
	triples := []rdf.Triple{rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("since"),
		rdf.NewTypedLiteral("2021", rdf.XSDInteger))}
	triples = append(triples, fixtures.UniversityGraph().Triples()...)
	for i := 0; len(triples) <= 64; i++ {
		p := fixtures.Ex(fmt.Sprintf("extra%d", i))
		triples = append(triples, rdf.NewTriple(p, rdf.A, fixtures.Ex("Person")),
			rdf.NewTriple(p, fixtures.Ex("name"), rdf.NewLiteral(fmt.Sprintf("Extra %d", i))))
	}
	return ntriples(t, append(triples, stmt))
}

// TestJobOutputsEqualTransformWith: a finished job's outputs are the bytes
// `s3pg data` writes for the same input — whatever the input does to the
// schema, wherever its annotations sit, and however often the job was
// drained and rerun.
func TestJobOutputsEqualTransformWith(t *testing.T) {
	uniShapes, uniData := fixtures.UniversityShapesTurtle, ntriples(t, fixtures.UniversityGraph().Triples())
	dbpShapes, dbpData := dbpediaDataset(t)
	if !schemaExtendedBy(t, dbpShapes, dbpData, 64) {
		t.Fatal("the DBpedia2022 row's first 64 statements no longer extend the schema")
	}
	genShapes, genData := testDataset()
	for _, tc := range []struct {
		name         string
		shapes, data string
		drain        bool
	}{
		{"university fixture", uniShapes, uniData, false},
		{"DBpedia2022 whose first 64 statements extend the schema", dbpShapes, dbpData, false},
		{"annotation 64+ statements before its statement", uniShapes, annotationFirstDataset(t), false},
		{"a drained job requeues, and its rerun is byte-identical", genShapes, genData, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := transformOutputs(t, tc.shapes, tc.data)
			cfg := testConfig(t)
			cfg.Workers = 1
			blocked, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			if tc.drain {
				cfg.BeforeRun = func(string) {
					once.Do(func() {
						close(blocked)
						<-release
					})
				}
			}
			m, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			j, err := m.Submit(Spec{}, tc.shapes, tc.data)
			if err != nil {
				t.Fatal(err)
			}
			if tc.drain {
				// Drain underneath the running job, then let it run into the
				// canceled context: it goes back on the queue, and a fresh
				// Manager over the same spool runs it again.
				<-blocked
				drained := make(chan error, 1)
				go func() { drained <- m.Drain(context.Background()) }()
				for !m.Stats().Draining {
					time.Sleep(time.Millisecond)
				}
				close(release)
				if err := <-drained; err != nil {
					t.Fatal(err)
				}
				got, err := m.Get(j.ID)
				if err != nil {
					t.Fatal(err)
				}
				if last := got.Timeline[len(got.Timeline)-1]; got.State != StateQueued || last.Note != "drain" {
					t.Fatalf("drained job: state %s, last event %+v (%s)", got.State, last, got.Error)
				}
				cfg.BeforeRun = nil
				m = mustOpen(t, cfg)
			} else {
				t.Cleanup(func() { m.Close() })
			}
			if got := waitTerminal(t, m, j.ID); got.State != StateDone {
				t.Fatalf("job ended %s: %s", got.State, got.Error)
			}
			got := readOutputs(t, m, j.ID)
			for _, name := range OutputFiles {
				if !bytes.Equal(got[name], want[name]) {
					t.Errorf("%s differs from core.TransformWith's (%d vs %d bytes)", name, len(got[name]), len(want[name]))
				}
			}
		})
	}
}

// TestOpenRunsJobLeftByChunkedDaemon: a spool written by a daemon of the
// deleted chunked pipeline — a job killed mid-run, its manifest carrying
// resumes and coalesced checkpoint events, its run.ckpt beside it — reopens:
// the job reruns to `s3pg data`'s outputs, the stale checkpoint is swept, and
// the old timeline is kept and extended.
func TestOpenRunsJobLeftByChunkedDaemon(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	const id = "j000001-0a1b2c3d"
	dir := filepath.Join(cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	manifest := `{
  "id": "` + id + `",
  "mode": "parsimonious",
  "state": "running",
  "accepted": "2026-10-01T10:00:00Z",
  "started": "2026-10-01T10:00:02Z",
  "statements": 1280,
  "attempts": 2,
  "resumes": 1,
  "timeline": [
    {"phase": "spool", "at": "2026-10-01T10:00:00Z"},
    {"phase": "queued", "at": "2026-10-01T10:00:00Z"},
    {"phase": "running", "at": "2026-10-01T10:00:00.5Z"},
    {"phase": "checkpoint", "at": "2026-10-01T10:00:01Z", "count": 12},
    {"phase": "queued", "at": "2026-10-01T10:00:01.5Z", "note": "drain"},
    {"phase": "running", "at": "2026-10-01T10:00:02Z"},
    {"phase": "checkpoint", "at": "2026-10-01T10:00:03Z", "count": 8}
  ]
}
`
	for name, content := range map[string]string{
		manifestFile:  manifest,
		shapesFile:    shapes,
		dataFile:      data,
		staleCkptFile: "S3PGCKP1\x01\x00\x00\x00 a checkpoint nothing reads any more",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	m := mustOpen(t, cfg)
	got := waitTerminal(t, m, id)
	if got.State != StateDone {
		t.Fatalf("job left by a chunked daemon: %s (%s)", got.State, got.Error)
	}
	if _, err := os.Stat(filepath.Join(dir, staleCkptFile)); !os.IsNotExist(err) {
		t.Fatalf("stale %s not swept: %v", staleCkptFile, err)
	}
	want := transformOutputs(t, shapes, data)
	out := readOutputs(t, m, id)
	for _, name := range OutputFiles {
		if !bytes.Equal(out[name], want[name]) {
			t.Errorf("%s differs from core.TransformWith's", name)
		}
	}
	phases := strings.Join(timelinePhases(got), ",")
	if want := "spool,queued,running,checkpoint,queued,running,checkpoint,queued,running,commit,done"; phases != want {
		t.Fatalf("timeline %s, want %s", phases, want)
	}
	assertMonotone(t, got)
}
