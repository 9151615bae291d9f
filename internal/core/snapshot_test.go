package core_test

import (
	"bytes"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// chunksOf splits a graph's triples into consecutive sub-graphs of n
// statements, modelling the checkpointed streaming pipeline's chunks.
func chunksOf(g *rdf.Graph, n int) []*rdf.Graph {
	var out []*rdf.Graph
	cur := rdf.NewGraph()
	g.ForEach(func(t rdf.Triple) bool {
		cur.Add(t)
		if cur.Len() >= n {
			out = append(out, cur)
			cur = rdf.NewGraph()
		}
		return true
	})
	if cur.Len() > 0 {
		out = append(out, cur)
	}
	return out
}

// dump serializes a transformer's outputs to the exact bytes the CLI would
// commit.
func dump(t *testing.T, tr *core.Transformer) (nodes, edges []byte, ddl string) {
	t.Helper()
	var nb, eb bytes.Buffer
	if err := tr.Store().WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), eb.Bytes(), pgschema.WriteDDL(tr.Schema())
}

// applyAll applies each chunk in order.
func applyAll(t *testing.T, tr *core.Transformer, chunks []*rdf.Graph) {
	t.Helper()
	for _, c := range chunks {
		if err := tr.Apply(c); err != nil {
			t.Fatal(err)
		}
	}
}

// runResumed applies chunks[:cut], snapshots, restores into a fresh
// transformer, and applies the rest — the in-memory model of a crash at the
// cut boundary followed by -resume.
func runResumed(t *testing.T, sg *shacl.Schema, mode core.Mode, lenient bool, chunks []*rdf.Graph, cut int) *core.Transformer {
	t.Helper()
	tr, err := core.NewTransformer(sg, mode)
	if err != nil {
		t.Fatal(err)
	}
	tr.SetLenient(lenient)
	applyAll(t, tr, chunks[:cut])
	st, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.RestoreTransformer(st)
	if err != nil {
		t.Fatalf("restore at chunk %d: %v", cut, err)
	}
	applyAll(t, restored, chunks[cut:])
	return restored
}

// TestSnapshotRestoreEquivalence is the core crash-resume soundness check:
// for every possible snapshot boundary, snapshot+restore+continue yields
// outputs byte-identical to one uninterrupted run over the same chunks
// (Prop. 4.3 makes the prefix state valid; determinism makes it exact).
func TestSnapshotRestoreEquivalence(t *testing.T) {
	p := datagen.University()
	g := datagen.Generate(p, 0.3, 7)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.01})
	chunks := chunksOf(g, 200)
	if len(chunks) < 4 {
		t.Fatalf("dataset too small for a meaningful test: %d chunks", len(chunks))
	}

	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		base, err := core.NewTransformer(shapes, mode)
		if err != nil {
			t.Fatal(err)
		}
		applyAll(t, base, chunks)
		wantN, wantE, wantDDL := dump(t, base)

		for cut := 1; cut < len(chunks); cut++ {
			resumed := runResumed(t, shapes, mode, false, chunks, cut)
			gotN, gotE, gotDDL := dump(t, resumed)
			if !bytes.Equal(gotN, wantN) {
				t.Fatalf("mode %v cut %d: nodes CSV differs from uninterrupted run", mode, cut)
			}
			if !bytes.Equal(gotE, wantE) {
				t.Fatalf("mode %v cut %d: edges CSV differs from uninterrupted run", mode, cut)
			}
			if gotDDL != wantDDL {
				t.Fatalf("mode %v cut %d: schema DDL differs from uninterrupted run", mode, cut)
			}
		}
	}
}

// TestSnapshotRestoreLenientDirtyData covers the degradation machinery
// across a resume: untyped subjects (generic label + fallback routes),
// uncovered predicates, and the degradation tally itself.
func TestSnapshotRestoreLenientDirtyData(t *testing.T) {
	g := fixtures.UniversityGraph()
	g.Add(rdf.NewTriple(fixtures.Ex("mystery"), rdf.NewIRI(fixtures.ExNS+"name"), rdf.NewLiteral("Mystery")))
	g.Add(rdf.NewTriple(fixtures.Ex("bob"), rdf.NewIRI(fixtures.ExNS+"undeclaredPred"), fixtures.Ex("alice")))
	g.Add(rdf.NewTriple(fixtures.Ex("carol"), rdf.A, rdf.NewLiteral("NotAnIRI")))
	sg := fixtures.UniversityShapes()
	chunks := chunksOf(g, 5)

	base, err := core.NewTransformer(sg, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	base.SetLenient(true)
	applyAll(t, base, chunks)
	wantN, wantE, wantDDL := dump(t, base)

	for cut := 1; cut < len(chunks); cut++ {
		resumed := runResumed(t, sg, core.Parsimonious, true, chunks, cut)
		gotN, gotE, gotDDL := dump(t, resumed)
		if !bytes.Equal(gotN, wantN) || !bytes.Equal(gotE, wantE) || gotDDL != wantDDL {
			t.Fatalf("lenient cut %d: resumed outputs differ from uninterrupted run", cut)
		}
		if resumed.DegradedCount() != base.DegradedCount() {
			t.Fatalf("lenient cut %d: degraded tally %d, want %d", cut, resumed.DegradedCount(), base.DegradedCount())
		}
	}
}

// TestSnapshotRestoreAnnotationAfterResume pins the lazy statement index
// across a resume: an RDF-star annotation arriving after RestoreTransformer
// must find the edge created before the snapshot — the restored transformer
// indexes its restored edges when the annotation pass first needs them — and
// the result must be byte-identical to the uninterrupted run and to one
// one-shot run over all the statements.
func TestSnapshotRestoreAnnotationAfterResume(t *testing.T) {
	stmt := rdf.NewTriple(fixtures.Ex("bob"), rdf.NewIRI(fixtures.ExNS+"advisedBy"), fixtures.Ex("alice"))
	g1 := fixtures.UniversityGraph()
	g1.Add(stmt)
	qt, err := rdf.NewTripleTerm(stmt)
	if err != nil {
		t.Fatal(err)
	}
	annotation := rdf.NewTriple(qt, rdf.NewIRI(fixtures.ExNS+"certainty"),
		rdf.NewTypedLiteral("0.9", rdf.XSDNS+"double"))
	g2 := rdf.NewGraph()
	g2.Add(annotation)
	oneShot := fixtures.UniversityGraph()
	oneShot.Add(stmt)
	oneShot.Add(annotation)

	run := func(resume bool, graphs ...*rdf.Graph) *core.PipelineState {
		t.Helper()
		tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
		if err != nil {
			t.Fatal(err)
		}
		for i, g := range graphs {
			if resume && i > 0 {
				st, err := tr.SnapshotState()
				if err != nil {
					t.Fatal(err)
				}
				if tr, err = core.RestoreTransformer(st); err != nil {
					t.Fatal(err)
				}
			}
			if err := tr.Apply(g); err != nil {
				t.Fatalf("graph %d (resume=%v): %v", i, resume, err)
			}
		}
		st, err := tr.SnapshotState()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := run(false, oneShot)
	requireSameState(t, want, run(false, g1, g2), "annotation in a second Apply")
	resumed := run(true, g1, g2)
	requireSameState(t, want, resumed, "annotation after RestoreTransformer")
	if !bytes.Contains(resumed.EdgesCSV, []byte("certainty")) {
		t.Fatal("annotation did not attach to the pre-snapshot edge")
	}
}

// TestRestoreRejectsInconsistentState: tampered high-water marks must be
// refused instead of silently resuming from the wrong place.
func TestRestoreRejectsInconsistentState(t *testing.T) {
	tr, err := core.NewTransformer(fixtures.UniversityShapes(), core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Apply(fixtures.UniversityGraph()); err != nil {
		t.Fatal(err)
	}
	st, err := tr.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	st.Nodes++
	if _, err := core.RestoreTransformer(st); err == nil {
		t.Fatal("inconsistent node count accepted")
	}
	st.Nodes--
	st.FallbackRoutes = append(st.FallbackRoutes, [2]string{"Ghost", "http://x/ghost"})
	if _, err := core.RestoreTransformer(st); err == nil {
		t.Fatal("unknown fallback route accepted")
	}
}

// TestParseModeRoundTrip covers the mode string round trip used by the
// checkpoint file.
func TestParseModeRoundTrip(t *testing.T) {
	for _, m := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		got, err := core.ParseMode(m.String())
		if err != nil || got != m {
			t.Fatalf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	// The service APIs document the unhyphenated alias.
	if got, err := core.ParseMode("nonparsimonious"); err != nil || got != core.NonParsimonious {
		t.Fatalf(`ParseMode("nonparsimonious") = %v, %v`, got, err)
	}
	if _, err := core.ParseMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}
