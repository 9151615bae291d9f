package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/rdf"
)

func lenientTransform(t *testing.T, g *rdf.Graph) *Transformer {
	t.Helper()
	tr, err := TransformWith(context.Background(), g, fixtures.UniversityShapes(),
		Parsimonious, nil, TransformOptions{Lenient: true})
	if err != nil {
		t.Fatalf("lenient transform failed: %v", err)
	}
	return tr
}

// TestLenientUntypedSubject checks the generic-label fallback: a subject with
// no rdf:type is labelled rdfs:Resource, its properties survive, and the
// inverse mapping reproduces them (plus the documented extra type triple).
func TestLenientUntypedSubject(t *testing.T) {
	g := fixtures.UniversityGraph()
	dirty := rdf.NewTriple(fixtures.Ex("mystery"), rdf.NewIRI(fixtures.ExNS+"name"), rdf.NewLiteral("Mystery"))
	g.Add(dirty)

	// Strict mode also completes (untyped subjects route through fallback
	// edge types), so the degradation must be lenient-only bookkeeping.
	if _, _, err := Transform(g, fixtures.UniversityShapes(), Parsimonious); err != nil {
		t.Fatalf("strict transform failed: %v", err)
	}

	tr := lenientTransform(t, g)
	if tr.DegradedCount() == 0 {
		t.Fatal("no degradation recorded for the untyped subject")
	}
	found := false
	for _, d := range tr.degraded {
		if strings.Contains(d.reason, "generic label") && d.triple == dirty {
			found = true
		}
	}
	if !found {
		t.Fatalf("degradations lack the generic-label record: %v", tr.degraded)
	}

	back, err := InverseData(tr.Store(), tr.Schema())
	if err != nil {
		t.Fatalf("inverse failed: %v", err)
	}
	if !back.Has(dirty) {
		t.Fatal("inverse graph lost the degraded statement")
	}
	generic := rdf.NewTriple(fixtures.Ex("mystery"), rdf.A, rdf.NewIRI(GenericClass))
	if !back.Has(generic) {
		t.Fatal("inverse graph lacks the documented rdfs:Resource type triple")
	}
	// Monotonicity: every clean triple must still be reproduced.
	fixtures.UniversityGraph().ForEach(func(tr rdf.Triple) bool {
		if !back.Has(tr) {
			t.Fatalf("clean triple %v lost under the lenient degradation", tr)
		}
		return true
	})
}

// TestLenientLiteralType checks the string-coercion fallback: a literal
// rdf:type object aborts strict mode but is realized as an ordinary property
// statement in lenient mode, preserving the dirty triple through the inverse.
func TestLenientLiteralType(t *testing.T) {
	g := fixtures.UniversityGraph()
	dirty := rdf.NewTriple(fixtures.Ex("bob"), rdf.A, rdf.NewLiteral("Person"))
	g.Add(dirty)

	if _, _, err := Transform(g, fixtures.UniversityShapes(), Parsimonious); err == nil {
		t.Fatal("strict transform accepted a literal rdf:type object")
	}

	tr := lenientTransform(t, g)
	coerced := false
	for _, d := range tr.degraded {
		if strings.Contains(d.reason, "coerced") && d.triple == dirty {
			coerced = true
		}
	}
	if !coerced {
		t.Fatalf("degradations lack the coercion record: %v", tr.degraded)
	}
	back, err := InverseData(tr.Store(), tr.Schema())
	if err != nil {
		t.Fatalf("inverse failed: %v", err)
	}
	if !back.Has(dirty) {
		t.Fatal("inverse graph lost the coerced rdf:type statement")
	}
}

// TestLenientTypedQuotedTriple checks the skip fallback: typing a quoted
// triple is unrepresentable and aborts strict mode; lenient mode skips and
// records it while the rest of the graph transforms.
func TestLenientTypedQuotedTriple(t *testing.T) {
	g := fixtures.UniversityGraph()
	qt, err := rdf.NewTripleTerm(rdf.NewTriple(fixtures.Ex("bob"), rdf.NewIRI(fixtures.ExNS+"name"), rdf.NewLiteral("Bob")))
	if err != nil {
		t.Fatal(err)
	}
	g.Add(rdf.NewTriple(qt, rdf.A, fixtures.Ex("Statement")))

	if _, _, err := Transform(g, fixtures.UniversityShapes(), Parsimonious); err == nil {
		t.Fatal("strict transform accepted a typed quoted triple")
	}

	tr := lenientTransform(t, g)
	skipped := false
	for _, d := range tr.degraded {
		if strings.Contains(d.reason, "quoted triples cannot be typed") {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("degradations lack the skip record: %v", tr.degraded)
	}
	back, err := InverseData(tr.Store(), tr.Schema())
	if err != nil {
		t.Fatalf("inverse failed: %v", err)
	}
	if !back.Equal(fixtures.UniversityGraph()) {
		t.Fatal("skipping the unrepresentable statement perturbed the clean transform")
	}
}

// TestLenientCleanGraphIsExact checks that the degradation policy is inert on
// conforming data: lenient and strict transforms of the clean fixture agree.
func TestLenientCleanGraphIsExact(t *testing.T) {
	tr := lenientTransform(t, fixtures.UniversityGraph())
	if n := tr.DegradedCount(); n != 0 {
		t.Fatalf("clean graph recorded %d degradations: %v", n, tr.degraded)
	}
	back, err := InverseData(tr.Store(), tr.Schema())
	if err != nil {
		t.Fatalf("inverse failed: %v", err)
	}
	if !back.Equal(fixtures.UniversityGraph()) {
		t.Fatal("lenient transform of clean data does not round-trip")
	}
}

// TestDegradationCap checks that the detail list stays bounded while the
// count keeps the full tally.
func TestDegradationCap(t *testing.T) {
	g := rdf.NewGraph()
	for i := 0; i < maxRetainedDegradations+50; i++ {
		g.Add(rdf.NewTriple(fixtures.Ex("u"+string(rune('a'+i%26))+string(rune('a'+i/26))),
			rdf.NewIRI(fixtures.ExNS+"p"), rdf.NewLiteral("v")))
	}
	tr := lenientTransform(t, g)
	if int(tr.DegradedCount()) != g.Len() {
		t.Fatalf("DegradedCount = %d, want %d", tr.DegradedCount(), g.Len())
	}
	if len(tr.degraded) != maxRetainedDegradations {
		t.Fatalf("retained %d degradation details, want cap %d", len(tr.degraded), maxRetainedDegradations)
	}
}

// TestApplyContextCancel checks that a cancelled context aborts both phases.
func TestApplyContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TransformWith(ctx, fixtures.UniversityGraph(), fixtures.UniversityShapes(),
		Parsimonious, nil, TransformOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestInverseDataContextCancel checks cancellation in the inverse mapping.
func TestInverseDataContextCancel(t *testing.T) {
	store, schema, err := Transform(fixtures.UniversityGraph(), fixtures.UniversityShapes(), Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := InverseDataContext(ctx, store, schema, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStarAnnotationErrorTexts pins the strict error and the lenient
// degradation for an annotation whose statement is not an edge — missing from
// the data, or key/value-routed — at every worker count.
func TestStarAnnotationErrorTexts(t *testing.T) {
	missing := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("advisedBy"), fixtures.Ex("nobody"))
	kvStmt := rdf.NewTriple(fixtures.Ex("bob"), fixtures.Ex("regNo"), rdf.NewLiteral("Bs12"))
	for name, stmt := range map[string]rdf.Triple{"orphaned": missing, "kv-routed": kvStmt} {
		wantErr := fmt.Sprintf("core: annotated statement %v is not realized as an edge "+
			"(missing from the data, or key/value-routed — use the non-parsimonious mode)", stmt)
		ann := rdf.NewTriple(rdf.MustTripleTerm(stmt), fixtures.Ex("verified"), rdf.NewLiteral("yes"))
		g := fixtures.UniversityGraph()
		g.Add(ann)
		for _, workers := range []int{1, 2, 4} {
			_, err := TransformWith(context.Background(), g, fixtures.UniversityShapes(), Parsimonious, nil,
				TransformOptions{Workers: workers})
			if err == nil || err.Error() != wantErr {
				t.Fatalf("%s workers=%d: strict error = %v\nwant %s", name, workers, err, wantErr)
			}
			tr, err := TransformWith(context.Background(), g, fixtures.UniversityShapes(), Parsimonious, nil,
				TransformOptions{Lenient: true, Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: lenient: %v", name, workers, err)
			}
			want := degradation{"skipped: " + wantErr, ann}
			if ds := tr.degraded; len(ds) != 1 || ds[0] != want {
				t.Fatalf("%s workers=%d: degradations = %v\nwant %v", name, workers, ds, want)
			}
		}
	}
}
