package core_test

import (
	"fmt"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// applyParts applies each part as its own Apply call on one transformer and
// returns the final outputs.
func applyParts(t *testing.T, sg *shacl.Schema, mode core.Mode, parts ...[]rdf.Triple) outputs {
	t.Helper()
	tr, err := core.NewTransformer(sg, mode)
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range parts {
		g := rdf.NewGraph()
		for _, x := range part {
			g.Add(x)
		}
		if err := tr.Apply(g); err != nil {
			t.Fatalf("part %d: %v", i, err)
		}
	}
	return outputsOf(t, tr)
}

// TestApplySplitMatchesOneShot: a transformer that receives its input in two
// Apply calls — split at every boundary in turn — ends byte-identical to one
// Apply over all of it. This is the half of the old snapshot/restore check
// that still holds without a snapshot: Prop. 4.3 makes the prefix's state a
// valid start for the suffix, and determinism makes the result exact. Node
// ids follow creation order, and one Apply creates its entities before its
// value nodes, so the inputs are datagen's, which writes every rdf:type
// statement first; a split between a value node and a later entity would
// renumber the nodes.
func TestApplySplitMatchesOneShot(t *testing.T) {
	univ := datagen.Generate(datagen.University(), 0.3, 7)
	univShapes := shapeex.Extract(univ, shapeex.Options{MinSupport: 0.01})
	dbp := datagen.Generate(datagen.DBpedia2022(), 0.0001, 1)
	dbpShapes := shapeex.Extract(dbp, shapeex.Options{MinSupport: 0.02})
	cases := []struct {
		name  string
		g     *rdf.Graph
		sg    *shacl.Schema
		mode  core.Mode
		every int
	}{
		{"university_parsimonious", univ, univShapes, core.Parsimonious, 200},
		{"university_non-parsimonious", univ, univShapes, core.NonParsimonious, 200},
		{"dbpedia2022_parsimonious", dbp, dbpShapes, core.Parsimonious, 1000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			all := tc.g.Triples()
			want := applyParts(t, tc.sg, tc.mode, all)
			cuts := 0
			for cut := tc.every; cut < len(all); cut += tc.every {
				got := applyParts(t, tc.sg, tc.mode, all[:cut], all[cut:])
				requireSameOutputs(t, want, got, fmt.Sprintf("split after %d of %d statements", cut, len(all)))
				cuts++
			}
			if cuts < 4 {
				t.Fatalf("only %d split points; input too small for the check", cuts)
			}
		})
	}
}
