// evolving demonstrates S3PG's change-based incremental maintenance
// (§4.2.1/§5.4): a knowledge graph is transformed once and then evolves
// through typed change batches. A grow-only batch is appended (Prop 4.3);
// mixed churn — deletions and in-place literal mutations, arriving as a
// SPARQL Update request — is applied as an edit script on the property
// graph, unless it deletes an rdf:type statement or otherwise changes what
// earlier statements would have done, in which case the state is rebuilt
// from the graph (Prop 4.1 invertibility). Either way the maintained property
// graph must be byte-identical to a full re-transformation of the evolved
// snapshot, and this example asserts exactly that after every batch.
package main

import (
	"bytes"
	"fmt"
	"log"
	"strings"
	"time"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
)

// renderExports produces the three bulk-load artifacts of a store/schema pair.
func renderExports(store *s3pg.Store, schema *s3pg.PGSchema) (string, string, string) {
	var nodes, edges bytes.Buffer
	if err := store.WriteCSV(&nodes, &edges); err != nil {
		log.Fatal(err)
	}
	return nodes.String(), edges.String(), s3pg.WriteDDL(schema)
}

// assertIdentical re-transforms the evolved RDF graph from scratch and
// compares all three exports byte-for-byte with the incremental state. It
// returns how long the from-scratch transformation took.
func assertIdentical(state *s3pg.DeltaState, shapes *s3pg.ShapeSchema, label string) time.Duration {
	var gotNodes, gotEdges bytes.Buffer
	if err := state.WriteCSV(&gotNodes, &gotEdges); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	store, schema, err := s3pg.Transform(state.Graph(), shapes, s3pg.NonParsimonious)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)
	wantNodes, wantEdges, wantDDL := renderExports(store, schema)
	if gotNodes.String() != wantNodes || gotEdges.String() != wantEdges || state.SchemaDDL() != wantDDL {
		log.Fatalf("%s: incremental state diverged from the full re-transformation", label)
	}
	fmt.Printf("  %s: nodes.csv, edges.csv, schema.ddl byte-identical to a full re-transformation\n", label)
	return elapsed
}

// sparqlUpdate renders a typed delta as the SPARQL Update request a client
// would send (Triple.String emits N-Triples statements, valid in the
// Turtle-parsed data blocks).
func sparqlUpdate(d *s3pg.Delta) string {
	var b strings.Builder
	b.WriteString("DELETE DATA {\n")
	for _, t := range d.Deletes {
		fmt.Fprintf(&b, "%s\n", t)
	}
	b.WriteString("} ;\nINSERT DATA {\n")
	for _, t := range d.Inserts {
		fmt.Fprintf(&b, "%s\n", t)
	}
	b.WriteString("}")
	return b.String()
}

func main() {
	profile := datagen.DBpedia2022()
	base := datagen.Generate(profile, 0.0005, 7)
	shapes := s3pg.ExtractShapes(base, 0.02)

	// The non-parsimonious mode keeps the transformation monotone even when
	// the schema evolves, so it is the right choice for changing graphs.
	start := time.Now()
	state, err := s3pg.NewDeltaState(base, shapes, s3pg.NonParsimonious)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial transformation: %d triples in %v (%d nodes, %d edges)\n",
		base.Len(), time.Since(start).Round(time.Millisecond),
		state.Store().NumNodes(), state.Store().NumEdges())

	// Batch 1 — grow-only: new property values on existing subjects (the
	// paper's ≈5.21% growth). No deletions and no new rdf:type statements,
	// so this is the Prop 4.3 monotone case: the batch is only appended.
	growth := &s3pg.Delta{}
	datagen.Evolve(base, profile, 0.0521, 1007).ForEach(func(t s3pg.Triple) bool {
		if t.P != rdf.A {
			growth.Inserts = append(growth.Inserts, t)
		}
		return true
	})
	start = time.Now()
	pd, err := state.ApplyDelta(growth)
	if err != nil {
		log.Fatal(err)
	}
	fastTime := time.Since(start)
	fmt.Printf("grow-only batch: +%d triples applied in %v (%d node changes, %d edge changes)\n",
		len(growth.Inserts), fastTime.Round(time.Microsecond), len(pd.Nodes), len(pd.Edges))
	fullTime := assertIdentical(state, shapes, "after growth")
	fmt.Printf("  in place: %v vs %v from scratch (%.0fx faster, %d in place / %d rebuilds)\n",
		fastTime.Round(time.Microsecond), fullTime.Round(time.Microsecond),
		float64(fullTime)/float64(fastTime), state.FastApplies(), state.Rebuilds())

	// Batch 2 — mixed churn: deletions, in-place literal mutations, and more
	// growth, arriving the way a live service receives it: as a SPARQL
	// Update request.
	churn := datagen.EvolveChurn(state.Graph(), profile,
		datagen.Churn{AddFrac: 0.02, DeleteFrac: 0.01, MutateFrac: 0.01}, 2024)
	request := sparqlUpdate(churn)
	parsed, err := s3pg.ParseUpdate(request)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	pd, err = state.ApplyDelta(parsed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("churn batch: -%d/+%d triples (SPARQL Update, %d bytes) applied in %v (%d node changes, %d edge changes)\n",
		len(parsed.Deletes), len(parsed.Inserts), len(request),
		time.Since(start).Round(time.Microsecond), len(pd.Nodes), len(pd.Edges))
	assertIdentical(state, shapes, "after churn")
	path, reason := state.LastPath()
	fmt.Printf("  served by %s %s (%d in place / %d rebuilds)\n", path, reason, state.FastApplies(), state.Rebuilds())
}
