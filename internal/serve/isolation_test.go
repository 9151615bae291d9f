package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// published is one snapshot of the live state as the daemon publishes it —
// Graph.Clone + Store.Clone, sharing memory with the writer — next to an
// oracle built at the same moment from deep copies that share nothing.
type published struct {
	name           string
	shared, oracle *Snapshot
}

// deepGraph and deepStore rebuild a structure element by element through its
// public constructors: what Clone used to do, and the oracle now.
func deepGraph(g *rdf.Graph) *rdf.Graph {
	c := rdf.NewGraph()
	c.AddAll(g)
	return c
}

func deepStore(s *pg.Store) *pg.Store {
	props := func(n int, at func(int) (string, pg.Value)) map[string]pg.Value {
		out := make(map[string]pg.Value, n)
		for i := 0; i < n; i++ {
			k, v := at(i)
			if list, ok := v.([]pg.Value); ok {
				v = append([]pg.Value(nil), list...)
			}
			out[k] = v
		}
		return out
	}
	c := pg.NewStore()
	for i := 0; i < s.NumNodes(); i++ {
		n := s.Node(pg.NodeID(i))
		c.AddNode(n.Labels(), props(n.NumProps(), n.PropAt))
	}
	for i := 0; i < s.NumEdges(); i++ {
		e := s.Edge(pg.EdgeID(i))
		c.AddEdge(e.From, e.To, e.Label(), props(e.NumProps(), e.PropAt))
	}
	return c
}

// isolationQueries is a qmix-style set: both formulations of the paper's
// single-type, filter, join, multi-type and heterogeneous DBpedia queries,
// plus point lookups and an aggregate.
func isolationQueries(g *rdf.Graph, ns string) []Request {
	want := map[string]bool{"Q1": true, "Q4": true, "Q5": true, "Q11": true, "Q16": true}
	var reqs []Request
	for _, q := range exp.DBpediaQueries() {
		if want[q.ID] {
			reqs = append(reqs, Request{Lang: "sparql", Query: q.SPARQL}, Request{Lang: "cypher", Query: q.Cypher})
		}
	}
	subject := g.InstancesOf(rdf.NewIRI(ns + "Person"))[0].Value
	return append(reqs,
		Request{Lang: "cypher", Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`, Params: map[string]any{"iri": subject}},
		Request{Lang: "sparql", Query: fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", subject)},
		Request{Lang: "sparql", Query: fmt.Sprintf("ASK { <%s> a <%sPerson> }", subject, ns)},
		Request{Lang: "cypher", Query: `MATCH (n:Person) RETURN count(*) AS n`},
	)
}

func answer(t *testing.T, snap *Snapshot, req Request) string {
	resp, err := Execute(context.Background(), snap, req)
	if err != nil {
		t.Errorf("%s %q: %v", req.Lang, req.Query, err)
		return ""
	}
	b, err := json.Marshal(struct {
		Columns []string
		Rows    [][]any
	}{resp.Columns, resp.Rows()})
	if err != nil {
		t.Errorf("%s %q: %v", req.Lang, req.Query, err)
	}
	return string(b)
}

func dump(t *testing.T, snap *Snapshot) (nodes, edges, nt string) {
	var nb, eb, tb bytes.Buffer
	if err := snap.Store.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	if err := rio.WriteNTriples(&tb, snap.Graph); err != nil {
		t.Fatal(err)
	}
	return nb.String(), eb.String(), tb.String()
}

// TestSnapshotIsolationUnderWrites is the differential test for the
// structure-sharing publish (run it with -race): a writer applies grow
// batches (fast path), churn batches (rebuild) and a batch that is rejected
// and rolled back (TruncateFrom + Unremove), publishing a snapshot after
// every one and keeping them all; reader goroutines meanwhile query every
// snapshot held so far and require byte-equal answers from its oracle. At the
// end every snapshot still exports the bytes its oracle does. Both modes run:
// parsimonious grow batches append key/value properties to existing node
// records (the per-node copy), non-parsimonious ones only add nodes and edges.
func TestSnapshotIsolationUnderWrites(t *testing.T) {
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		t.Run(mode.String(), func(t *testing.T) { snapshotIsolation(t, mode) })
	}
}

func snapshotIsolation(t *testing.T, mode core.Mode) {
	p := datagen.DBpedia2022()
	g := datagen.Generate(p, 0.00004, 7)
	sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	reqs := isolationQueries(g, p.NS)
	st, err := core.NewDeltaState(g, sg, mode)
	if err != nil {
		t.Fatal(err)
	}

	var (
		mu   sync.Mutex
		held []*published
	)
	publish := func(name string) {
		pub := &published{
			name:   name,
			shared: NewSnapshot(st.Graph().Clone(), st.Store().Clone(), st.SchemaDDL(), 0),
			oracle: NewSnapshot(deepGraph(st.Graph()), deepStore(st.Store()), st.SchemaDDL(), 0),
		}
		mu.Lock()
		held = append(held, pub)
		mu.Unlock()
	}
	snapshotOfHeld := func() []*published {
		mu.Lock()
		defer mu.Unlock()
		return append([]*published(nil), held...)
	}
	compare := func(pubs []*published) {
		for _, pub := range pubs {
			for _, req := range reqs {
				if got, want := answer(t, pub.shared, req), answer(t, pub.oracle, req); got != want {
					t.Errorf("snapshot %q, %s %q: shared clone answers\n%s\nits deep copy\n%s", pub.name, req.Lang, req.Query, got, want)
					return
				}
			}
		}
	}

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
					compare(snapshotOfHeld())
				}
			}
		}()
	}

	publish("initial")
	fast, rebuilds, rejected, swept := st.FastApplies(), st.Rebuilds(), 0, 0
	for round := 0; round < 3; round++ {
		// Grow-only batches: no rdf:type statement, so they ride the fast path.
		var grown []rdf.Triple
		datagen.Evolve(st.Graph(), p, 0.04, int64(100+round)).ForEach(func(tr rdf.Triple) bool {
			if tr.P != rdf.A {
				grown = append(grown, tr)
			}
			return true
		})
		for i := 0; i+20 <= len(grown) && i < 100; i += 20 {
			if _, err := st.ApplyDelta(&rdf.Delta{Inserts: grown[i : i+20]}); err != nil {
				t.Fatalf("grow batch: %v", err)
			}
			publish(fmt.Sprintf("round %d grow %d", round, i/20))
		}

		// A batch strict mode rejects after the graph was already mutated:
		// deletes and inserts, plus an annotation of a statement that does
		// not exist. ApplyDelta must roll all of it back.
		live := st.Graph().Triples()
		bad := &rdf.Delta{
			Deletes: []rdf.Triple{live[len(live)/3], live[len(live)/2]},
			Inserts: append([]rdf.Triple(nil), grown[len(grown)-3:]...),
		}
		ghost, err := rdf.NewTripleTerm(rdf.NewTriple(rdf.NewIRI(p.NS+"nobody"), rdf.NewIRI(p.NS+"knows"), rdf.NewIRI(p.NS+"noone")))
		if err != nil {
			t.Fatal(err)
		}
		bad.Inserts = append(bad.Inserts, rdf.NewTriple(ghost, rdf.NewIRI(p.NS+"certainty"), rdf.NewLiteral("0.5")))
		if _, err := st.ApplyDelta(bad); err == nil || !strings.Contains(err.Error(), "rejected") {
			t.Fatalf("the orphan annotation batch was not rejected: %v", err)
		}
		rejected++
		publish(fmt.Sprintf("round %d rejected", round))

		// A churn batch: deletes, literal mutations and growth → rebuild.
		churn := datagen.EvolveChurn(st.Graph(), p, datagen.Churn{AddFrac: 0.01, DeleteFrac: 0.01, MutateFrac: 0.01}, int64(200+round))
		if _, err := st.ApplyDelta(churn); err != nil {
			t.Fatalf("churn batch: %v", err)
		}
		publish(fmt.Sprintf("round %d churn", round))

		// The same without rdf:type deletes: applied in place, by a sweep
		// that renumbers the store every held snapshot shares records with.
		churn = datagen.EvolveChurn(st.Graph(), p, datagen.Churn{DeleteFrac: 0.01, MutateFrac: 0.01}, int64(300+round))
		kept := churn.Deletes[:0]
		for _, tr := range churn.Deletes {
			if tr.P != rdf.A {
				kept = append(kept, tr)
			}
		}
		churn.Deletes = kept
		if _, err := st.ApplyDelta(churn); err != nil {
			t.Fatalf("in-place churn batch: %v", err)
		}
		if path, _ := st.LastPath(); path == "in_place" {
			swept++
		}
		publish(fmt.Sprintf("round %d in-place churn", round))
	}
	close(done)
	readers.Wait()
	if st.FastApplies() == fast || st.Rebuilds() == rebuilds || rejected == 0 || swept == 0 {
		t.Fatalf("the script did not cover all paths: %d in place (%d with deletes), %d rebuilds, %d rejected",
			st.FastApplies()-fast, swept, st.Rebuilds()-rebuilds, rejected)
	}

	// Every snapshot, the first included, must have survived everything that
	// was applied after it.
	all := snapshotOfHeld()
	compare(all)
	for _, pub := range all {
		gn, ge, gt := dump(t, pub.shared)
		wn, we, wt := dump(t, pub.oracle)
		if gn != wn || ge != we || gt != wt {
			t.Errorf("snapshot %q: exports differ from its deep copy (nodes %v, edges %v, triples %v)",
				pub.name, gn == wn, ge == we, gt == wt)
		}
	}
}
