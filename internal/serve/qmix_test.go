package serve

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
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

// qmixCase is one request of the benchmark's query mix (bench/inputs.go
// qmix): paired cases are the two formulations of one paper query.
type qmixCase struct {
	name   string
	paired bool
	req    Request
}

var qmixOnce struct {
	sync.Once
	snap  *Snapshot
	cases []qmixCase
}

// qmix returns the benchmark's 14 requests and a snapshot of the dataset the
// query_read workload serves them over (DBpedia2022 at scale 0.0005, seed 1).
func qmix(tb testing.TB) (*Snapshot, []qmixCase) {
	qmixOnce.Do(func() {
		p := datagen.DBpedia2022()
		g := datagen.Generate(p, 0.0005, 1)
		store, _, err := core.Transform(g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}), core.Parsimonious)
		if err != nil {
			tb.Fatal(err)
		}
		qmixOnce.snap = NewSnapshot(g, store, "", 0)
		want := map[string]bool{"Q1": true, "Q4": true, "Q5": true, "Q11": true, "Q16": true}
		for _, q := range exp.DBpediaQueries() {
			if want[q.ID] {
				qmixOnce.cases = append(qmixOnce.cases,
					qmixCase{q.ID + "/sparql", true, Request{Lang: "sparql", Query: q.SPARQL}},
					qmixCase{q.ID + "/cypher", true, Request{Lang: "cypher", Query: q.Cypher}})
			}
		}
		persons := g.InstancesOf(rdf.NewIRI(p.NS + "Person"))
		subject := persons[rand.New(rand.NewSource(1)).Intn(len(persons))].Value
		qmixOnce.cases = append(qmixOnce.cases,
			qmixCase{"lookup/cypher", false, Request{Lang: "cypher",
				Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`, Params: map[string]any{"iri": subject}}},
			qmixCase{"lookup/sparql", false, Request{Lang: "sparql",
				Query: fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", subject)}},
			qmixCase{"page/sparql", false, Request{Lang: "sparql",
				Query: fmt.Sprintf("PREFIX d: <%s>\nSELECT ?e ?v WHERE { ?e a d:Place ; d:name ?v } ORDER BY ?v ?e LIMIT 10 OFFSET 5", p.NS)}},
			qmixCase{"count/cypher", false, Request{Lang: "cypher",
				Query: `MATCH (n:Person) RETURN count(*) AS n`}},
		)
	})
	return qmixOnce.snap, qmixOnce.cases
}

// serveOnce is what one /query request costs below HTTP: execute and encode
// into a reused buffer. It returns the number of answer rows.
func serveOnce(tb testing.TB, snap *Snapshot, req Request, buf *[]byte) int {
	resp, err := Execute(context.Background(), snap, req)
	if err != nil {
		tb.Fatal(err)
	}
	if *buf, err = resp.AppendJSON((*buf)[:0]); err != nil {
		tb.Fatal(err)
	}
	return resp.Len()
}

// BenchmarkQmix is the query_read workload's per-request CPU and garbage,
// request by request, without the HTTP tier.
func BenchmarkQmix(b *testing.B) {
	snap, cases := qmix(b)
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			buf := make([]byte, 0, 1<<20)
			rows := 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rows = serveOnce(b, snap, c.req, &buf)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}

// TestQmixAllocBudget is the CPU-independent gate on the serving path: the
// garbage one request leaves is bounded per answer row, a point lookup by a
// constant, and a whole round of the mix by a quarter of the 39 MB it took
// while bindings were maps and kv slices and the encoder went through
// [][]any.
func TestQmixAllocBudget(t *testing.T) {
	snap, cases := qmix(t)
	buf := make([]byte, 0, 4<<20)
	for _, c := range cases {
		rows := serveOnce(t, snap, c.req, &buf)
		allocs := testing.AllocsPerRun(3, func() { serveOnce(t, snap, c.req, &buf) })
		t.Logf("%-14s %5d rows %7.0f allocs", c.name, rows, allocs)
		switch {
		case c.paired && allocs > 2*float64(rows):
			t.Errorf("%s: %.0f allocs for %d rows, want <= 2 per row", c.name, allocs, rows)
		case c.name == "lookup/cypher" || c.name == "lookup/sparql":
			if allocs > 64 {
				t.Errorf("%s: %.0f allocs, want <= 64", c.name, allocs)
			}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, c := range cases {
		serveOnce(t, snap, c.req, &buf)
	}
	runtime.ReadMemStats(&after)
	round := after.TotalAlloc - before.TotalAlloc
	t.Logf("one round: %.2f MB", float64(round)/1e6)
	if limit := uint64(39e6 / 4); round > limit {
		t.Errorf("one round of the mix allocates %d bytes, want <= %d", round, limit)
	}
}

// TestApproxGraphBytesTracksHeap: the graph half of a snapshot's cost is
// within 30 % of what a graph costs the heap. The graph measured is the qmix
// graph loaded from its N-Triples — the byte path every loader takes, so its
// terms live in the dictionary's chunks and share no string with the export —
// and then read once, which builds its posting lists, as the first query of a
// cached snapshot does.
func TestApproxGraphBytesTracksHeap(t *testing.T) {
	snap, _ := qmix(t)
	var nt bytes.Buffer
	if err := rio.WriteNTriples(&nt, snap.Graph); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	g, err := rio.LoadNTriples(bytes.NewReader(nt.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	g.MatchCount(nil, &rdf.A, nil)
	measured := heap() - before
	runtime.KeepAlive(&nt) // or the export's death would count as the graph's saving
	est := approxGraphBytes(g)
	t.Logf("estimate %d B, measured %d B (%.2f), %d terms, %d triples", est, measured, float64(est)/float64(measured), g.Dict().Len(), g.Len())
	if ratio := float64(est) / float64(measured); ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("approxGraphBytes = %d, the heap grew by %d: off by more than 30 %%", est, measured)
	}
	runtime.KeepAlive(g)
}

// TestApproxStoreBytesTracksHeap: the estimate the snapshot cache evicts on is
// within 30 % of what a store costs the heap. The store measured is the qmix
// store loaded from its export — how a finished job's snapshot reaches the
// cache, and the one way to have a store share no string with a graph — and
// then read once, which builds its adjacency and iri index, as the first
// query of a cached snapshot does.
func TestApproxStoreBytesTracksHeap(t *testing.T) {
	snap, _ := qmix(t)
	var nodes, edges bytes.Buffer
	if err := snap.Store.WriteCSV(&nodes, &edges); err != nil {
		t.Fatal(err)
	}
	heap := func() int64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := heap()
	store, err := pg.LoadCSV(bytes.NewReader(nodes.Bytes()), bytes.NewReader(edges.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	store.Out(0)
	store.IRIUnique()
	measured := heap() - before
	runtime.KeepAlive(&nodes) // or the export's death would count as the store's saving
	runtime.KeepAlive(&edges)
	est := approxStoreBytes(store)
	t.Logf("estimate %d B, measured %d B (%.2f), %d nodes, %d edges", est, measured, float64(est)/float64(measured), store.NumNodes(), store.NumEdges())
	if ratio := float64(est) / float64(measured); ratio < 0.7 || ratio > 1.3 {
		t.Fatalf("approxStoreBytes = %d, the heap grew by %d: off by more than 30 %%", est, measured)
	}
	runtime.KeepAlive(store)
}
