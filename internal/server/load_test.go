package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/serve"
)

// TestConcurrentQueriesByteEqualNoReload drives the real handler stack with a
// fleet of concurrent clients issuing mixed Cypher and SPARQL against one
// live graph and one finished job built from the same bytes. Every answer
// must byte-equal a single-threaded serve.Execute over an independently built
// snapshot, and serve.cache.loads must not move once the warm-up pass has
// touched the job: a cache hit never re-enters the load path. The proof for
// the lock-free snapshot swap itself is internal/serve's hammer test; this
// one holds the HTTP tier, the admission gate and the LRU to it.
func TestConcurrentQueriesByteEqualNoReload(t *testing.T) {
	// ≈ 5 goroutines per client (itself, two per connection, two per request
	// in the server): 1000 clients stay under the race detector's 8128.
	clients, perClient := 1000, 6
	if testing.Short() {
		clients = 100
	}
	g, shapes, ttl, nt := generateDataset(datagen.Profiles()["DBpedia2022"], 0.0002, 1, 0.02)

	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	gm := newGraphManager(t, GraphConfig{})
	// Admission sized so that no client sees 429: this test is about the
	// answers, serve.TestGateAdmission is about the gate.
	srv := New(Config{
		Manager: mgr, Graphs: gm,
		QueryMaxConcurrent: 2 * clients, QueryMaxQueue: 2 * clients,
		QueryTimeout: time.Minute,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if _, err := gm.Create("load", "", ttl, nt); err != nil {
		t.Fatal(err)
	}
	job, err := mgr.Submit(jobs.Spec{}, ttl, nt)
	if err != nil {
		t.Fatal(err)
	}
	if done := waitDone(t, srv, job.ID); done.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", done.State, done.Error)
	}

	// The reference: the transform a live graph runs at creation, queried
	// with no HTTP, no cache and no concurrency.
	state, err := core.NewDeltaState(g.Clone(), shapes, core.Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	snap := serve.NewSnapshot(g, state.Store(), state.SchemaDDL(), 0)
	var anyIRI string
	g.ForEach(func(tr rdf.Triple) bool {
		if tr.S.IsIRI() {
			anyIRI = tr.S.Value
		}
		return anyIRI == ""
	})
	type loadCase struct{ body, expect []byte } // request; canonical [columns, rows]
	var cases []loadCase
	for _, r := range []QueryRequest{
		{Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`},
		{Lang: "cypher", Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`,
			Params: map[string]any{"iri": anyIRI}},
		{Lang: "cypher", Query: `MATCH (n) RETURN n.iri AS iri`, MaxRows: 16},
		{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`},
		{Lang: "sparql", Query: `ASK { ?s a ?c }`},
		{Lang: "sparql", Query: `SELECT ?s WHERE { ?s a ?c } ORDER BY ?s LIMIT 5 OFFSET 3`},
	} {
		resp, err := serve.Execute(context.Background(), snap, serve.Request{
			Lang: r.Lang, Query: r.Query, Params: r.Params, MaxRows: r.MaxRows,
		})
		if err != nil {
			t.Fatalf("reference eval %q: %v", r.Query, err)
		}
		expect, err := json.Marshal([]any{resp.Columns, resp.Rows()})
		if err != nil {
			t.Fatal(err)
		}
		// Both targets of every query, so the live-snapshot path and the LRU
		// path stay hot together.
		for _, target := range []QueryRequest{{Graph: "load"}, {Job: job.ID}} {
			r.Graph, r.Job = target.Graph, target.Job
			body, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, loadCase{body, expect})
		}
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns: 2 * clients, MaxIdleConnsPerHost: 2 * clients,
	}}
	t.Cleanup(client.CloseIdleConnections)
	post := func(c loadCase) error {
		resp, err := client.Post(ts.URL+"/query", "application/json", bytes.NewReader(c.body))
		if err != nil {
			return err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		var qr QueryResponse
		if err == nil {
			err = json.Unmarshal(raw, &qr)
		}
		if err != nil {
			return fmt.Errorf("%s: %v: %s", c.body, err, raw)
		}
		// Strings and decoded JSON values always marshal.
		if got, _ := json.Marshal([]any{qr.Columns, qr.Rows}); !bytes.Equal(got, c.expect) {
			return fmt.Errorf("%s diverges from single-threaded eval\nserved:   %s\nexpected: %s", c.body, got, c.expect)
		}
		return nil
	}

	// Warm-up, single-threaded: the job snapshot's one and only cache load
	// happens here, and a wrong reference fails before any concurrency.
	for i, c := range cases {
		if err := post(c); err != nil {
			t.Fatalf("warm-up case %d: %v", i, err)
		}
	}

	loads := obs.Default.Counter("serve.cache.loads")
	loadsBefore := loads.Value()
	var (
		wg, released           sync.WaitGroup // released: every client's first request leaves together
		inFlight, peak, failed atomic.Int64
	)
	released.Add(clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				cur := inFlight.Add(1)
				for old := peak.Load(); cur > old && !peak.CompareAndSwap(old, cur); old = peak.Load() {
				}
				if i == 0 {
					released.Done()
					released.Wait()
				}
				err := post(cases[(c+i)%len(cases)])
				inFlight.Add(-1)
				if err != nil && failed.Add(1) <= 5 {
					t.Errorf("client %d request %d: %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	if n := failed.Load(); n > 0 {
		t.Errorf("%d of %d concurrent requests failed or mismatched", n, clients*perClient)
	}
	if d := loads.Value() - loadsBefore; d != 0 {
		t.Errorf("serve.cache.loads moved by %d under load; a cache hit must not reload", d)
	}
	if got := peak.Load(); got < int64(clients) {
		t.Errorf("peak in-flight %d, want the whole fleet of %d at once", got, clients)
	}
}
