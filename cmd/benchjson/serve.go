package main

// serve.go is -mode serve: a closed-loop load test of the daemon's online
// query tier. It stands up a real server.Server (the same handler stack
// s3pgd mounts) on a loopback listener, populates one live graph and one
// finished transform job from the same synthetic dataset, then drives a
// fleet of concurrent clients issuing a fixed mix of Cypher and SPARQL
// queries (ASK, LIMIT/OFFSET, and $param cases included) against both
// targets for a fixed duration. Client-side latencies aggregate into
// p50/p95/p99 and QPS.
//
// Two hard, CPU-count-independent gates make this a correctness check and
// not just a trend line:
//
//   - every response's columns+rows must byte-equal a single-threaded
//     in-process evaluation of the same query over the same data, and
//   - the serve.cache.loads counter must not move during the load phase:
//     after the warmup touch, cache-hit queries never re-enter the
//     dictionary-load path.
//
// The latency numbers themselves are informational (loopback HTTP on a
// shared CI box is noise), so there is no timing gate here; the companion
// -race hammer test in internal/serve is the concurrency proof.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/serve"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// serveCase is one query in the mix, addressed at the live graph or the job
// snapshot.
type serveCase struct {
	target string // "graph" or "job"
	req    server.QueryRequest
	expect []byte // canonical [columns, rows] from single-threaded eval
}

// ServeReport is the BENCH_serve.json document.
type ServeReport struct {
	CPUs        int     `json:"cpus"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Dataset     string  `json:"dataset"`
	Scale       float64 `json:"scale"`
	Triples     int     `json:"triples"`
	Clients     int     `json:"clients"`
	DurationSec float64 `json:"duration_sec"`

	Queries     int64   `json:"queries"`
	Errors      int64   `json:"errors"`
	Mismatches  int64   `json:"mismatches"`
	QPS         float64 `json:"qps"`
	P50Ms       float64 `json:"p50_ms"`
	P95Ms       float64 `json:"p95_ms"`
	P99Ms       float64 `json:"p99_ms"`
	MaxInFlight int64   `json:"max_in_flight"`
	// CacheLoads is the serve.cache.loads delta across the load phase; the
	// gate requires 0 (hits never touch the load path).
	CacheLoads int64  `json:"cache_loads_during_run"`
	Gate       string `json:"gate"` // "passed" or "failed" (never skipped: the gates are correctness, not timing)
}

func runServe(out string, scale float64, clients int, dur time.Duration) error {
	if clients < 1 {
		return fmt.Errorf("-serve-clients must be >= 1")
	}
	const dataset = "DBpedia2022"
	p := datagen.Profiles()[dataset]
	g := datagen.Generate(p, scale, 1)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	var nt bytes.Buffer
	if err := rio.WriteNTriples(&nt, g); err != nil {
		return err
	}
	var ttl bytes.Buffer
	tw := rio.NewTurtleWriter()
	tw.Prefix("d", p.NS)
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(&ttl, shacl.ToGraph(shapes)); err != nil {
		return err
	}
	data, shapesTTL := nt.String(), ttl.String()

	// The daemon: a real server.Server over a temp spool, loopback listener.
	dir, err := os.MkdirTemp("", "benchserve")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	mgr, err := jobs.Open(jobs.Config{Dir: filepath.Join(dir, "jobs"), Workers: 2})
	if err != nil {
		return err
	}
	defer mgr.Close()
	gm, err := server.OpenGraphs(server.GraphConfig{Dir: filepath.Join(dir, "graphs")})
	if err != nil {
		return err
	}
	defer gm.Close()
	srv := server.New(server.Config{
		Manager: mgr,
		Graphs:  gm,
		// Sized so the load test measures latency, not admission: the gate
		// fleet must never see 429.
		QueryMaxConcurrent: 2 * clients,
		QueryMaxQueue:      2 * clients,
		QueryTimeout:       time.Minute,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	// Populate both targets from the same bytes.
	if _, err := gm.Create("bench", "", shapesTTL, data); err != nil {
		return fmt.Errorf("create graph: %w", err)
	}
	job, err := mgr.Submit(jobs.Spec{}, shapesTTL, data)
	if err != nil {
		return fmt.Errorf("submit job: %w", err)
	}
	deadline := time.Now().Add(2 * time.Minute)
	for {
		j, err := mgr.Get(job.ID)
		if err != nil {
			return err
		}
		if j.State == jobs.StateDone {
			break
		}
		if j.State.Terminal() {
			return fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s not done after 2m", j.ID)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Single-threaded reference evaluation: the same transform the live
	// graph ran at creation, queried directly through internal/serve.
	cases, err := buildServeCases(g, shapesTTL, data, job.ID)
	if err != nil {
		return err
	}

	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        4 * clients,
		MaxIdleConnsPerHost: 4 * clients,
	}}

	// Warmup: every case once, single-threaded. This is where the job
	// snapshot's one and only cache load happens, and where the reference
	// answers are cross-checked before any concurrency enters the picture.
	for i := range cases {
		got, err := postServeQuery(client, base, cases[i].req)
		if err != nil {
			return fmt.Errorf("warmup case %d: %w", i, err)
		}
		if !bytes.Equal(got, cases[i].expect) {
			return fmt.Errorf("warmup case %d (%s %s): served answer diverges from single-threaded eval\nserved:   %s\nexpected: %s",
				i, cases[i].req.Lang, cases[i].req.Query, got, cases[i].expect)
		}
	}

	rep := ServeReport{
		CPUs:        runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Dataset:     dataset,
		Scale:       scale,
		Triples:     g.Len(),
		Clients:     clients,
		DurationSec: dur.Seconds(),
	}

	loadsBefore := obs.Default.Counter("serve.cache.loads").Value()
	var (
		wg         sync.WaitGroup
		errsN      atomic.Int64
		mismatches atomic.Int64
		inFlight   atomic.Int64
		maxFlight  atomic.Int64
	)
	lats := make([][]int64, clients)
	loadStart := time.Now()
	stopAt := loadStart.Add(dur)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []int64
			for i := 0; time.Now().Before(stopAt); i++ {
				sc := &cases[(c+i)%len(cases)]
				cur := inFlight.Add(1)
				for {
					old := maxFlight.Load()
					if cur <= old || maxFlight.CompareAndSwap(old, cur) {
						break
					}
				}
				start := time.Now()
				got, err := postServeQuery(client, base, sc.req)
				mine = append(mine, time.Since(start).Nanoseconds())
				inFlight.Add(-1)
				if err != nil {
					errsN.Add(1)
					continue
				}
				if !bytes.Equal(got, sc.expect) {
					mismatches.Add(1)
				}
			}
			lats[c] = mine
		}(c)
	}
	wg.Wait()
	// In-flight queries may overrun the nominal window; rate over the real
	// wall clock, not the configured duration.
	elapsed := time.Since(loadStart)
	rep.DurationSec = elapsed.Seconds()
	rep.CacheLoads = obs.Default.Counter("serve.cache.loads").Value() - loadsBefore
	rep.Errors = errsN.Load()
	rep.Mismatches = mismatches.Load()
	rep.MaxInFlight = maxFlight.Load()

	var all []int64
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	rep.Queries = int64(len(all))
	rep.QPS = float64(len(all)) / elapsed.Seconds()
	rep.P50Ms = percentileMs(all, 0.50)
	rep.P95Ms = percentileMs(all, 0.95)
	rep.P99Ms = percentileMs(all, 0.99)

	rep.Gate = "passed"
	if rep.Errors > 0 || rep.Mismatches > 0 || rep.CacheLoads != 0 || rep.Queries == 0 {
		rep.Gate = "failed"
	}
	if err := writeJSON(out, &rep); err != nil {
		return err
	}
	if rep.Gate == "failed" {
		return fmt.Errorf("serve gate failed: %d errors, %d mismatches, %d cache loads during run, %d queries",
			rep.Errors, rep.Mismatches, rep.CacheLoads, rep.Queries)
	}
	return nil
}

// buildServeCases assembles the query mix and computes each case's expected
// answer by evaluating it single-threaded against an in-process snapshot of
// the same dataset (no HTTP, no cache, no concurrency).
func buildServeCases(g *rdf.Graph, shapesTTL, data, jobID string) ([]serveCase, error) {
	sgGraph, err := rio.ParseTurtle(shapesTTL)
	if err != nil {
		return nil, err
	}
	sg, err := shacl.FromGraph(sgGraph)
	if err != nil {
		return nil, err
	}
	state, err := core.NewDeltaState(g.Clone(), sg, core.Parsimonious)
	if err != nil {
		return nil, err
	}
	snap := serve.NewSnapshot(g, state.Store(), state.SchemaDDL(), 0)

	// A concrete IRI for the $param case: the first subject in the graph.
	var anyIRI string
	g.ForEach(func(t rdf.Triple) bool {
		if t.S.IsIRI() {
			anyIRI = t.S.Value
			return false
		}
		return true
	})

	reqs := []server.QueryRequest{
		{Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`},
		{Lang: "cypher", Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`,
			Params: map[string]any{"iri": anyIRI}},
		{Lang: "cypher", Query: `MATCH (n) RETURN n.iri AS iri`, MaxRows: 16},
		{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`},
		{Lang: "sparql", Query: `ASK { ?s a ?c }`},
		{Lang: "sparql", Query: `SELECT ?s WHERE { ?s a ?c } ORDER BY ?s LIMIT 5 OFFSET 3`},
	}
	var cases []serveCase
	for _, r := range reqs {
		resp, err := serve.Execute(context.Background(), snap, serve.Request{
			Lang: r.Lang, Query: r.Query, Params: r.Params, MaxRows: r.MaxRows,
		})
		if err != nil {
			return nil, fmt.Errorf("reference eval %q: %w", r.Query, err)
		}
		expect, err := json.Marshal([]any{resp.Columns, resp.Rows()})
		if err != nil {
			return nil, err
		}
		// Alternate targets so both the live-snapshot path and the LRU-cache
		// path stay hot throughout the run.
		rg, rj := r, r
		rg.Graph = "bench"
		rj.Job = jobID
		cases = append(cases,
			serveCase{target: "graph", req: rg, expect: expect},
			serveCase{target: "job", req: rj, expect: expect},
		)
	}
	return cases, nil
}

// postServeQuery issues one POST /query and returns the canonical
// [columns, rows] encoding of the answer for byte comparison.
func postServeQuery(client *http.Client, base string, req server.QueryRequest) ([]byte, error) {
	raw, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := client.Post(base+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	var qr server.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil {
		return nil, err
	}
	return json.Marshal([]any{qr.Columns, qr.Rows})
}

func percentileMs(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return float64(sorted[i]) / 1e6
}
