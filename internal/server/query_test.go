package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/jobs"
)

func postQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (QueryResponse, int, string) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var qr QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(body, &qr); err != nil {
			t.Fatalf("query response: %v\n%s", err, body)
		}
		// The body is complete before its first byte is sent, so it carries
		// its length, and it is what encoding/json would have written.
		if resp.ContentLength != int64(len(body)) {
			t.Fatalf("Content-Length %d for a body of %d bytes", resp.ContentLength, len(body))
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(qr); err != nil || want.String() != string(body) {
			t.Fatalf("body is not the indented encoding of its own decoding (%v):\n%s", err, body)
		}
	}
	return qr, resp.StatusCode, string(body)
}

// rowCount pulls the single count(*) cell out of a response; JSON numbers
// decode as float64.
func rowCount(t *testing.T, qr QueryResponse, raw string) float64 {
	t.Helper()
	if len(qr.Rows) != 1 || len(qr.Rows[0]) != 1 {
		t.Fatalf("unexpected shape: %s", raw)
	}
	n, ok := qr.Rows[0][0].(float64)
	if !ok {
		t.Fatalf("count cell %T (%v)", qr.Rows[0][0], qr.Rows[0][0])
	}
	return n
}

func TestQueryLiveGraphReadYourWrites(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")

	qr, code, raw := postQuery(t, ts, QueryRequest{
		Graph: "uni", Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`,
	})
	if code != http.StatusOK {
		t.Fatalf("query: %d %s", code, raw)
	}
	if qr.LSN != 0 || qr.Cache != "live" || qr.Graph != "uni" {
		t.Fatalf("fresh graph response: %s", raw)
	}
	before := rowCount(t, qr, raw)

	// The SPARQL side of the same snapshot: the inserted triple is absent.
	qr, code, raw = postQuery(t, ts, QueryRequest{
		Graph: "uni", Lang: "sparql",
		Query: `ASK { <http://example.org/zed> <http://example.org/name> "Zed" }`,
	})
	if code != http.StatusOK || qr.Rows[0][0] != "false" {
		t.Fatalf("pre-update ask: %d %s", code, raw)
	}

	res, code, uraw := postUpdate(t, ts, "uni",
		exPrefixDecl+`INSERT DATA { ex:zed a ex:Person ; ex:name "Zed" . }`)
	if code != http.StatusAccepted {
		t.Fatalf("update: %d %s", code, uraw)
	}

	// Read-your-writes: a query after the 202 sees at least that LSN.
	qr, code, raw = postQuery(t, ts, QueryRequest{
		Graph: "uni", Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`,
	})
	if code != http.StatusOK {
		t.Fatalf("post-update query: %d %s", code, raw)
	}
	if qr.LSN != res.LSN {
		t.Fatalf("LSN = %d, want %d (read-your-writes)", qr.LSN, res.LSN)
	}
	if after := rowCount(t, qr, raw); after <= before {
		t.Fatalf("node count %v not above pre-update %v", after, before)
	}
	qr, code, raw = postQuery(t, ts, QueryRequest{
		Graph: "uni", Lang: "sparql",
		Query: `ASK { <http://example.org/zed> <http://example.org/name> "Zed" }`,
	})
	if code != http.StatusOK || qr.Rows[0][0] != "true" {
		t.Fatalf("post-update ask: %d %s", code, raw)
	}
}

func TestQueryJobSnapshotCache(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	j := submitOne(t, srv)
	if done := waitDone(t, srv, j.ID); done.State != jobs.StateDone {
		t.Fatalf("job state %s", done.State)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	qr, code, raw := postQuery(t, ts, QueryRequest{
		Job: j.ID, Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`,
	})
	if code != http.StatusOK {
		t.Fatalf("job query: %d %s", code, raw)
	}
	if qr.Cache != "miss" || qr.Job != j.ID || qr.LSN != 0 {
		t.Fatalf("first job query: %s", raw)
	}
	n := rowCount(t, qr, raw)
	if n <= 0 {
		t.Fatalf("transformed job has %v nodes", n)
	}

	// Second request must be a cache hit with the identical answer.
	qr2, code, raw2 := postQuery(t, ts, QueryRequest{
		Job: j.ID, Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`,
	})
	if code != http.StatusOK || qr2.Cache != "hit" {
		t.Fatalf("second job query: %d %s", code, raw2)
	}
	if rowCount(t, qr2, raw2) != n {
		t.Fatalf("hit answer %s != miss answer %s", raw2, raw)
	}

	// SPARQL runs over the job's retained source RDF.
	qr, code, raw = postQuery(t, ts, QueryRequest{
		Job: j.ID, Lang: "sparql", Query: `ASK { ?s ?p ?o }`,
	})
	if code != http.StatusOK || qr.Rows[0][0] != "true" {
		t.Fatalf("job sparql: %d %s", code, raw)
	}
}

// TestQueryJobAnswersAsLiveGraph: a finished job answers every query as a
// live graph over the same input does, because both are the one transform
// of that input. A lenient job over a malformed line is queryable (its
// snapshot used to re-parse the source strictly and answer 500), and a CRLF
// inside a literal comes back as written (the snapshot used to load the
// job's CSVs, which folded it to LF).
func TestQueryJobAnswersAsLiveGraph(t *testing.T) {
	genShapes, genData := testDataset()
	uniData := universityNT(t) + `<http://example.org/univ#bob> <http://example.org/univ#email> "line1\r\nline2" .` + "\n"
	for _, tc := range []struct {
		name                string
		shapes, data, clean string // clean is the live graph's input
		lenient             bool
		skipped             int64
		queries             []QueryRequest
	}{
		{"lenient job over a malformed line", genShapes,
			"<http://example.org/s> <http://example.org/p> .\n" + genData, genData, true, 1,
			[]QueryRequest{{Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`}}},
		{"a CRLF inside a literal", fixtures.UniversityShapesTurtle, uniData, uniData, false, 0,
			[]QueryRequest{
				{Lang: "cypher", Query: `MATCH (p)-[:email]->(v) RETURN v.value AS e`},
				{Lang: "sparql", Query: `SELECT ?e WHERE { ?p <http://example.org/univ#email> ?e }`},
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts, _ := newGraphServer(t, GraphConfig{})
			h := ts.Config.Handler
			j := submitJob(t, h, SubmitRequest{Lenient: tc.lenient, Shapes: tc.shapes, Data: tc.data})
			if done := waitDone(t, h, j.ID); done.State != jobs.StateDone || done.Skipped != tc.skipped {
				t.Fatalf("job ended %s with %d skipped, want done with %d: %s", done.State, done.Skipped, tc.skipped, done.Error)
			}
			createGraph(t, ts, "live", tc.shapes, tc.clean)
			for _, q := range tc.queries {
				q.Job = j.ID
				fromJob, code, raw := postQuery(t, ts, q)
				if code != http.StatusOK {
					t.Fatalf("%s over the job: %d %s", q.Query, code, raw)
				}
				q.Job, q.Graph = "", "live"
				fromGraph, code, graphRaw := postQuery(t, ts, q)
				if code != http.StatusOK {
					t.Fatalf("%s over the live graph: %d %s", q.Query, code, graphRaw)
				}
				if len(fromJob.Rows) == 0 || fmt.Sprint(fromJob.Columns, fromJob.Rows) != fmt.Sprint(fromGraph.Columns, fromGraph.Rows) {
					t.Fatalf("%s: the job answers\n%s\nthe live graph\n%s", q.Query, raw, graphRaw)
				}
			}
		})
	}
}

func TestQueryErrorMapping(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")

	cases := []struct {
		name string
		req  QueryRequest
		want int
	}{
		{"no target", QueryRequest{Lang: "cypher", Query: "RETURN 1"}, http.StatusBadRequest},
		{"both targets", QueryRequest{Graph: "uni", Job: "x", Lang: "cypher", Query: "RETURN 1"}, http.StatusBadRequest},
		{"unknown graph", QueryRequest{Graph: "nope", Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`}, http.StatusNotFound},
		{"unknown job", QueryRequest{Job: "nope", Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`}, http.StatusNotFound},
		{"bad lang", QueryRequest{Graph: "uni", Lang: "datalog", Query: "x"}, http.StatusBadRequest},
		{"bad cypher", QueryRequest{Graph: "uni", Lang: "cypher", Query: "MATCH (("}, http.StatusBadRequest},
		{"bad sparql", QueryRequest{Graph: "uni", Lang: "sparql", Query: "SELECT"}, http.StatusBadRequest},
		{"bad timeout", QueryRequest{Graph: "uni", Lang: "cypher", Query: "RETURN 1", Timeout: "banana"}, http.StatusBadRequest},
		{"negative timeout", QueryRequest{Graph: "uni", Lang: "cypher", Query: "RETURN 1", Timeout: "-1s"}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if _, code, raw := postQuery(t, ts, tc.req); code != tc.want {
			t.Errorf("%s: %d (want %d): %s", tc.name, code, tc.want, raw)
		}
	}

	// An already-expired deadline surfaces as 503 with a Retry-After hint.
	raw, _ := json.Marshal(QueryRequest{
		Graph: "uni", Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`, Timeout: "1ns",
	})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired deadline: %d %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// TestQueryAndUpdateBodyTooLarge pins the -max-body contract on the two
// body-bearing serve endpoints: an oversized payload is a 413, not a
// malformed-request 400 (the JSON decoder surfaces the MaxBytesReader cutoff
// as a decode error, which must not be conflated with bad syntax).
func TestQueryAndUpdateBodyTooLarge(t *testing.T) {
	mgr, err := jobs.Open(jobs.Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	gm := newGraphManager(t, GraphConfig{})
	ts := httptest.NewServer(New(Config{Manager: mgr, Graphs: gm, MaxBodyBytes: 1024}))
	t.Cleanup(ts.Close)

	big := strings.Repeat("x", 2048)
	for _, tc := range []struct{ name, path, body string }{
		{"query", "/query", `{"graph":"g","lang":"cypher","query":"` + big + `"}`},
		{"update", "/graphs/g/update", `{"update":"` + big + `"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge {
				t.Fatalf("POST %s: %d (want 413): %s", tc.path, resp.StatusCode, raw)
			}
			if !strings.Contains(string(raw), "1024") {
				t.Errorf("413 body should name the limit: %s", raw)
			}
		})
	}
}

// TestBodyTrailingData: the JSON-bodied endpoints take one value and
// nothing after it but white space. A second value or stray text used to be
// dropped silently, the request served as if it were not there.
func TestBodyTrailingData(t *testing.T) {
	ts, _ := newGraphServer(t, GraphConfig{})
	createUniversityGraph(t, ts, "uni")
	create, err := json.Marshal(GraphCreateRequest{Mode: "parsimonious", Shapes: fixtures.UniversityShapesTurtle, Data: universityNT(t)})
	if err != nil {
		t.Fatal(err)
	}
	submit, err := json.Marshal(SubmitRequest{Shapes: fixtures.UniversityShapesTurtle, Data: universityNT(t)})
	if err != nil {
		t.Fatal(err)
	}
	routes := []struct {
		name, method, path, body string
		ok                       int
	}{
		{"query", http.MethodPost, "/query", `{"graph":"uni","lang":"sparql","query":"SELECT ?s WHERE { ?s ?p ?o }"}`, http.StatusOK},
		{"graph create", http.MethodPut, "/graphs/g", string(create), http.StatusCreated},
		{"job submit", http.MethodPost, "/jobs", string(submit), http.StatusAccepted},
	}
	tails := []struct {
		name, tail string
		ok         bool
	}{
		{"clean", "", true},
		{"trailing object", `{"max_rows":1}`, false},
		{"trailing garbage", "garbage", false},
		{"trailing whitespace", " \r\n\t ", true},
	}
	for _, rt := range routes {
		for i, tl := range tails {
			t.Run(rt.name+"/"+tl.name, func(t *testing.T) {
				path := rt.path
				if rt.method == http.MethodPut {
					path += fmt.Sprint(i) // a fresh graph id per case
				}
				req, err := http.NewRequest(rt.method, ts.URL+path, strings.NewReader(rt.body+tl.tail))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				raw, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := rt.ok
				if !tl.ok {
					want = http.StatusBadRequest
				}
				if resp.StatusCode != want {
					t.Fatalf("%s %s: %d, want %d: %s", rt.method, path, resp.StatusCode, want, raw)
				}
				if !tl.ok && !strings.Contains(string(raw), "malformed request") {
					t.Errorf("400 body should say the request is malformed: %s", raw)
				}
			})
		}
	}
}
