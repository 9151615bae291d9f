package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

var testDataset = sync.OnceValues(func() (string, string) {
	_, _, shapes, data := generateDataset(datagen.University(), 0.2, 7, 0.01)
	return shapes, data
})

// generateDataset returns a generated graph and its extracted shapes, both
// also in the forms the daemon takes: Turtle and N-Triples.
func generateDataset(p *datagen.Profile, scale float64, seed int64, minSupport float64) (*rdf.Graph, *shacl.Schema, string, string) {
	g := datagen.Generate(p, scale, seed)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: minSupport})
	var sb bytes.Buffer
	tw := rio.NewTurtleWriter()
	tw.Prefix("d", p.NS)
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(&sb, shacl.ToGraph(shapes)); err != nil {
		panic(err)
	}
	var db bytes.Buffer
	if err := rio.WriteNTriples(&db, g); err != nil {
		panic(err)
	}
	return g, shapes, sb.String(), db.String()
}

// newTestServer stands up a manager + server over a temp spool.
func newTestServer(t *testing.T, mcfg jobs.Config) (*Server, *jobs.Manager) {
	t.Helper()
	if mcfg.Dir == "" {
		mcfg.Dir = filepath.Join(t.TempDir(), "spool")
	}
	mcfg.Log = testLogger(t)
	mgr, err := jobs.Open(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	return New(Config{Manager: mgr, Log: testLogger(t)}), mgr
}

// tlogWriter routes structured log lines into the test log.
type tlogWriter struct{ t *testing.T }

func (w tlogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *obs.Logger { return obs.NewLogger(tlogWriter{t}, "test") }

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var rd *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(raw)
	} else {
		rd = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, rd)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr, rr.Body.Bytes()
}

func submitOne(t *testing.T, h http.Handler) jobs.Job {
	t.Helper()
	shapes, data := testDataset()
	return submitJob(t, h, SubmitRequest{Shapes: shapes, Data: data})
}

func submitJob(t *testing.T, h http.Handler, req SubmitRequest) jobs.Job {
	t.Helper()
	rr, raw := doJSON(t, h, "POST", "/jobs", req)
	if rr.Code != http.StatusAccepted {
		t.Fatalf("submit: %d %s", rr.Code, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatal(err)
	}
	if loc := rr.Header().Get("Location"); loc != "/jobs/"+j.ID {
		t.Fatalf("Location: %q", loc)
	}
	return j
}

func waitDone(t *testing.T, h http.Handler, id string) jobs.Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		rr, raw := doJSON(t, h, "GET", "/jobs/"+id, nil)
		if rr.Code != http.StatusOK {
			t.Fatalf("status: %d %s", rr.Code, raw)
		}
		var j jobs.Job
		if err := json.Unmarshal(raw, &j); err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("job did not finish in 30s")
	return jobs.Job{}
}

func TestSubmitStatusOutputRoundTrip(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	j := submitOne(t, srv)
	done := waitDone(t, srv, j.ID)
	if done.State != jobs.StateDone {
		t.Fatalf("job: %s (%s)", done.State, done.Error)
	}
	for _, name := range done.Outputs {
		rr, raw := doJSON(t, srv, "GET", "/jobs/"+j.ID+"/output/"+name, nil)
		if rr.Code != http.StatusOK || len(raw) == 0 {
			t.Fatalf("output %s: %d (%d bytes)", name, rr.Code, len(raw))
		}
	}
	// The list includes the job.
	rr, raw := doJSON(t, srv, "GET", "/jobs", nil)
	if rr.Code != http.StatusOK || !strings.Contains(string(raw), j.ID) {
		t.Fatalf("list: %d %s", rr.Code, raw)
	}
}

func TestSubmitRejectsBadRequests(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	shapes, data := testDataset()
	cases := []struct {
		name string
		body any
		raw  string
		want int
	}{
		{"malformed json", nil, "{not json", http.StatusBadRequest},
		{"bad timeout", SubmitRequest{Timeout: "soon", Shapes: shapes, Data: data}, "", http.StatusBadRequest},
		{"bad mode", SubmitRequest{Mode: "extravagant", Shapes: shapes, Data: data}, "", http.StatusBadRequest},
		{"bad shapes", SubmitRequest{Shapes: "@prefix broken", Data: data}, "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var rr *httptest.ResponseRecorder
			if tc.raw != "" {
				req := httptest.NewRequest("POST", "/jobs", strings.NewReader(tc.raw))
				rr = httptest.NewRecorder()
				srv.ServeHTTP(rr, req)
			} else {
				rr, _ = doJSON(t, srv, "POST", "/jobs", tc.body)
			}
			if rr.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", rr.Code, tc.want, rr.Body)
			}
		})
	}
}

func TestSubmitBodyTooLarge(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	srv.cfg.MaxBodyBytes = 1024
	big := SubmitRequest{Shapes: strings.Repeat("x", 2048), Data: "y"}
	rr, _ := doJSON(t, srv, "POST", "/jobs", big)
	if rr.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", rr.Code)
	}
}

func TestQueueFullGets429WithRetryAfter(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _ := newTestServer(t, jobs.Config{
		Workers:    1,
		QueueDepth: 1,
		BeforeRun:  func(string) { <-release },
	})
	submitOne(t, srv) // occupies the worker
	// Wait for the worker to pick it up so the queue slot frees.
	shapes, data := testDataset()
	deadline := time.Now().Add(10 * time.Second)
	var last *httptest.ResponseRecorder
	for time.Now().Before(deadline) {
		rr, _ := doJSON(t, srv, "POST", "/jobs", SubmitRequest{Shapes: shapes, Data: data})
		if rr.Code == http.StatusAccepted {
			last = nil
			continue // filled the queue slot; next submit must bounce
		}
		last = rr
		break
	}
	if last == nil {
		t.Fatal("queue never filled")
	}
	if last.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", last.Code, last.Body)
	}
	if last.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

func TestUnknownJobAndOutputErrors(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	srv, _ := newTestServer(t, jobs.Config{BeforeRun: func(string) { <-release }})
	if rr, _ := doJSON(t, srv, "GET", "/jobs/nope", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown job: %d", rr.Code)
	}
	if rr, _ := doJSON(t, srv, "GET", "/jobs/nope/output/nodes.csv", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("unknown job output: %d", rr.Code)
	}
	j := submitOne(t, srv)
	// Still running (blocked): its outputs are not servable yet.
	if rr, _ := doJSON(t, srv, "GET", "/jobs/"+j.ID+"/output/nodes.csv", nil); rr.Code != http.StatusConflict {
		t.Fatalf("unfinished output: %d", rr.Code)
	}
	if rr, _ := doJSON(t, srv, "GET", "/jobs/"+j.ID+"/output/secrets.txt", nil); rr.Code != http.StatusConflict {
		t.Fatalf("bad output name: %d", rr.Code)
	}
}

func TestHealthReadyAndLameDuck(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	if rr, _ := doJSON(t, srv, "GET", "/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rr.Code)
	}
	if rr, _ := doJSON(t, srv, "GET", "/readyz", nil); rr.Code != http.StatusOK {
		t.Fatalf("readyz: %d", rr.Code)
	}
	srv.EnterLameDuck()
	// Liveness stays green; readiness and admission flip.
	if rr, _ := doJSON(t, srv, "GET", "/healthz", nil); rr.Code != http.StatusOK {
		t.Fatalf("healthz in lame duck: %d", rr.Code)
	}
	rr, raw := doJSON(t, srv, "GET", "/readyz", nil)
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "lame duck") {
		t.Fatalf("readyz in lame duck: %d %s", rr.Code, raw)
	}
	shapes, data := testDataset()
	if rr, _ := doJSON(t, srv, "POST", "/jobs", SubmitRequest{Shapes: shapes, Data: data}); rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit in lame duck: %d", rr.Code)
	}
}

// TestReadyz503CarriesRetryAfter: every 503 the server produces — readyz and
// submit rejections alike — carries a positive Retry-After hint so
// clients back off instead of hammering a server that is guaranteed to shed
// them.
func TestReadyz503CarriesRetryAfter(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	srv.EnterLameDuck()
	rr, _ := doJSON(t, srv, "GET", "/readyz", nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("lame-duck readyz: %d", rr.Code)
	}
	if ra := rr.Header().Get("Retry-After"); ra == "" {
		t.Fatal("readyz 503 without Retry-After")
	} else if n, err := strconv.Atoi(ra); err != nil || n < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", ra)
	}
	shapes, data := testDataset()
	rr, _ = doJSON(t, srv, "POST", "/jobs", SubmitRequest{Shapes: shapes, Data: data})
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("lame-duck submit: code=%d Retry-After=%q", rr.Code, rr.Header().Get("Retry-After"))
	}
}

func TestReadyzReflectsMemPressure(t *testing.T) {
	// Pin enough live heap that HeapAlloc is certainly above the 1 MiB
	// watermark: a fresh small test process can sit under 1 MiB and make
	// the expected pressure vanish.
	ballast := make([]byte, 8<<20)
	defer runtime.KeepAlive(ballast)
	srv, _ := newTestServer(t, jobs.Config{MaxMemMB: 1})
	rr, raw := doJSON(t, srv, "GET", "/readyz", nil)
	if rr.Code != http.StatusServiceUnavailable || !strings.Contains(string(raw), "memory") {
		t.Fatalf("readyz under memory pressure: %d %s", rr.Code, raw)
	}
	shapes, data := testDataset()
	rr, _ = doJSON(t, srv, "POST", "/jobs", SubmitRequest{Shapes: shapes, Data: data})
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit under memory pressure: %d", rr.Code)
	}
	if rr.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	j := submitOne(t, srv)
	waitDone(t, srv, j.ID)
	rr, raw := doJSON(t, srv, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	var body struct {
		Jobs    jobs.Stats `json:"jobs"`
		Metrics struct {
			Counters map[string]int64 `json:"counters"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("metrics not JSON: %v\n%s", err, raw)
	}
	if body.Jobs.Done == 0 {
		t.Fatalf("metrics jobs stats: %+v", body.Jobs)
	}
	if body.Metrics.Counters["jobs.accepted"] == 0 {
		t.Fatal("metrics missing jobs.accepted counter")
	}
}
