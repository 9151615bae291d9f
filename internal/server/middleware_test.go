package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/promlint"
)

func TestRequestIDAssignedAndPropagated(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})

	// No inbound ID: one is generated and returned.
	rr, _ := doJSON(t, srv, "GET", "/healthz", nil)
	id := rr.Header().Get("X-Request-Id")
	if len(id) != 16 {
		t.Fatalf("generated request id %q, want 16 hex chars", id)
	}

	// A sane inbound ID is honored; the handler sees it in the context.
	var seen string
	h := srv.instrument(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-Id", "caller-id.42")
	h.ServeHTTP(httptest.NewRecorder(), req)
	if seen != "caller-id.42" {
		t.Fatalf("context request id %q, want inbound value", seen)
	}

	// A hostile inbound ID (bad characters / too long) is replaced.
	for _, bad := range []string{"has space", "quote\"", strings.Repeat("x", 100)} {
		req := httptest.NewRequest("GET", "/healthz", nil)
		req.Header.Set("X-Request-Id", bad)
		rr := httptest.NewRecorder()
		srv.ServeHTTP(rr, req)
		if got := rr.Header().Get("X-Request-Id"); got == bad || got == "" {
			t.Fatalf("hostile request id %q passed through as %q", bad, got)
		}
	}
}

// TestRequestIDMiddlewareConcurrent drives the instrumented handler from many
// goroutines; under -race this covers the in-flight gauge, the shared route
// histograms, and the access logger.
func TestRequestIDMiddlewareConcurrent(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("req-%d", i)
			req := httptest.NewRequest("GET", "/healthz", nil)
			req.Header.Set("X-Request-Id", want)
			rr := httptest.NewRecorder()
			srv.ServeHTTP(rr, req)
			if got := rr.Header().Get("X-Request-Id"); got != want {
				errs <- fmt.Errorf("request %d: id %q, want %q", i, got, want)
			}
			if rr.Code != http.StatusOK {
				errs <- fmt.Errorf("request %d: status %d", i, rr.Code)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := gInflight.Value(); got != 0 {
		t.Fatalf("in-flight gauge %d after all requests finished", got)
	}
}

func TestMetricsPrometheusExposition(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	j := submitOne(t, srv)
	waitDone(t, srv, j.ID)

	// Exercise the query tier so its labeled histograms and cache counters
	// are present in the exposition being linted.
	qrr, qraw := doJSON(t, srv, "POST", "/query", QueryRequest{
		Job: j.ID, Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`,
	})
	if qrr.Code != http.StatusOK {
		t.Fatalf("query: %d %s", qrr.Code, qraw)
	}

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body := rr.Body.String()
	if err := promlint.Lint(strings.NewReader(body)); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}
	for _, want := range []string{
		"s3pgd_http_request_seconds",
		"s3pgd_job_queue_wait_seconds",
		"s3pgd_jobs_accepted",
		"s3pgd_build_info",
		"s3pgd_uptime_seconds",
		"s3pgd_http_inflight",
		`s3pgd_serve_query_seconds_count{cache="miss",lang="cypher"}`,
		"s3pgd_serve_cache_loads",
		"s3pgd_serve_cache_bytes",
		// Out-of-core families (DESIGN.md §10): the admission-hysteresis
		// latch and the spill counters/gauge must lint and be scrapeable
		// even when the process has never spilled (zero-valued).
		"s3pgd_jobs_mem_pressure",
		"s3pgd_rdf_spill_bytes",
		"s3pgd_rdf_spill_segments",
		"s3pgd_rdf_spill_ops",
		"s3pgd_rdf_spill_pressure",
		// How live-graph batches were served: in place, or rebuilt and why.
		"s3pgd_core_delta_fast_applies",
		`s3pgd_core_delta_rebuilds{reason="type_delete"}`,
		`s3pgd_core_delta_rebuilds{reason="apply_error"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s:\n%s", want, body)
		}
	}
}

// TestMetricsJSONDeterministic is the regression gate server.go's metricsBody
// comment points at: two snapshots of unchanged registry state must render to
// byte-identical JSON (map-backed collections marshal in sorted key order; a
// representation change that iterates a map into a slice would break this).
func TestMetricsJSONDeterministic(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	j := submitOne(t, srv)
	waitDone(t, srv, j.ID)

	// The job reads as done a moment before its runner's last counter and
	// gauge updates land, so the pair is retaken while the registry still
	// moves; an ordering bug never yields two equal renderings of ~150 keys.
	var a, b []byte
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		var err error
		if a, err = json.Marshal(obs.Default.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if b, err = json.Marshal(obs.Default.Snapshot()); err != nil {
			t.Fatal(err)
		}
		if string(a) == string(b) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot JSON not deterministic:\n%s\n---\n%s", a, b)
		}
	}

	// And the default /metrics stays JSON with the documented top-level shape.
	rr, raw := doJSON(t, srv, "GET", "/metrics", nil)
	if rr.Code != http.StatusOK {
		t.Fatalf("metrics: %d", rr.Code)
	}
	var body struct {
		Jobs          *jobs.Stats      `json:"jobs"`
		UptimeSeconds *float64         `json:"uptime_seconds"`
		Metrics       *json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(raw, &body); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	if body.Jobs == nil || body.UptimeSeconds == nil || body.Metrics == nil {
		t.Fatalf("metrics body missing fields: %s", raw)
	}
}

func TestPprofMountViaConfig(t *testing.T) {
	srv, _ := newTestServer(t, jobs.Config{})
	if rr, _ := doJSON(t, srv, "GET", "/debug/pprof/", nil); rr.Code != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof: %d, want 404", rr.Code)
	}

	mcfg := jobs.Config{Dir: filepath.Join(t.TempDir(), "spool"), Log: testLogger(t)}
	mgr, err := jobs.Open(mcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { mgr.Close() })
	on := New(Config{Manager: mgr, Log: testLogger(t), EnablePprof: true})
	rr, raw := doJSON(t, on, "GET", "/debug/pprof/", nil)
	if rr.Code != http.StatusOK || !strings.Contains(string(raw), "profile") {
		t.Fatalf("pprof with EnablePprof: %d %q", rr.Code, raw)
	}
}
