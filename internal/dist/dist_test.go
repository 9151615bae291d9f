package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rio"
)

// writeInputs materializes the shared dataset as files for a coordinator run,
// returning the paths plus the raw strings for building references.
func writeInputs(t *testing.T) (dataPath, shapesPath, shapes, data string) {
	t.Helper()
	shapes, data = distDataset()
	dir := t.TempDir()
	dataPath = filepath.Join(dir, "input.nt")
	shapesPath = filepath.Join(dir, "shapes.ttl")
	if err := os.WriteFile(dataPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shapesPath, []byte(shapes), 0o644); err != nil {
		t.Fatal(err)
	}
	return
}

// referenceOutputs runs the sequential single-process pipeline — the bytes a
// distributed run must reproduce exactly.
func referenceOutputs(t *testing.T, shapes, data string) (nodes, edges, ddl string) {
	t.Helper()
	g, err := rio.LoadNTriplesWith(context.Background(), strings.NewReader(data), rio.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return transformBytes(t, g, shapes)
}

// startWorker serves one in-process Worker over loopback HTTP.
func startWorker(t *testing.T, w *Worker) *httptest.Server {
	t.Helper()
	if w.SpoolDir == "" {
		w.SpoolDir = filepath.Join(t.TempDir(), "spool")
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /shards", w.Handle)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func readOutputs(t *testing.T, dir string) (nodes, edges, ddl string) {
	t.Helper()
	read := func(name string) string {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	return read("nodes.csv"), read("edges.csv"), read("schema.ddl")
}

// TestCoordinatorEndToEnd fans seven shards over three loopback workers and
// checks the committed outputs are byte-identical to the sequential pipeline,
// with every shard completed exactly once.
func TestCoordinatorEndToEnd(t *testing.T) {
	dataPath, shapesPath, shapes, data := writeInputs(t)
	wantNodes, wantEdges, wantDDL := referenceOutputs(t, shapes, data)

	cfg := Config{
		DataPath: dataPath, ShapesPath: shapesPath,
		OutDir: filepath.Join(t.TempDir(), "out"), StateDir: filepath.Join(t.TempDir(), "state"),
		ShardCount: 7, LeaseTTL: time.Minute, SpeculateAfter: time.Hour,
		WaitWorkers: time.Minute, ShardAttempts: 8,
	}
	c := New(cfg)
	for _, id := range []string{"w1", "w2", "w3"} {
		srv := startWorker(t, &Worker{ID: id, MaxConcurrent: 8})
		c.RegisterWorker(id, srv.URL)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}

	nodes, edges, ddl := readOutputs(t, cfg.OutDir)
	if nodes != wantNodes || edges != wantEdges || ddl != wantDDL {
		t.Fatal("distributed outputs differ from the sequential pipeline")
	}
	led := c.Ledger()
	if !led.AllDone() || !led.Merged() {
		t.Fatal("run finished without a fully done, merged ledger")
	}
	remote := 0
	for _, s := range led.Shards() {
		if s.Completions != 1 {
			t.Fatalf("shard %d: completions=%d, want exactly 1", s.ID, s.Completions)
		}
		if s.Worker != "local" {
			remote++
		}
	}
	if remote == 0 {
		t.Fatal("no shard ran on a remote worker")
	}

	// The control surface reflects the terminal state.
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/dist/status", nil))
	var status statusBody
	if err := json.Unmarshal(rr.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.State != "merged" || status.Done != 7 || status.Total != 7 {
		t.Fatalf("status: %+v", status)
	}
}

// TestCoordinatorNoWorkersDegradesLocal checks a coordinator with an empty
// registry completes every shard in-process, byte-identically.
func TestCoordinatorNoWorkersDegradesLocal(t *testing.T) {
	dataPath, shapesPath, shapes, data := writeInputs(t)
	wantNodes, wantEdges, wantDDL := referenceOutputs(t, shapes, data)

	cfg := Config{
		DataPath: dataPath, ShapesPath: shapesPath,
		OutDir: filepath.Join(t.TempDir(), "out"), StateDir: filepath.Join(t.TempDir(), "state"),
		ShardCount: 4, WaitWorkers: 50 * time.Millisecond, SpeculateAfter: time.Hour,
	}
	c := New(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	nodes, edges, ddl := readOutputs(t, cfg.OutDir)
	if nodes != wantNodes || edges != wantEdges || ddl != wantDDL {
		t.Fatal("degraded-local outputs differ from the sequential pipeline")
	}
	for _, s := range c.Ledger().Shards() {
		if s.Worker != "local" {
			t.Fatalf("shard %d ran on %q with no workers registered", s.ID, s.Worker)
		}
	}
}

// TestLingerEvictsAfterRun: a worker whose lease lapses once every shard is
// done — too late for dispatch to see — is still evicted, and logged, by a
// coordinator that lingers to be scraped.
func TestLingerEvictsAfterRun(t *testing.T) {
	dataPath, shapesPath, _, _ := writeInputs(t)
	var logged syncBuffer
	c := New(Config{
		DataPath: dataPath, ShapesPath: shapesPath,
		OutDir: filepath.Join(t.TempDir(), "out"), StateDir: filepath.Join(t.TempDir(), "state"),
		ShardCount: 2, LeaseTTL: 40 * time.Millisecond, WaitWorkers: time.Millisecond, SpeculateAfter: time.Hour,
		Log: obs.NewLogger(&logged, "coordinator"),
	})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	c.RegisterWorker("late", "http://127.0.0.1:1") // never heartbeats again
	lingering, stop := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.Linger(lingering)
	}()
	for c.reg.Live() > 0 && ctx.Err() == nil {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	<-done
	if c.reg.Live() != 0 || !strings.Contains(logged.String(), "worker_evicted") {
		t.Fatalf("lingering coordinator kept the dead worker (live=%d); log:\n%s", c.reg.Live(), logged.String())
	}
	if !c.Ledger().Merged() {
		t.Fatal("eviction after the merge disturbed the ledger")
	}
}

// syncBuffer is a bytes.Buffer a logger and the test may use at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCoordinatorSpeculationReassigns parks one shard on a straggler and
// checks the speculative twin on the other worker delivers it, with the
// reassignment visible in the shard's timeline.
func TestCoordinatorSpeculationReassigns(t *testing.T) {
	dataPath, shapesPath, shapes, data := writeInputs(t)
	wantNodes, wantEdges, wantDDL := referenceOutputs(t, shapes, data)

	cfg := Config{
		DataPath: dataPath, ShapesPath: shapesPath,
		OutDir: filepath.Join(t.TempDir(), "out"), StateDir: filepath.Join(t.TempDir(), "state"),
		ShardCount: 2, LeaseTTL: time.Minute, SpeculateAfter: 300 * time.Millisecond,
		WaitWorkers: time.Minute, ShardAttempts: 8,
	}
	c := New(cfg)
	// "a" sorts first so the picker's deterministic tiebreak parks the first
	// shard on the straggler.
	slow := startWorker(t, &Worker{ID: "a", MaxConcurrent: 8, Delay: 30 * time.Second})
	fast := startWorker(t, &Worker{ID: "b", MaxConcurrent: 8})
	c.RegisterWorker("a", slow.URL)
	c.RegisterWorker("b", fast.URL)

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	nodes, edges, ddl := readOutputs(t, cfg.OutDir)
	if nodes != wantNodes || edges != wantEdges || ddl != wantDDL {
		t.Fatal("outputs differ from the sequential pipeline")
	}
	reassigned := false
	for _, s := range c.Ledger().Shards() {
		if s.Completions != 1 {
			t.Fatalf("shard %d: completions=%d", s.ID, s.Completions)
		}
		assigns := 0
		for _, ev := range s.Timeline {
			if ev.Phase == "assigned" {
				assigns++
			}
		}
		if assigns >= 2 && s.Worker == "b" {
			reassigned = true
		}
	}
	if !reassigned {
		t.Fatal("no shard shows a speculative reassignment landing on the fast worker")
	}
}

// TestCoordinatorResume interrupts a run mid-flight and checks a fresh
// coordinator over the same state directory finishes from the checkpoint:
// completed shards keep their original worker, the rest run anew, and the
// final bytes still match the sequential pipeline.
func TestCoordinatorResume(t *testing.T) {
	dataPath, shapesPath, shapes, data := writeInputs(t)
	wantNodes, wantEdges, wantDDL := referenceOutputs(t, shapes, data)

	outDir := filepath.Join(t.TempDir(), "out")
	stateDir := filepath.Join(t.TempDir(), "state")
	base := Config{
		DataPath: dataPath, ShapesPath: shapesPath, OutDir: outDir, StateDir: stateDir,
		ShardCount: 6, LeaseTTL: time.Minute, SpeculateAfter: time.Hour,
		WaitWorkers: time.Minute, ShardAttempts: 16,
		Retry: faultio.RetryPolicy{MaxAttempts: 20, BaseDelay: 20 * time.Millisecond, MaxDelay: 50 * time.Millisecond},
	}

	// Phase 1: a single slow worker paces completions; cancel after two.
	c1 := New(base)
	slow := startWorker(t, &Worker{ID: "w-slow", MaxConcurrent: 1, Delay: 250 * time.Millisecond})
	c1.RegisterWorker("w-slow", slow.URL)
	ctx1, cancel1 := context.WithCancelCause(context.Background())
	interrupted := errors.New("test: interrupt")
	done := make(chan error, 1)
	go func() { done <- c1.Run(ctx1) }()
	deadline := time.After(30 * time.Second)
	for {
		led := c1.Ledger()
		if led != nil {
			if n, _ := led.Done(); n >= 2 {
				cancel1(interrupted)
				break
			}
		}
		select {
		case <-deadline:
			t.Fatal("phase 1 never completed two shards")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := <-done; !errors.Is(err, interrupted) {
		t.Fatalf("interrupted run returned %v, want the cancellation cause", err)
	}
	cancel1(nil)

	// Phase 2: a fresh coordinator resumes from the ledger with a fast worker.
	c2 := New(base)
	fastSrv := startWorker(t, &Worker{ID: "w-fast", MaxConcurrent: 8})
	c2.RegisterWorker("w-fast", fastSrv.URL)
	ctx2, cancel2 := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel2()
	if err := c2.Run(ctx2); err != nil {
		t.Fatal(err)
	}
	led := c2.Ledger()
	if !led.Resumed() {
		t.Fatal("phase 2 did not resume from the persisted ledger")
	}
	kept, fresh := 0, 0
	for _, s := range led.Shards() {
		if s.Completions != 1 {
			t.Fatalf("shard %d: completions=%d", s.ID, s.Completions)
		}
		switch s.Worker {
		case "w-slow":
			kept++
		case "w-fast", "local":
			fresh++
		}
	}
	if kept == 0 {
		t.Fatal("resume re-ran shards that were already done")
	}
	if fresh == 0 {
		t.Fatal("resume had no shards left to run — the interrupt landed too late to test anything")
	}
	nodes, edges, ddl := readOutputs(t, outDir)
	if nodes != wantNodes || edges != wantEdges || ddl != wantDDL {
		t.Fatal("resumed outputs differ from the sequential pipeline")
	}
}

// TestRegistryLeaseExpiry drives the heartbeat/eviction cycle against a fake
// clock.
func TestRegistryLeaseExpiry(t *testing.T) {
	r := NewRegistry(10 * time.Second)
	clock := time.Now()
	r.now = func() time.Time { return clock }

	if fresh := r.Upsert("w1", "http://a"); !fresh {
		t.Fatal("first Upsert must report fresh")
	}
	if fresh := r.Upsert("w1", "http://a"); fresh {
		t.Fatal("heartbeat must not report fresh")
	}
	r.Upsert("w2", "http://b")

	clock = clock.Add(6 * time.Second)
	r.Upsert("w2", "http://b") // w2 keeps heartbeating; w1 goes silent
	clock = clock.Add(5 * time.Second)
	evicted := r.Reap()
	if len(evicted) != 1 || evicted[0] != "w1" {
		t.Fatalf("evicted %v, want [w1]", evicted)
	}
	if r.Live() != 1 {
		t.Fatalf("live=%d", r.Live())
	}
	// A returning worker is fresh again.
	if fresh := r.Upsert("w1", "http://a"); !fresh {
		t.Fatal("re-registration after eviction must report fresh")
	}
}

// TestRegistryPickBalances checks least-inflight selection, deterministic
// tiebreak, and sender exclusion.
func TestRegistryPickBalances(t *testing.T) {
	r := NewRegistry(time.Minute)
	r.Upsert("b", "http://b")
	r.Upsert("a", "http://a")
	id, _, ok := r.Pick(nil)
	if !ok || id != "a" {
		t.Fatalf("tiebreak pick: %q", id)
	}
	id, _, ok = r.Pick(nil)
	if !ok || id != "b" {
		t.Fatalf("least-inflight pick: %q", id)
	}
	// Both have one in flight; excluding "a" must yield "b".
	id, _, ok = r.Pick(map[string]bool{"a": true})
	if !ok || id != "b" {
		t.Fatalf("exclusion pick: %q", id)
	}
	if _, _, ok := r.Pick(map[string]bool{"a": true, "b": true}); ok {
		t.Fatal("picking with everyone excluded must fail")
	}
	r.Done("b", true)
	r.Done("b", false)
	ws := r.Workers()
	for _, w := range ws {
		if w.ID == "b" && (w.Inflight != 0 || w.Shards != 1) {
			t.Fatalf("b after Done: %+v", w)
		}
	}
}

// TestWorkerHandleStatusMapping checks the HTTP surface: busy → 429 with
// Retry-After, transient spool fault → 503 with Retry-After, malformed → 400.
func TestWorkerHandleStatusMapping(t *testing.T) {
	req := func(body string) *http.Request {
		return httptest.NewRequest("POST", "/shards", strings.NewReader(body))
	}
	valid, err := json.Marshal(&ShardRequest{RunID: "r", Shard: 0, Data: "<http://e/s> <http://e/p> \"v\" .\n"})
	if err != nil {
		t.Fatal(err)
	}

	w := &Worker{ID: "w", SpoolDir: filepath.Join(t.TempDir(), "spool"), MaxConcurrent: 1}
	// Saturate the semaphore so the next request bounces busy.
	if !w.acquire() {
		t.Fatal("acquire")
	}
	rr := httptest.NewRecorder()
	w.Handle(rr, req(string(valid)))
	if rr.Code != http.StatusTooManyRequests || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("busy: %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
	}
	w.release()

	rr = httptest.NewRecorder()
	w.Handle(rr, req(string(valid)))
	if rr.Code != http.StatusOK {
		t.Fatalf("healthy: %d %s", rr.Code, rr.Body.String())
	}
	var res ShardResult
	if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Triples) != 3 || res.Worker != "w" {
		t.Fatalf("result: %+v", res)
	}

	faulty := &Worker{ID: "w2", SpoolDir: filepath.Join(t.TempDir(), "spool"),
		FS: &faultio.FS{TransientEvery: 1}}
	rr = httptest.NewRecorder()
	faulty.Handle(rr, req(string(valid)))
	if rr.Code != http.StatusServiceUnavailable || rr.Header().Get("Retry-After") == "" {
		t.Fatalf("transient: %d, Retry-After %q", rr.Code, rr.Header().Get("Retry-After"))
	}

	rr = httptest.NewRecorder()
	w.Handle(rr, req("{not json"))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("malformed: %d", rr.Code)
	}
}

// TestWorkerConcurrentFirstRequests hammers a fresh worker with parallel
// first requests. Regression: the semaphore used to be lazily initialized
// with a racy nil-check, so two simultaneous first requests could mint
// separate channels — breaking the MaxConcurrent cap and wedging a handler's
// release forever (this test then hangs, and -race flags the write).
func TestWorkerConcurrentFirstRequests(t *testing.T) {
	w := &Worker{ID: "w", SpoolDir: filepath.Join(t.TempDir(), "spool"),
		MaxConcurrent: 1, Delay: 100 * time.Millisecond}
	raw, err := json.Marshal(&ShardRequest{RunID: "r", Shard: 0, Data: "<http://e/s> <http://e/p> \"v\" .\n"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	codes := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			w.Handle(rr, httptest.NewRequest("POST", "/shards", strings.NewReader(string(raw))))
			codes <- rr.Code
		}()
	}
	wg.Wait()
	close(codes)
	ok, busy := 0, 0
	for code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			busy++
		default:
			t.Fatalf("unexpected status %d", code)
		}
	}
	if ok < 1 || ok+busy != n {
		t.Fatalf("ok=%d busy=%d, want every request answered and at least one accepted", ok, busy)
	}
}

// TestWorkerRejectsUnsafeRunID checks the spool-path guard: run ids arrive
// over an unauthenticated endpoint and are spliced into a file name, so
// anything that could escape SpoolDir must bounce with 400 (and no retry).
func TestWorkerRejectsUnsafeRunID(t *testing.T) {
	w := &Worker{ID: "w", SpoolDir: filepath.Join(t.TempDir(), "spool"), MaxConcurrent: 1}
	post := func(runID string) int {
		t.Helper()
		raw, err := json.Marshal(&ShardRequest{RunID: runID, Shard: 0, Data: "<http://e/s> <http://e/p> \"v\" .\n"})
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		w.Handle(rr, httptest.NewRequest("POST", "/shards", strings.NewReader(string(raw))))
		return rr.Code
	}
	for _, id := range []string{"", "../../tmp/evil", "a/b", `a\b`, "run\x00id", strings.Repeat("x", 201)} {
		if code := post(id); code != http.StatusBadRequest {
			t.Fatalf("run id %q: status %d, want 400", id, code)
		}
	}
	// The id the coordinator derives (base name + size) still passes.
	if code := post("input.nt-1024"); code != http.StatusOK {
		t.Fatalf("derived-style run id: status %d, want 200", code)
	}
}

// TestCompleteLateDuplicateKeepsAcceptedBlob checks that a late result for an
// already-done shard never touches the persisted blob: a mismatched
// speculative twin is reported, but the accepted blob still verifies against
// the ledger hash so the merge can finish.
func TestCompleteLateDuplicateKeepsAcceptedBlob(t *testing.T) {
	c := New(Config{StateDir: t.TempDir(), ShardCount: 1})
	res1, err := ScanShard("<http://e/s> <http://e/p> \"a\" .\n", 0, false, -1)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := ScanShard("<http://e/s> <http://e/p> \"b\" .\n", 0, false, -1)
	if err != nil {
		t.Fatal(err)
	}
	led, err := NewLedger(c.ledgerPath(), nil, "run", "input.nt", 32, []Range{{Start: 0, End: 32}})
	if err != nil {
		t.Fatal(err)
	}
	c.led = led

	if err := c.complete(0, "w1", res1); err != nil {
		t.Fatal(err)
	}
	accepted, err := os.ReadFile(c.resultPath(0))
	if err != nil {
		t.Fatal(err)
	}

	if err := c.complete(0, "w2", res2); err == nil {
		t.Fatal("mismatched duplicate result must be reported")
	}
	after, err := os.ReadFile(c.resultPath(0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(accepted, after) {
		t.Fatal("mismatched duplicate overwrote the accepted blob")
	}
	if _, err := c.loadResult(0, led.Shards()[0].Hash); err != nil {
		t.Fatalf("accepted blob no longer verifies: %v", err)
	}

	// A matching duplicate (the usual speculative twin) is discarded quietly.
	if err := c.complete(0, "w3", res1); err != nil {
		t.Fatal(err)
	}
	s := led.Shards()[0]
	if s.Completions != 1 || s.Duplicates != 2 || s.Worker != "w1" {
		t.Fatalf("shard after duplicates: %+v", s)
	}
}

// TestCoordinatorRegisterEndpoint exercises POST /workers: bad payloads
// rejected, good ones leased.
func TestCoordinatorRegisterEndpoint(t *testing.T) {
	c := New(Config{LeaseTTL: 7 * time.Second})
	rr := httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/workers", strings.NewReader(`{"id":"w1"}`)))
	if rr.Code != http.StatusBadRequest {
		t.Fatalf("missing url: %d", rr.Code)
	}
	rr = httptest.NewRecorder()
	c.Handler().ServeHTTP(rr, httptest.NewRequest("POST", "/workers", strings.NewReader(`{"id":"w1","url":"http://w1"}`)))
	if rr.Code != http.StatusOK {
		t.Fatalf("register: %d", rr.Code)
	}
	var body struct {
		LeaseMS int64 `json:"lease_ms"`
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.LeaseMS != 7000 {
		t.Fatalf("lease_ms=%d", body.LeaseMS)
	}
	if c.reg.Live() != 1 {
		t.Fatal("worker not registered")
	}
}
