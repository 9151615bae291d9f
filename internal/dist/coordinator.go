package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
)

// Config parameterizes a Coordinator.
type Config struct {
	// DataPath is the N-Triples input; ShapesPath the SHACL shapes (Turtle).
	DataPath   string
	ShapesPath string
	// OutDir receives nodes.csv, edges.csv, and schema.ddl.
	OutDir string
	// StateDir holds the shard ledger and shard result blobs; a restarted
	// coordinator pointed at the same StateDir resumes instead of
	// re-running completed shards.
	StateDir string
	// Mode is the transform mode ("" means the default); Lenient selects
	// skip-and-report parsing; MaxErrors is the lenient error budget
	// (rio.Options semantics: 0 default, negative unlimited).
	Mode      string
	Lenient   bool
	MaxErrors int
	// ShardCount is how many shards to split the input into (<= 0 means 8).
	ShardCount int
	// MergeWorkers parallelizes the order-insensitive merge stages (<= 0
	// means GOMAXPROCS). Any value produces identical bytes.
	MergeWorkers int
	// LeaseTTL is the worker heartbeat lease (<= 0 means 10s): a worker
	// silent for longer is evicted and its shards requeued.
	LeaseTTL time.Duration
	// SpeculateAfter launches a duplicate send for a shard still in flight
	// after this long (<= 0 means 2×LeaseTTL). First result wins.
	SpeculateAfter time.Duration
	// WaitWorkers is how long to tolerate an empty registry before shards
	// degrade to local execution (<= 0 means 3s).
	WaitWorkers time.Duration
	// ShardAttempts is the remote send budget per shard before it degrades
	// to local execution (<= 0 means 4).
	ShardAttempts int
	// Retry shapes each send's transient-failure backoff.
	Retry faultio.RetryPolicy
	// HTTPTimeout bounds one shard POST end to end (<= 0 means 5m — a
	// straggling worker is handled by speculation, not by the transport).
	HTTPTimeout time.Duration
	// RunID tags spool files and the ledger ("" means derived from the
	// input name and size).
	RunID string
	// FS is the commit filesystem for ledger, blobs, and outputs; nil
	// means ckpt.OSFS.
	FS ckpt.FS
	// Log receives structured records; nil discards them.
	Log *obs.Logger
}

func (c Config) withDefaults() Config {
	if c.Mode == "" {
		c.Mode = core.Parsimonious.String()
	}
	if c.ShardCount <= 0 {
		c.ShardCount = 8
	}
	if c.MergeWorkers <= 0 {
		c.MergeWorkers = runtime.GOMAXPROCS(0)
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.SpeculateAfter <= 0 {
		c.SpeculateAfter = 2 * c.LeaseTTL
	}
	if c.WaitWorkers <= 0 {
		c.WaitWorkers = 3 * time.Second
	}
	if c.ShardAttempts <= 0 {
		c.ShardAttempts = 4
	}
	if c.HTTPTimeout <= 0 {
		c.HTTPTimeout = 5 * time.Minute
	}
	if c.FS == nil {
		c.FS = ckpt.OSFS
	}
	return c
}

// Coordinator owns one distributed transform: the input, the shard ledger,
// the worker registry, and the merge. See the package comment for the
// protocol.
type Coordinator struct {
	cfg    Config
	reg    *Registry
	client *http.Client
	mux    *http.ServeMux

	mu        sync.Mutex
	led       *Ledger // set early in Run
	runID     string  // resolved run id; set early in Run (handleStatus reads it concurrently)
	input     *os.File
	inputSize int64

	noWorkerSince time.Time // zero when a worker is live
}

// New builds a coordinator. Run does the work; Handler serves the control
// endpoints (worker registration, status, metrics).
func New(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:    cfg,
		reg:    NewRegistry(cfg.LeaseTTL),
		client: &http.Client{Timeout: cfg.HTTPTimeout},
		mux:    http.NewServeMux(),
	}
	c.mux.HandleFunc("POST /workers", c.handleRegister)
	c.mux.HandleFunc("GET /dist/status", c.handleStatus)
	c.mux.HandleFunc("GET /metrics", c.handleMetrics)
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok\n")
	})
	return c
}

// Handler returns the coordinator's HTTP control surface.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// RegisterWorker registers a worker directly (tests and single-process
// benchmarks; over HTTP workers use POST /workers).
func (c *Coordinator) RegisterWorker(id, url string) { c.reg.Upsert(id, url) }

// Ledger exposes the shard ledger (nil until Run initializes it).
func (c *Coordinator) Ledger() *Ledger {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.led
}

// RunID returns the resolved run id ("" until Run derives it).
func (c *Coordinator) RunID() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runID
}

func (c *Coordinator) ledgerPath() string { return filepath.Join(c.cfg.StateDir, "ledger.json") }
func (c *Coordinator) resultPath(shard int) string {
	return filepath.Join(c.cfg.StateDir, fmt.Sprintf("shard-%04d.json", shard))
}

// Run executes the distributed transform to completion: split (or resume),
// dispatch until every shard is done, merge, commit outputs. On context
// cancellation it commits the ledger and returns the cancellation cause, so
// a SIGTERMed coordinator restarted against the same StateDir picks up
// where it stopped.
func (c *Coordinator) Run(ctx context.Context) error {
	if err := os.MkdirAll(c.cfg.StateDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(c.cfg.OutDir, 0o755); err != nil {
		return err
	}
	f, err := os.Open(c.cfg.DataPath)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	rid := c.cfg.RunID
	if rid == "" {
		rid = fmt.Sprintf("%s-%d", filepath.Base(c.cfg.DataPath), st.Size())
	}
	c.mu.Lock()
	c.input, c.inputSize = f, st.Size()
	c.runID = rid
	c.mu.Unlock()

	led, err := c.openLedger(f, st.Size())
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.led = led
	c.mu.Unlock()

	if err := c.dispatch(ctx); err != nil {
		return err
	}
	if err := c.merge(ctx); err != nil {
		if ctx.Err() != nil {
			led.Commit()
			return context.Cause(ctx)
		}
		return err
	}
	return nil
}

// openLedger resumes the persisted ledger or initializes a fresh one. Done
// shards whose result blob is missing or corrupt are demoted back to
// pending — re-execution is safe, losing a blob is not.
func (c *Coordinator) openLedger(f *os.File, size int64) (*Ledger, error) {
	led, err := LoadLedger(c.ledgerPath(), c.cfg.FS, c.cfg.DataPath, size, ClampShards(c.cfg.ShardCount, size))
	switch {
	case errors.Is(err, os.ErrNotExist):
		ranges, serr := SplitAligned(f, size, c.cfg.ShardCount)
		if serr != nil {
			return nil, serr
		}
		led, serr = NewLedger(c.ledgerPath(), c.cfg.FS, c.RunID(), c.cfg.DataPath, size, ranges)
		if serr != nil {
			return nil, serr
		}
		c.cfg.Log.Info("ledger_created", "shards", len(ranges), "input_bytes", size)
		return led, nil
	case err != nil:
		return nil, err
	}
	demoted := 0
	for _, s := range led.Shards() {
		if s.State != ShardDone {
			continue
		}
		if _, rerr := c.loadResult(s.ID, s.Hash); rerr != nil {
			led.Reset(s.ID, "result blob lost: "+rerr.Error())
			demoted++
		}
	}
	done, total := led.Done()
	c.cfg.Log.Info("ledger_resumed", "done", done, "total", total, "demoted", demoted)
	if err := led.Commit(); err != nil {
		return nil, err
	}
	return led, nil
}

// dispatch drives the ledger to all-done: claim, pick, send, requeue,
// speculate, degrade. Single-goroutine claims keep the ledger simple; sends
// run concurrently.
func (c *Coordinator) dispatch(ctx context.Context) error {
	led := c.Ledger()
	sendCtx, stopSends := context.WithCancelCause(ctx)
	defer stopSends(errors.New("dist: dispatch finished"))
	var wg sync.WaitGroup
	defer wg.Wait()

	for !led.AllDone() {
		if err := ctx.Err(); err != nil {
			stopSends(context.Cause(ctx))
			wg.Wait()
			led.Commit()
			return context.Cause(ctx)
		}
		c.evictExpired()
		claim, ok := led.Claim(c.cfg.SpeculateAfter)
		if !ok {
			c.pause(ctx, 25*time.Millisecond)
			continue
		}
		if claim.Speculative {
			c.cfg.Log.Warn("shard_speculated", "shard", claim.Shard)
		}
		if claim.Attempts >= c.cfg.ShardAttempts {
			led.AbortSend(claim.Shard, "")
			c.cfg.Log.Warn("shard_degrading_local", "shard", claim.Shard, "attempts", claim.Attempts)
			if err := c.localShard(ctx, claim); err != nil {
				return err
			}
			continue
		}
		wid, url, picked := c.reg.Pick(led.SendersOf(claim.Shard))
		if !picked {
			led.AbortSend(claim.Shard, "")
			if c.workerDrought() {
				c.cfg.Log.Warn("no_workers_degrading_local", "shard", claim.Shard)
				if err := c.localShard(ctx, claim); err != nil {
					return err
				}
				continue
			}
			c.pause(ctx, 50*time.Millisecond)
			continue
		}
		led.SetSendWorker(claim.Shard, wid)
		led.Commit()
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.send(sendCtx, claim, wid, url)
		}()
	}
	// Abandon straggling speculative twins: their shards are done, their
	// results would be duplicates anyway.
	stopSends(errors.New("dist: all shards complete"))
	wg.Wait()
	return led.Commit()
}

// evictExpired drops every worker whose lease has lapsed, requeueing the
// shards only it was sending.
func (c *Coordinator) evictExpired() {
	led := c.Ledger()
	for _, id := range c.reg.Reap() {
		cut := led.DropWorker(id)
		c.cfg.Log.Warn("worker_evicted", "worker", id, "requeued", cut)
		led.Commit()
	}
}

// Linger blocks until ctx is done, evicting workers whose lease lapses in
// the meantime. A coordinator kept up after Run to be scraped calls it, so
// that a worker that died just before the last shard completed — too late
// for dispatch to notice — still leaves the status and the log.
func (c *Coordinator) Linger(ctx context.Context) {
	t := time.NewTicker(c.reg.TTL() / 2)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.evictExpired()
		}
	}
}

// workerDrought reports whether the registry has been empty for longer than
// WaitWorkers, arming the local-execution fallback.
func (c *Coordinator) workerDrought() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reg.Live() > 0 {
		c.noWorkerSince = time.Time{}
		return false
	}
	if c.noWorkerSince.IsZero() {
		c.noWorkerSince = time.Now()
		return false
	}
	return time.Since(c.noWorkerSince) >= c.cfg.WaitWorkers
}

func (c *Coordinator) pause(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// readShard returns the shard's bytes from the input file.
func (c *Coordinator) readShard(cl Claim) (string, error) {
	buf := make([]byte, cl.End-cl.Start)
	if _, err := c.input.ReadAt(buf, cl.Start); err != nil && err != io.EOF {
		return "", err
	}
	return string(buf), nil
}

// maxBuffered is the per-shard error-report cap: budget+1 errors from one
// shard already exhaust the global MaxErrors budget during replay, so deeper
// reporting could never be observed.
func (c *Coordinator) maxBuffered() int {
	switch {
	case c.cfg.MaxErrors < 0:
		return -1
	case c.cfg.MaxErrors == 0:
		return rio.DefaultMaxErrors + 1
	default:
		return c.cfg.MaxErrors + 1
	}
}

// localShard is the graceful-degradation path: scan the shard in-process,
// synchronously. It is also the sole path when the coordinator runs with no
// workers at all, which makes -coordinator without a fleet equivalent to a
// single-process run.
func (c *Coordinator) localShard(ctx context.Context, cl Claim) error {
	if err := ctx.Err(); err != nil {
		return context.Cause(ctx)
	}
	start := time.Now()
	data, err := c.readShard(cl)
	if err != nil {
		return err
	}
	res, err := ScanShard(data, cl.Shard, c.cfg.Lenient, c.maxBuffered())
	if err != nil {
		return err
	}
	res.Worker = "local"
	cLocalShards.Inc()
	hShardSeconds.ObserveSince(start)
	return c.complete(cl.Shard, "local", res)
}

// complete persists a result blob and offers it to the ledger.
func (c *Coordinator) complete(shard int, worker string, res *ShardResult) error {
	led := c.Ledger()
	// A late (speculative-twin) result for an already-done shard must never
	// touch the accepted blob: a mismatched duplicate would otherwise
	// overwrite it and fail merge's hash verification later. Record the
	// duplicate in the ledger and stop.
	if _, done := led.AcceptedHash(shard); done {
		if _, err := led.Complete(shard, worker, res.Hash(), res.Lines, len(res.Triples)/3); err != nil {
			c.cfg.Log.Error("shard_result_conflict", "shard", shard, "worker", worker, "error", err)
			return err
		}
		c.cfg.Log.Info("shard_duplicate_discarded", "shard", shard, "worker", worker)
		return led.Commit()
	}
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	// Blob first, ledger second: a crash between the two leaves an orphan
	// blob a resumed run verifies by hash; the reverse order could mark a
	// shard done with no result to merge.
	if err := ckpt.WriteFileAtomicFS(c.cfg.FS, c.resultPath(shard), 0o644, func(w io.Writer) error {
		_, werr := w.Write(raw)
		return werr
	}); err != nil {
		return err
	}
	accepted, err := led.Complete(shard, worker, res.Hash(), res.Lines, len(res.Triples)/3)
	if err != nil {
		c.cfg.Log.Error("shard_result_conflict", "shard", shard, "worker", worker, "error", err)
		return err
	}
	if accepted {
		led.Phase(shard, "transformed", worker)
		done, total := led.Done()
		c.cfg.Log.Info("shard_done", "shard", shard, "worker", worker, "done", done, "total", total)
	} else {
		c.cfg.Log.Info("shard_duplicate_discarded", "shard", shard, "worker", worker)
	}
	return led.Commit()
}

// send posts one shard to one worker, with transient-failure retry that
// honors Retry-After hints. Failures requeue the shard; the dispatch loop
// decides what happens next.
func (c *Coordinator) send(ctx context.Context, cl Claim, wid, url string) {
	led := c.Ledger()
	data, err := c.readShard(cl)
	if err != nil {
		c.reg.Done(wid, false)
		led.FailSend(cl.Shard, wid, "read: "+err.Error())
		c.cfg.Log.Error("shard_read_failed", "shard", cl.Shard, "error", err)
		return
	}
	req := &ShardRequest{
		RunID: c.RunID(), Shard: cl.Shard, Start: cl.Start,
		Lenient: c.cfg.Lenient, MaxBufferedErrors: c.maxBuffered(), Data: data,
	}
	start := time.Now()
	res, err := c.postShard(ctx, url, req)
	if err != nil {
		c.reg.Done(wid, false)
		led.FailSend(cl.Shard, wid, "send: "+err.Error())
		led.Commit()
		c.cfg.Log.Warn("shard_send_failed", "shard", cl.Shard, "worker", wid, "error", err)
		return
	}
	led.Phase(cl.Shard, "uploaded", wid)
	hShardSeconds.ObserveSince(start)
	if res.Shard != cl.Shard {
		c.reg.Done(wid, false)
		led.FailSend(cl.Shard, wid, fmt.Sprintf("worker returned shard %d", res.Shard))
		led.Commit()
		return
	}
	res.Worker = wid
	if err := c.complete(cl.Shard, wid, res); err != nil {
		c.reg.Done(wid, false)
		return
	}
	c.reg.Done(wid, true)
}

// postShard performs the HTTP exchange under the retry policy. Transport
// errors and 429/503 responses are transient; a shedding worker's
// Retry-After raises the backoff floor for the next attempt.
func (c *Coordinator) postShard(ctx context.Context, url string, req *ShardRequest) (*ShardResult, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	var res ShardResult
	var hintMu sync.Mutex
	var hint time.Duration
	p := c.cfg.Retry
	p.OnRetry = func(attempt int, err error) {
		cSendRetries.Inc()
		c.cfg.Log.Info("shard_send_retry", "shard", req.Shard, "attempt", attempt, "error", err)
	}
	p.Sleep = func(d time.Duration) {
		hintMu.Lock()
		if hint > d {
			d = hint
		}
		hint = 0
		hintMu.Unlock()
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
		case <-t.C:
		}
	}
	err = faultio.Retry(ctx, p, func() error {
		hreq, herr := http.NewRequestWithContext(ctx, http.MethodPost, url+"/shards", bytes.NewReader(payload))
		if herr != nil {
			return herr
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, herr := c.client.Do(hreq)
		if herr != nil {
			return fmt.Errorf("%w: %v", faultio.ErrTransient, herr)
		}
		defer resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			res = ShardResult{}
			if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
				return fmt.Errorf("%w: decoding shard result: %v", faultio.ErrTransient, derr)
			}
			return nil
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if secs, aerr := strconv.Atoi(resp.Header.Get("Retry-After")); aerr == nil && secs > 0 {
				hintMu.Lock()
				if d := time.Duration(secs) * time.Second; d > hint {
					hint = d
				}
				hintMu.Unlock()
			}
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("%w: worker status %d: %s", faultio.ErrTransient, resp.StatusCode, bytes.TrimSpace(body))
		default:
			body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
			return fmt.Errorf("dist: worker status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		}
	})
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// loadResult reads and verifies one persisted shard result blob.
func (c *Coordinator) loadResult(shard int, wantHash string) (*ShardResult, error) {
	raw, err := os.ReadFile(c.resultPath(shard))
	if err != nil {
		return nil, err
	}
	var res ShardResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("shard %d blob: %w", shard, err)
	}
	if wantHash != "" && res.Hash() != wantHash {
		return nil, fmt.Errorf("shard %d blob hash %.12s, ledger has %.12s", shard, res.Hash(), wantHash)
	}
	return &res, nil
}

// merge reconstructs the graph from the persisted shard results, runs the
// transform, and commits the outputs atomically. Everything order-defining
// here is sequential in shard order; MergeWorkers only parallelizes the
// order-insensitive stages, so the bytes match a single-process run.
func (c *Coordinator) merge(ctx context.Context) error {
	led := c.Ledger()
	start := time.Now()
	shards := led.Shards()
	results := make([]*ShardResult, len(shards))
	for i, s := range shards {
		res, err := c.loadResult(s.ID, s.Hash)
		if err != nil {
			return err
		}
		results[i] = res
	}
	opts := rio.Options{Lenient: c.cfg.Lenient, MaxErrors: c.cfg.MaxErrors}
	g, err := MergeResults(results, opts, c.cfg.MergeWorkers)
	if err != nil {
		return err
	}
	for _, s := range shards {
		led.Phase(s.ID, "merged", "")
	}

	shapesSrc, err := os.ReadFile(c.cfg.ShapesPath)
	if err != nil {
		return err
	}
	sg, err := rio.ParseTurtleWith(ctx, string(shapesSrc), rio.Options{})
	if err != nil {
		return err
	}
	schema, err := shacl.FromGraph(sg)
	if err != nil {
		return err
	}
	mode, err := core.ParseMode(c.cfg.Mode)
	if err != nil {
		return err
	}
	tr, err := core.NewTransformer(schema, mode)
	if err != nil {
		return err
	}
	tr.SetLenient(c.cfg.Lenient)
	if err := tr.ApplyParallel(ctx, g, c.cfg.MergeWorkers, nil); err != nil {
		return err
	}

	outputs := []struct {
		name  string
		write func(io.Writer) error
	}{
		{"nodes.csv", func(w io.Writer) error { return tr.Store().WriteCSV(w, io.Discard) }},
		{"edges.csv", func(w io.Writer) error { return tr.Store().WriteCSV(io.Discard, w) }},
		{"schema.ddl", func(w io.Writer) error {
			_, werr := io.WriteString(w, pgschema.WriteDDL(tr.Schema()))
			return werr
		}},
	}
	for _, out := range outputs {
		if err := ckpt.WriteFileAtomicFS(c.cfg.FS, filepath.Join(c.cfg.OutDir, out.name), 0o644, out.write); err != nil {
			return err
		}
	}
	led.SetMerged()
	if err := led.Commit(); err != nil {
		return err
	}
	c.cfg.Log.Info("merged", "shards", len(shards), "triples", g.Len(),
		"duration_seconds", time.Since(start).Seconds())
	return nil
}

// handleRegister is POST /workers: register or heartbeat. The response
// carries the lease so workers derive their heartbeat cadence from the
// coordinator's configuration.
func (c *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID  string `json:"id"`
		URL string `json:"url"`
	}
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.ID == "" || req.URL == "" {
		http.Error(w, "register wants {id, url}", http.StatusBadRequest)
		return
	}
	if fresh := c.reg.Upsert(req.ID, req.URL); fresh {
		c.cfg.Log.Info("worker_registered", "worker", req.ID, "url", req.URL)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"lease_ms": c.reg.TTL().Milliseconds()})
}

// statusBody is the GET /dist/status payload.
type statusBody struct {
	RunID   string       `json:"run_id"`
	State   string       `json:"state"` // initializing | running | merged
	Resumed bool         `json:"resumed"`
	Done    int          `json:"done"`
	Total   int          `json:"total"`
	Workers []WorkerInfo `json:"workers"`
	Shards  []Shard      `json:"shards"`
}

func (c *Coordinator) handleStatus(w http.ResponseWriter, r *http.Request) {
	led := c.Ledger()
	body := statusBody{RunID: c.RunID(), State: "initializing", Workers: c.reg.Workers()}
	if led != nil {
		body.Done, body.Total = led.Done()
		body.Resumed = led.Resumed()
		body.State = "running"
		if led.Merged() {
			body.State = "merged"
		}
		body.Shards = led.Shards()
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

// handleMetrics mirrors the job server's exposition: JSON by default, the
// Prometheus text format when Accept asks for text/plain.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := obs.Default.Snapshot()
	if accept := r.Header.Get("Accept"); accept != "" && bytes.Contains([]byte(accept), []byte("text/plain")) {
		w.Header().Set("Content-Type", obs.PromContentType)
		if err := snap.WritePrometheus(w, "s3pgd"); err != nil {
			c.cfg.Log.Warn("metrics_write_failed", "error", err)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap)
}

// JoinLoop registers a worker with the coordinator and heartbeats at a third
// of the granted lease until ctx ends. It never gives up: a coordinator
// restart looks like a string of failed heartbeats followed by a successful
// re-registration, which is exactly how workers survive one.
func JoinLoop(ctx context.Context, coordinatorURL, id, selfURL string, log *obs.Logger) {
	payload, _ := json.Marshal(map[string]string{"id": id, "url": selfURL})
	client := &http.Client{Timeout: 5 * time.Second}
	interval := time.Second
	registered := false
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, coordinatorURL+"/workers", bytes.NewReader(payload))
		if err != nil {
			log.Error("join_request_build_failed", "error", err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err == nil && resp.StatusCode == http.StatusOK {
			var body struct {
				LeaseMS int64 `json:"lease_ms"`
			}
			if derr := json.NewDecoder(resp.Body).Decode(&body); derr == nil && body.LeaseMS > 0 {
				interval = time.Duration(body.LeaseMS) * time.Millisecond / 3
				if interval < 100*time.Millisecond {
					interval = 100 * time.Millisecond
				}
			}
			resp.Body.Close()
			if !registered {
				registered = true
				log.Info("joined_coordinator", "coordinator", coordinatorURL, "worker", id)
			}
		} else {
			if resp != nil {
				resp.Body.Close()
			}
			if registered {
				log.Warn("heartbeat_failed", "coordinator", coordinatorURL, "error", err)
			}
			registered = false
		}
		t := time.NewTimer(interval)
		select {
		case <-ctx.Done():
			t.Stop()
			return
		case <-t.C:
		}
	}
}
