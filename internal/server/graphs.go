// graphs.go is the live-graph surface of the daemon: named RDF graphs that
// accept SPARQL Update batches and stream the resulting property-graph deltas
// to subscribers. Each graph is a crash-safe session — the initial snapshot
// (source N-Triples + SHACL shapes) is committed atomically at creation, and
// every accepted update batch is fsynced into a per-graph write-ahead log
// before the 202 acknowledgment carries its LSN back to the client. Recovery
// is replay: reload the snapshot, re-apply the WAL's update records in LSN
// order, and — because core.ApplyDelta is deterministic — arrive at the exact
// pre-crash store and the exact pre-crash change stream. Exactly-once
// semantics therefore need no dedup table: an LSN is applied exactly once per
// process lifetime, and replay after a crash reproduces rather than repeats
// it (the WAL's APPLIED digests are checked to prove that).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/s3pg/s3pg/internal/batch"
	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/serve"
	"github.com/s3pg/s3pg/internal/wal"
)

// Per-graph spool layout: graphs/<id>/{shapes.ttl, source.nt, meta.json,
// wal/}. meta.json is written last during creation, so a directory without
// it is an aborted create and is ignored (and logged) on reload.
const (
	graphShapesFile = "shapes.ttl"
	graphSourceFile = "source.nt"
	graphMetaFile   = "meta.json"
	graphWALDir     = "wal"
)

var (
	cGraphUpdates   = obs.Default.Counter("graphs.updates")
	cGraphRejected  = obs.Default.Counter("graphs.updates_rejected")
	cGraphRecovered = obs.Default.Counter("graphs.recovered_batches")
	cGraphStreams   = obs.Default.Counter("graphs.streams")
	cGraphStreamRec = obs.Default.Counter("graphs.stream_records")
	cGraphBroken    = obs.Default.Counter("graphs.broken")
)

// Graph-layer sentinel errors, mapped to HTTP statuses by graphStatusCode.
var (
	ErrUnknownGraph  = errors.New("graphs: unknown graph")
	ErrGraphExists   = errors.New("graphs: graph already exists")
	ErrGraphBusy     = errors.New("graphs: update queue full")
	ErrGraphBroken   = errors.New("graphs: graph persistence failed; restart to recover")
	ErrDeltaRejected = errors.New("graphs: update rejected")
	ErrGraphDraining = errors.New("graphs: draining")
)

// historyLimit bounds the in-memory PG delta history per graph (and the
// history rebuilt on restart). Subscribers whose cursor has fallen behind the
// window are served by deterministically replaying the snapshot + WAL, so the
// stream contract is unchanged — only the memory footprint is.
const historyLimit = 1024

// graphIDPattern keeps graph ids filesystem- and URL-safe.
var graphIDPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// GraphConfig parameterizes a GraphManager.
type GraphConfig struct {
	// Dir is the root spool directory; each graph owns a subdirectory.
	Dir string
	// FS is the filesystem seam for every durable write (snapshot files and
	// the WAL). Nil means the real filesystem; internal/faultio injects.
	FS ckpt.FS
	// QueueDepth bounds concurrently admitted updates per graph; excess
	// submissions are bounced with ErrGraphBusy (429). 0 means 16.
	QueueDepth int
	// Log receives structured records. Nil discards them.
	Log *obs.Logger
	// StallWAL and StallApply are chaos-test hooks: a sleep inserted before
	// every update's UPDATE record is written to the WAL, and one before its
	// ApplyDelta, once the record is written and its fsync under way. They
	// open a wide, deterministic window for SIGKILL to land before the
	// append or mid-apply. Zero (production) inserts nothing.
	StallApply, StallWAL time.Duration
}

// GraphManager owns the live graph sessions.
type GraphManager struct {
	cfg       GraphConfig
	histLimit int // per-graph retention window of the delta history

	mu       sync.Mutex
	graphs   map[string]*graphSession
	draining bool
}

// graphSession is one live graph. applyMu serializes the update path — append
// to the WAL, apply to the in-memory state, publish to the history — so the
// WAL's LSN order is the apply order is the stream order. histMu guards the
// published history and gates subscribers; it is never held across I/O.
type graphSession struct {
	id   string
	dir  string
	mode core.Mode

	sem chan struct{} // admission: one slot per queued-or-running update

	applyMu sync.Mutex
	state   *core.DeltaState
	wlog    *wal.Log
	broken  error

	histMu    sync.Mutex
	cond      *sync.Cond
	histBase  uint64          // LSN of the last delta trimmed from the window (0 = none)
	hist      []*core.PGDelta // hist[i] is the delta acknowledged as LSN histBase+i+1
	histLimit int             // retention window
	drain     bool

	// Query serving (internal/serve). lsn is the latest applied LSN, stored
	// after each successful apply; snap caches the immutable snapshot last
	// published for queries. The first query that observes a stale snap
	// publishes the next one (see snapshot): nothing is published while
	// nobody is querying, and one place clones.
	lsn  atomic.Uint64
	snap atomic.Pointer[serve.Snapshot]
}

// GraphStatus is the GET /graphs/{id} document.
type GraphStatus struct {
	ID          string `json:"id"`
	Mode        string `json:"mode"`
	LSN         uint64 `json:"lsn"`
	Nodes       int    `json:"nodes"`
	Edges       int    `json:"edges"`
	FastApplies int64  `json:"fast_applies"`
	Rebuilds    int64  `json:"rebuilds"`
	Broken      string `json:"broken,omitempty"`
}

// UpdateResult is the 202 body for an accepted update batch.
type UpdateResult struct {
	LSN uint64 `json:"lsn"`
	// Digest is the SHA-256 of the canonical PG delta — the exactly-once
	// witness: a replayed batch must reproduce it bit-for-bit.
	Digest string `json:"digest"`
	Nodes  int    `json:"nodes_changed"`
	Edges  int    `json:"edges_changed"`
}

type graphMeta struct {
	Mode string `json:"mode"`
}

// OpenGraphs loads every graph session under cfg.Dir, replaying each WAL
// against its snapshot, and returns the manager. A graph whose replay
// diverges from its recorded APPLIED digests fails the open loudly — that is
// a determinism bug, not something to serve through.
func OpenGraphs(cfg GraphConfig) (*GraphManager, error) {
	return openGraphs(cfg, historyLimit)
}

// openGraphs is OpenGraphs with the history window as a parameter, so a test
// can trim it after a handful of updates.
func openGraphs(cfg GraphConfig, histLimit int) (*GraphManager, error) {
	if cfg.FS == nil {
		cfg.FS = ckpt.OSFS
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &GraphManager{cfg: cfg, histLimit: histLimit, graphs: make(map[string]*graphSession)}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		id := e.Name()
		if _, err := os.Stat(filepath.Join(cfg.Dir, id, graphMetaFile)); err != nil {
			// No meta: the create never committed. Ignore the husk.
			m.cfg.Log.Warn("graph_ignored_incomplete", "graph", id)
			continue
		}
		gs, err := m.loadGraph(id)
		if err != nil {
			return nil, fmt.Errorf("graphs: load %s: %w", id, err)
		}
		m.graphs[id] = gs
		m.cfg.Log.Info("graph_recovered", "graph", id, "lsn", gs.lastLSN())
	}
	return m, nil
}

// Create materializes a new graph session: parse and transform the snapshot,
// persist it (meta.json last, so a crash mid-create leaves an ignorable
// husk), and open a fresh WAL.
func (m *GraphManager) Create(id, mode, shapesTTL, dataNT string) (*GraphStatus, error) {
	if !graphIDPattern.MatchString(id) {
		return nil, fmt.Errorf("%w: bad graph id %q", ErrDeltaRejected, id)
	}
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil, ErrGraphDraining
	}
	if _, ok := m.graphs[id]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrGraphExists, id)
	}
	// Reserve the slot before the (slow) initial transform so two racing
	// creates cannot both win.
	m.graphs[id] = nil
	m.mu.Unlock()
	gs, err := m.createLocked(id, mode, shapesTTL, dataNT)
	m.mu.Lock()
	if err != nil {
		delete(m.graphs, id)
		m.mu.Unlock()
		return nil, err
	}
	m.graphs[id] = gs
	m.mu.Unlock()
	m.cfg.Log.Info("graph_created", "graph", id, "mode", gs.mode.String(),
		"nodes", gs.state.Store().NumNodes(), "edges", gs.state.Store().NumEdges())
	return gs.status(), nil
}

func (m *GraphManager) createLocked(id, mode, shapesTTL, dataNT string) (*graphSession, error) {
	state, md, err := buildDeltaState(mode, shapesTTL, dataNT)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDeltaRejected, err)
	}
	dir := filepath.Join(m.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	metaBody, err := json.Marshal(graphMeta{Mode: md.String()})
	if err != nil {
		return nil, err
	}
	// Each commit rides out transient faults as a job's do; meta.json goes
	// last (see OpenGraphs).
	for _, wr := range []struct{ name, body string }{
		{graphShapesFile, shapesTTL},
		{graphSourceFile, dataNT},
		{graphMetaFile, string(metaBody)},
	} {
		err := faultio.Commit(context.Background(), m.cfg.FS, faultio.DefaultRetryPolicy, filepath.Join(dir, wr.name), func(w io.Writer) error {
			_, werr := io.WriteString(w, wr.body)
			return werr
		})
		if err != nil {
			return nil, err
		}
	}
	wlog, recs, err := wal.Open(filepath.Join(dir, graphWALDir), wal.Options{FS: m.cfg.FS})
	if err != nil {
		return nil, err
	}
	if len(recs) != 0 {
		wlog.Close()
		return nil, fmt.Errorf("graphs: fresh graph %s has %d WAL records", id, len(recs))
	}
	gs := m.newSession(id, dir, wlog)
	gs.state, gs.mode = state, md
	return gs, nil
}

// loadGraph recovers one session from its spool directory: the snapshot,
// then every UPDATE record of the WAL (replay).
func (m *GraphManager) loadGraph(id string) (*graphSession, error) {
	dir := filepath.Join(m.cfg.Dir, id)
	metaRaw, err := os.ReadFile(filepath.Join(dir, graphMetaFile))
	if err != nil {
		return nil, err
	}
	var meta graphMeta
	if err := json.Unmarshal(metaRaw, &meta); err != nil {
		return nil, fmt.Errorf("bad %s: %w", graphMetaFile, err)
	}
	wlog, recs, err := wal.Open(filepath.Join(dir, graphWALDir), wal.Options{FS: m.cfg.FS})
	if err != nil {
		return nil, err
	}
	gs := m.newSession(id, dir, wlog)
	var dropped uint64
	gs.state, gs.mode, dropped, err = replay(dir, meta.Mode, recs, math.MaxUint64, func(pd *core.PGDelta) error {
		gs.hist = append(gs.hist, pd)
		gs.trimHistLocked() // bound restart memory the same way live appends are
		cGraphRecovered.Inc()
		return nil
	})
	if err == nil && dropped != 0 {
		// The replay dropped a batch that was never acknowledged: cut its
		// record off the log too, so the next batch takes its LSN.
		if err = wlog.Retract(dropped); err == nil {
			m.cfg.Log.Warn("graph_dropped_unacknowledged", "graph", id, "lsn", dropped)
		}
	}
	if err != nil {
		wlog.Close()
		return nil, err
	}
	gs.lsn.Store(gs.histBase + uint64(len(gs.hist)))
	return gs, nil
}

// replay rebuilds a graph's state from the snapshot in dir (shapes.ttl and
// source.nt) and re-applies the UPDATE records of recs with LSN <= hi in
// order, handing each replayed delta to emit; an error from emit stops the
// replay and is returned as is. It is the one recovery path: the reopen and a
// subscriber behind the history window both run it. Only applied batches are
// logged and apply is deterministic, so every record must re-apply cleanly,
// and where an APPLIED digest was recorded the replayed delta must reproduce
// it exactly: either failing means the snapshot or the engine changed
// underneath the log. One record is the exception. A batch's UPDATE record
// is written before the batch is applied, and the batch is acknowledged
// only once the apply returned, so the log's last record, an UPDATE with no
// APPLIED record, may be a batch the process died applying. When the replay
// rejects that record, the engine rejected the batch, which was therefore
// never acknowledged: replay drops it and returns its LSN as dropped.
func replay(dir, mode string, recs []wal.Record, hi uint64, emit func(*core.PGDelta) error) (_ *core.DeltaState, _ core.Mode, dropped uint64, _ error) {
	shapesRaw, err := os.ReadFile(filepath.Join(dir, graphShapesFile))
	if err != nil {
		return nil, 0, 0, err
	}
	dataRaw, err := os.ReadFile(filepath.Join(dir, graphSourceFile))
	if err != nil {
		return nil, 0, 0, err
	}
	state, md, err := buildDeltaState(mode, string(shapesRaw), string(dataRaw))
	if err != nil {
		return nil, 0, 0, fmt.Errorf("snapshot: %w", err)
	}
	applied := make(map[uint64]string)
	for _, r := range recs {
		if r.Kind == wal.KindApplied {
			applied[r.LSN] = string(r.Payload)
		}
	}
	for i, r := range recs {
		if r.Kind != wal.KindUpdate {
			continue
		}
		if r.LSN > hi {
			break
		}
		d, err := rdf.DecodeDelta(r.Payload, rio.ParseNTriplesLine)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("wal lsn %d: %w", r.LSN, err)
		}
		pd, err := state.ApplyDelta(d)
		if err != nil {
			if i == len(recs)-1 {
				return state, md, r.LSN, nil // the last record, so no APPLIED record follows it
			}
			return nil, 0, 0, fmt.Errorf("wal lsn %d: replay rejected: %w", r.LSN, err)
		}
		pd.LSN = r.LSN
		digest, _ := pd.Digest() // its error is always nil
		if want, ok := applied[r.LSN]; ok && want != digest {
			return nil, 0, 0, fmt.Errorf("wal lsn %d: replay digest %s != recorded %s (nondeterministic apply)",
				r.LSN, digest, want)
		}
		if err := emit(pd); err != nil {
			return nil, 0, 0, err
		}
	}
	return state, md, 0, nil
}

func (m *GraphManager) newSession(id, dir string, wlog *wal.Log) *graphSession {
	gs := &graphSession{
		id: id, dir: dir, wlog: wlog,
		sem:       make(chan struct{}, m.cfg.QueueDepth),
		histLimit: m.histLimit,
	}
	gs.cond = sync.NewCond(&gs.histMu)
	return gs
}

// buildDeltaState parses mode/shapes/data and runs the initial transform.
func buildDeltaState(mode, shapesTTL, dataNT string) (*core.DeltaState, core.Mode, error) {
	if mode == "" {
		mode = core.Parsimonious.String()
	}
	md, err := core.ParseMode(mode)
	if err != nil {
		return nil, 0, err
	}
	// The batch run's read step, strict and on one worker.
	var read batch.Options
	sg, err := read.Shapes(context.Background(), shapesTTL)
	if err != nil {
		return nil, 0, fmt.Errorf("shapes: %w", err)
	}
	g, err := read.Data(context.Background(), strings.NewReader(dataNT))
	if err != nil {
		return nil, 0, fmt.Errorf("data: %w", err)
	}
	state, err := core.NewDeltaState(g, sg, md)
	if err != nil {
		return nil, 0, err
	}
	return state, md, nil
}

// get resolves a session by id.
func (m *GraphManager) get(id string) (*graphSession, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	gs, ok := m.graphs[id]
	if !ok || gs == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownGraph, id)
	}
	return gs, nil
}

// Status returns one graph's status document.
func (m *GraphManager) Status(id string) (*GraphStatus, error) {
	gs, err := m.get(id)
	if err != nil {
		return nil, err
	}
	return gs.status(), nil
}

// List returns every graph's status, sorted by id.
func (m *GraphManager) List() []*GraphStatus {
	m.mu.Lock()
	var sessions []*graphSession
	for _, gs := range m.graphs {
		if gs != nil {
			sessions = append(sessions, gs)
		}
	}
	m.mu.Unlock()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].id < sessions[j].id })
	out := make([]*GraphStatus, len(sessions))
	for i, gs := range sessions {
		out[i] = gs.status()
	}
	return out
}

// Update runs one parsed SPARQL Update batch through a graph: admission,
// apply, durable WAL append, publish. The returned result's LSN is durable —
// the batch's UPDATE record was fsynced before this returns.
func (m *GraphManager) Update(id string, d *rdf.Delta) (*UpdateResult, error) {
	gs, err := m.get(id)
	if err != nil {
		return nil, err
	}
	select {
	case gs.sem <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w: graph %s has %d updates in flight", ErrGraphBusy, id, cap(gs.sem))
	}
	defer func() { <-gs.sem }()
	return m.applyOne(gs, d)
}

func (m *GraphManager) applyOne(gs *graphSession, d *rdf.Delta) (*UpdateResult, error) {
	gs.applyMu.Lock()
	defer gs.applyMu.Unlock()
	if gs.broken != nil {
		return nil, fmt.Errorf("%w: %v", ErrGraphBroken, gs.broken)
	}

	// The batch's UPDATE record is written first and its fsync runs while the
	// batch is applied, its digest computed and its APPLIED record written:
	// the 202 waits for the longer of the fsync and the apply, not for both.
	// Nothing is acknowledged before both have returned. A batch the engine
	// rejects has its record cut off the log again before the 4xx, so the log
	// holds applied batches only, a rejected batch consumes no LSN and the
	// change stream stays dense. If the process dies first, the client never
	// saw a 202: recovery replays the record if it reached the disk, or drops
	// it if the replay rejects it (see loadGraph).
	m.stall(m.cfg.StallWAL)
	b, err := gs.wlog.Begin(d.Encode())
	if err != nil {
		return nil, m.breakSession(gs, err)
	}
	m.stall(m.cfg.StallApply)
	pd, err := gs.state.ApplyDelta(d)
	if err != nil {
		cGraphRejected.Inc()
		if aerr := b.Abort(); aerr != nil {
			return nil, m.breakSession(gs, aerr)
		}
		return nil, fmt.Errorf("%w: %v", ErrDeltaRejected, err)
	}
	pd.LSN = b.LSN
	digest, _ := pd.Digest() // its error is always nil
	if err := b.Commit([]byte(digest)); err != nil {
		return nil, m.breakSession(gs, err)
	}
	lsn := b.LSN

	gs.histMu.Lock()
	gs.hist = append(gs.hist, pd)
	gs.trimHistLocked()
	gs.histMu.Unlock()
	// Publishing the LSN (still under applyMu) invalidates the cached query
	// snapshot; the next query publishes a fresh one from the new state.
	gs.lsn.Store(lsn)
	gs.cond.Broadcast()
	cGraphUpdates.Inc()
	path, reason := gs.state.LastPath()
	fields := []any{"graph", gs.id, "lsn", lsn,
		"deletes", len(d.Deletes), "inserts", len(d.Inserts),
		"nodes_changed", len(pd.Nodes), "edges_changed", len(pd.Edges), "path", path}
	if reason != "" {
		fields = append(fields, "reason", reason)
	}
	m.cfg.Log.Info("graph_update_applied", fields...)
	return &UpdateResult{LSN: lsn, Digest: digest, Nodes: len(pd.Nodes), Edges: len(pd.Edges)}, nil
}

// breakSession poisons a session whose log failed: the in-memory state may
// be ahead of the log, or the log may hold a record it should not, and
// continuing would assign wrong LSNs to later batches. Only a process
// restart (full replay) recovers it. Nothing was acknowledged: whether the
// batch survives the restart depends on whether its UPDATE record reached
// the disk and the replay accepts it. Caller holds applyMu.
func (m *GraphManager) breakSession(gs *graphSession, err error) error {
	gs.broken = err
	cGraphBroken.Inc()
	m.cfg.Log.Error("graph_wal_append_failed", "graph", gs.id, "error", err)
	return fmt.Errorf("%w: %v", ErrGraphBroken, err)
}

func (m *GraphManager) stall(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// Changes streams the graph's PG deltas with LSN > from, in LSN order, by
// calling send once per delta. With follow=false it returns once caught up;
// with follow=true it long-polls for new deltas until the client goes away
// (send fails / done closes) or the manager drains. The contract that makes
// subscriber crash-recovery trivial: the stream from any cursor is a dense,
// deterministic suffix, so "resume from the last LSN I processed" can never
// skip or repeat a delta. Cursors that have fallen behind the in-memory
// retention window are served by replaying the snapshot + WAL, which — apply
// being deterministic — reconstructs the identical deltas.
//
// All cursor arithmetic is done in uint64 space: from is client-supplied and
// may be anything up to MaxUint64, which must never index the history slice.
func (m *GraphManager) Changes(id string, from uint64, follow bool, done <-chan struct{}, send func(*core.PGDelta) error) error {
	gs, err := m.get(id)
	if err != nil {
		return err
	}
	next := from + 1
	if next == 0 {
		// from == MaxUint64: no LSN can ever exceed the cursor. Reject rather
		// than silently serving an empty (or, with follow, eternal) stream.
		return fmt.Errorf("%w: cursor %d is past any possible LSN", ErrDeltaRejected, from)
	}
	cGraphStreams.Inc()
	// A cond has no channel to select on: a watcher goroutine converts the
	// client-gone signal into a broadcast so blocked waiters re-check.
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go func() {
		select {
		case <-done:
			gs.cond.Broadcast()
		case <-stopWatch:
		}
	}()

	for {
		gs.histMu.Lock()
		for next > gs.histBase+uint64(len(gs.hist)) && follow && !gs.drain && !closed(done) {
			gs.cond.Wait()
		}
		base := gs.histBase
		var pd *core.PGDelta
		if next > base && next-base <= uint64(len(gs.hist)) {
			pd = gs.hist[next-base-1]
		}
		gs.histMu.Unlock()
		if next <= base {
			// The cursor predates the retention window: replay the snapshot and
			// the WAL, streaming the missing [next, base] prefix as it is
			// rebuilt, and loop back into the live window. Appends are paused
			// (applyMu) only for the raw WAL read. Every LSN <= base has a
			// durable UPDATE record (applyOne publishes a delta only after its
			// record is fsynced), so a short replay is a corruption signal, not
			// a race.
			gs.applyMu.Lock()
			recs, err := wal.ReadRecords(filepath.Join(gs.dir, graphWALDir))
			gs.applyMu.Unlock()
			if err != nil {
				return err
			}
			if _, _, _, err := replay(gs.dir, gs.mode.String(), recs, base, func(pd *core.PGDelta) error {
				if pd.LSN < next {
					return nil
				}
				if err := send(pd); err != nil {
					return err
				}
				cGraphStreamRec.Inc()
				next++
				return nil
			}); err != nil {
				return err
			}
			if next <= base {
				return fmt.Errorf("graphs: replay %s: the wal ends before lsn %d", gs.id, next)
			}
			continue
		}
		if pd == nil {
			return nil // caught up: follow=false, drain, or client gone
		}
		if err := send(pd); err != nil {
			return err // client went away mid-write
		}
		cGraphStreamRec.Inc()
		next++
	}
}

func closed(c <-chan struct{}) bool {
	select {
	case <-c:
		return true
	default:
		return false
	}
}

// Export writes one derived artifact — nodes.csv, edges.csv, or schema.ddl —
// rendered live from the graph's current PG state.
func (m *GraphManager) Export(id, name string, w io.Writer) error {
	gs, err := m.get(id)
	if err != nil {
		return err
	}
	gs.applyMu.Lock()
	defer gs.applyMu.Unlock()
	switch name {
	case "schema.ddl":
		_, err = io.WriteString(w, gs.state.SchemaDDL())
		return err
	case "nodes.csv":
		return gs.state.WriteCSV(w, nil)
	case "edges.csv":
		return gs.state.WriteCSV(nil, w)
	default:
		return fmt.Errorf("%w: no export %q (want nodes.csv, edges.csv, or schema.ddl)", ErrDeltaRejected, name)
	}
}

// EnterDrain wakes every long-polling subscriber so their handlers return
// and the HTTP listener can shut down; new updates and streams bounce with
// 503. Durable state is untouched — Close finishes the job.
func (m *GraphManager) EnterDrain() {
	m.mu.Lock()
	m.draining = true
	sessions := make([]*graphSession, 0, len(m.graphs))
	for _, gs := range m.graphs {
		if gs != nil {
			sessions = append(sessions, gs)
		}
	}
	m.mu.Unlock()
	for _, gs := range sessions {
		gs.histMu.Lock()
		gs.drain = true
		gs.histMu.Unlock()
		gs.cond.Broadcast()
	}
}

// Draining reports whether EnterDrain ran.
func (m *GraphManager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Close drains and releases every session's WAL.
func (m *GraphManager) Close() error {
	m.EnterDrain()
	m.mu.Lock()
	defer m.mu.Unlock()
	var firstErr error
	for _, gs := range m.graphs {
		if gs == nil {
			continue
		}
		gs.applyMu.Lock()
		if err := gs.wlog.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		gs.applyMu.Unlock()
	}
	return firstErr
}

// Snapshot returns an immutable, queryable snapshot of the graph at its
// latest applied LSN. Fast path is two atomic loads and never blocks — a
// concurrent delta apply always leaves the previous snapshot intact, so
// readers see a consistent (if momentarily stale) view. A query issued
// after an Update's 202 sees at least that Update's LSN (read-your-writes):
// the LSN is published before the ack, so the fast path misses and the
// publish below runs against the post-apply state.
func (m *GraphManager) Snapshot(id string) (*serve.Snapshot, error) {
	gs, err := m.get(id)
	if err != nil {
		return nil, err
	}
	return gs.snapshot()
}

func (gs *graphSession) snapshot() (*serve.Snapshot, error) {
	if s := gs.snap.Load(); s != nil && s.LSN == gs.lsn.Load() {
		return s, nil
	}
	// Stale (or first) read: publish under applyMu — Clone needs a quiescent
	// state and writes to the live structures' sharing state. The clones
	// share the live graph's memory (DESIGN.md §9) and copy nothing per
	// triple, node or edge, but the graph's Clone first indexes the triples
	// applied since the last publish, copying each posting page they append
	// to that the previous snapshot still shares. The next batch copies the
	// pages and records it touches.
	gs.applyMu.Lock()
	defer gs.applyMu.Unlock()
	if gs.broken != nil {
		// The in-memory state may be ahead of the durable log; refuse to
		// label it with an LSN. The previously published snapshot (if any)
		// keeps serving from the fast path above.
		return nil, fmt.Errorf("%w: %v", ErrGraphBroken, gs.broken)
	}
	lsn := gs.lsn.Load() // stable: applies hold applyMu
	if s := gs.snap.Load(); s != nil && s.LSN == lsn {
		return s, nil
	}
	s := serve.NewSnapshot(gs.state.Graph().Clone(), gs.state.Store().Clone(), gs.state.SchemaDDL(), lsn)
	gs.snap.Store(s)
	return s, nil
}

func (gs *graphSession) lastLSN() uint64 {
	gs.histMu.Lock()
	defer gs.histMu.Unlock()
	return gs.histBase + uint64(len(gs.hist))
}

// trimHistLocked drops deltas beyond the retention window from the front of
// hist, advancing histBase so LSN bookkeeping is unaffected. The trimmed
// prefix is reconstructed on demand by replay. Caller holds histMu
// (or has exclusive access during load).
func (gs *graphSession) trimHistLocked() {
	if gs.histLimit <= 0 {
		return
	}
	if n := len(gs.hist) - gs.histLimit; n > 0 {
		// Copy the tail into a fresh slice so the trimmed deltas are actually
		// released rather than pinned by the old backing array.
		gs.hist = append(make([]*core.PGDelta, 0, len(gs.hist)-n), gs.hist[n:]...)
		gs.histBase += uint64(n)
	}
}

func (gs *graphSession) status() *GraphStatus {
	gs.applyMu.Lock()
	st := &GraphStatus{
		ID:          gs.id,
		Mode:        gs.mode.String(),
		Nodes:       gs.state.Store().NumNodes(),
		Edges:       gs.state.Store().NumEdges(),
		FastApplies: gs.state.FastApplies(),
		Rebuilds:    gs.state.Rebuilds(),
	}
	if gs.broken != nil {
		st.Broken = gs.broken.Error()
	}
	gs.applyMu.Unlock()
	st.LSN = gs.lastLSN()
	return st
}
