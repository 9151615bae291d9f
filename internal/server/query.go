// query.go is the online query surface: POST /query runs Cypher over a
// transformed property graph or SPARQL over its source RDF graph, against
// an immutable snapshot resolved from either a live graph session
// (/graphs/{id}, served at its latest applied LSN) or a finished transform
// job (built once by the job's own run, without its commits, into the LRU
// snapshot cache).
// Admission, deadlines, and row caps are enforced here; evaluation itself
// is internal/serve.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/serve"
)

var cReqQuery = obs.Default.Counter("server.req.query")

// QueryRequest is the POST /query payload. Exactly one of Graph or Job
// names the target; Lang selects the engine ("cypher" over the property
// graph, "sparql" over the source RDF).
type QueryRequest struct {
	Graph string `json:"graph,omitempty"`
	Job   string `json:"job,omitempty"`
	Lang  string `json:"lang"`
	Query string `json:"query"`
	// Params supplies Cypher $name parameters.
	Params map[string]any `json:"params,omitempty"`
	// Timeout bounds this query, as a Go duration string; it is clamped to
	// the server's configured ceiling. Empty means the server default.
	Timeout string `json:"timeout,omitempty"`
	// MaxRows truncates the answer; it is clamped to the server's ceiling.
	MaxRows int `json:"max_rows,omitempty"`
}

// QueryResponse is the POST /query answer as a client decodes it: the target
// identity around the engine answer. The server does not encode through it;
// serve.Response.AppendJSON writes the same fields straight from the typed
// answer.
type QueryResponse = serve.Body

// queryBufs recycles response buffers: a /query body is built whole before
// its first byte is written (that is what lets Content-Length be set), and
// at thousands of requests a second the buffers would otherwise be garbage.
// A buffer one large answer grew past maxPooledBuf is left to the collector
// instead (as fmt and encoding/json do with theirs), or it would stay pinned
// in the pool for as long as traffic continues.
var queryBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledBuf = 1 << 20

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	cReqQuery.Inc()
	if s.lameduck.Load() {
		s.writeError(w, http.StatusServiceUnavailable, jobs.ErrDraining)
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if (req.Graph == "") == (req.Job == "") {
		s.writeError(w, http.StatusBadRequest, errors.New("exactly one of graph or job must be set"))
		return
	}
	timeout := s.cfg.QueryTimeout
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("timeout: %w", err))
			return
		}
		if d <= 0 {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("timeout: must be positive, got %s", d))
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	// Admission: bounded concurrency + bounded queue, the same 429 contract
	// as job submission. The snapshot load below runs inside the slot so a
	// cold cache cannot stack unbounded loads either.
	if err := s.queryGate.Acquire(ctx); err != nil {
		if errors.Is(err, serve.ErrBusy) {
			s.writeError(w, http.StatusTooManyRequests, err)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("query admission: %w", err))
		}
		return
	}
	defer s.queryGate.Release()

	var (
		snap       *serve.Snapshot
		cacheState string
		err        error
	)
	if req.Graph != "" {
		if s.cfg.Graphs == nil {
			s.writeError(w, http.StatusNotFound, fmt.Errorf("%w: %s (graph surface disabled)", ErrUnknownGraph, req.Graph))
			return
		}
		snap, err = s.cfg.Graphs.Snapshot(req.Graph)
		cacheState = "live"
	} else {
		var hit bool
		snap, hit, err = s.queryCache.Get(ctx, "job:"+req.Job, func() (*serve.Snapshot, error) {
			return s.loadJobSnapshot(req.Job)
		})
		cacheState = "miss"
		if hit {
			cacheState = "hit"
		}
	}
	if err != nil {
		s.writeError(w, querySourceStatus(err), err)
		return
	}

	maxRows := req.MaxRows
	if maxRows <= 0 || maxRows > s.cfg.QueryMaxRows {
		maxRows = s.cfg.QueryMaxRows
	}
	start := time.Now()
	resp, err := serve.Execute(ctx, snap, serve.Request{
		Lang: req.Lang, Query: req.Query, Params: req.Params, MaxRows: maxRows,
	})
	if err != nil {
		switch {
		case errors.Is(err, serve.ErrBadQuery):
			s.writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
			s.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("query deadline exceeded: %w", err))
		default:
			s.writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	serve.ObserveQuery(resp.Lang, cacheState, time.Since(start).Seconds())
	resp.Graph, resp.Job, resp.Cache = req.Graph, req.Job, cacheState

	buf := queryBufs.Get().(*[]byte)
	out, err := resp.AppendJSON((*buf)[:0])
	if cap(out) <= maxPooledBuf {
		*buf = out[:0]
		defer queryBufs.Put(buf)
	}
	if err != nil {
		// A value JSON cannot carry (NaN): nothing was written yet.
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("encoding answer: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(out)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(out); err != nil {
		s.cfg.Log.Warn("response_write_failed", "error", err)
	}
}

// querySourceStatus maps the failures to resolve a graph or a job — for a
// query snapshot or a job's output file — to HTTP statuses.
func querySourceStatus(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph), errors.Is(err, jobs.ErrUnknownJob):
		return http.StatusNotFound
	case errors.Is(err, jobs.ErrInvalid):
		// Job exists but is not done (or failed): the query is premature.
		return http.StatusConflict
	case errors.Is(err, ErrGraphBroken),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// loadJobSnapshot materializes a finished job as a query snapshot: its own
// batch run without the commits, which is cheaper than loading its outputs
// (Table 4, DBpedia2022 @ 0.001: T 38.0 ms, L 76.6 ms) and answers as a live
// graph over the same input does. Job outputs are immutable, so the snapshot
// carries LSN 0 forever and the cache never needs to invalidate it.
func (s *Server) loadJobSnapshot(id string) (*serve.Snapshot, error) {
	res, err := s.cfg.Manager.Rerun(id)
	if err != nil {
		return nil, err
	}
	tr := res.Transformer
	return serve.NewSnapshot(res.Graph, tr.Store(), pgschema.WriteDDL(tr.Schema()), 0), nil
}
