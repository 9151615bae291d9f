// graphs_http.go binds the GraphManager to the HTTP surface:
//
//	PUT  /graphs/{id}                create a graph from an inline snapshot
//	GET  /graphs                     list graph statuses
//	GET  /graphs/{id}                one graph's status (LSN, sizes, paths)
//	POST /graphs/{id}/update         apply a SPARQL Update batch (202 + LSN)
//	GET  /graphs/{id}/changes?from=L stream PG deltas with LSN > L as JSONL;
//	                                 follow=1 long-polls for new ones
//	GET  /graphs/{id}/output/{name}  live nodes.csv / edges.csv / schema.ddl
package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/sparql"
)

var cReqGraphs = obs.Default.Counter("server.req.graphs")

// graphStatusCode maps a graphs-layer error to its HTTP status.
func graphStatusCode(err error) int {
	switch {
	case errors.Is(err, ErrUnknownGraph):
		return http.StatusNotFound
	case errors.Is(err, ErrGraphExists):
		return http.StatusConflict
	case errors.Is(err, ErrGraphBusy):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrGraphBroken), errors.Is(err, ErrGraphDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrDeltaRejected):
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

// GraphCreateRequest is the PUT /graphs/{id} payload: the initial snapshot as
// inline documents, mirroring the job submit payload.
type GraphCreateRequest struct {
	// Mode is the transform mode; empty means parsimonious. Changing graphs
	// usually want "nonparsimonious", which stays monotone as the schema
	// evolves.
	Mode   string `json:"mode,omitempty"`
	Shapes string `json:"shapes"`
	Data   string `json:"data"`
}

func (s *Server) handleGraphCreate(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	if s.lameduck.Load() {
		s.writeError(w, http.StatusServiceUnavailable, ErrGraphDraining)
		return
	}
	var req GraphCreateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	st, err := s.cfg.Graphs.Create(r.PathValue("id"), req.Mode, req.Shapes, req.Data)
	if err != nil {
		s.writeError(w, graphStatusCode(err), err)
		return
	}
	w.Header().Set("Location", "/graphs/"+st.ID)
	s.writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleGraphList(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	s.writeJSON(w, http.StatusOK, s.cfg.Graphs.List())
}

func (s *Server) handleGraphStatus(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	st, err := s.cfg.Graphs.Status(r.PathValue("id"))
	if err != nil {
		s.writeError(w, graphStatusCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusOK, st)
}

// handleGraphUpdate accepts one SPARQL Update request body (INSERT DATA /
// DELETE DATA) and answers 202 with the batch's durable LSN. By the time the
// 202 leaves, the batch is applied and its WAL record is fsynced: the LSN
// will survive any crash.
func (s *Server) handleGraphUpdate(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	if s.lameduck.Load() || s.cfg.Graphs.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, ErrGraphDraining)
		return
	}
	src, err := readBody(r, http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooBig.Limit))
			return
		}
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	d, err := sparql.ParseUpdate(src)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.cfg.Graphs.Update(r.PathValue("id"), d)
	if err != nil {
		s.writeError(w, graphStatusCode(err), err)
		return
	}
	s.writeJSON(w, http.StatusAccepted, res)
}

// maxBodyPresize caps the buffer readBody sizes up front by a request's
// Content-Length, which a client may state without sending the bytes.
const maxBodyPresize = 1 << 20

// readBody reads a request body whole into one buffer, sized by the
// request's Content-Length, that becomes the returned string without a copy.
func readBody(r *http.Request, body io.Reader) (string, error) {
	var sb strings.Builder
	if n := r.ContentLength; n > 0 {
		sb.Grow(int(min(n, maxBodyPresize)))
	}
	if _, err := io.CopyBuffer(&sb, body, make([]byte, 4<<10)); err != nil {
		return "", err
	}
	return sb.String(), nil
}

// handleGraphChanges streams PG deltas as JSONL over a chunked response. The
// client holds the cursor: ?from=L resumes after the last LSN it has fully
// processed (0 or absent = from the beginning), so a crashed subscriber that
// persisted its cursor reconnects with no gap and no duplicate. ?follow=1
// keeps the stream open, long-polling for new deltas; otherwise the stream
// ends once the subscriber is caught up.
func (s *Server) handleGraphChanges(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	if s.cfg.Graphs.Draining() {
		s.writeError(w, http.StatusServiceUnavailable, ErrGraphDraining)
		return
	}
	var from uint64
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad from cursor %q: %w", v, err))
			return
		}
		if n == math.MaxUint64 {
			// from+1 would overflow: no LSN can ever satisfy this cursor.
			// Reject before the 200 goes out rather than wedge a follower.
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("from cursor %d is past any possible LSN", n))
			return
		}
		from = n
	}
	follow := false
	switch r.URL.Query().Get("follow") {
	case "", "0", "false":
	case "1", "true":
		follow = true
	default:
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("bad follow value %q", r.URL.Query().Get("follow")))
		return
	}
	id := r.PathValue("id")
	// The status line must go out before the first delta, but a bad graph id
	// should still be a clean 404: resolve it with a zero-length probe first.
	if _, err := s.cfg.Graphs.Status(id); err != nil {
		s.writeError(w, graphStatusCode(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		// Push the status line out before the long-poll: a subscriber must
		// see the 200 immediately, not when the first delta happens to land.
		flusher.Flush()
	}
	var line []byte
	err := s.cfg.Graphs.Changes(id, from, follow, r.Context().Done(), func(pd *core.PGDelta) error {
		line = append(pd.Encode(line[:0]), '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		s.cfg.Log.Info("graph_stream_ended", "graph", id, "error", err)
	}
}

func (s *Server) handleGraphOutput(w http.ResponseWriter, r *http.Request) {
	cReqGraphs.Inc()
	id, name := r.PathValue("id"), r.PathValue("name")
	// Resolve errors before committing the 200: render to a buffer-free
	// probe first is overkill for these sizes; Status covers the 404 and the
	// name check is cheap, so only genuine mid-write failures are lost.
	if _, err := s.cfg.Graphs.Status(id); err != nil {
		s.writeError(w, graphStatusCode(err), err)
		return
	}
	switch name {
	case "nodes.csv", "edges.csv", "schema.ddl":
	default:
		s.writeError(w, http.StatusNotFound, fmt.Errorf("no export %q (want nodes.csv, edges.csv, or schema.ddl)", name))
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if err := s.cfg.Graphs.Export(id, name, w); err != nil {
		s.cfg.Log.Warn("graph_export_failed", "graph", id, "name", name, "error", err)
	}
}
