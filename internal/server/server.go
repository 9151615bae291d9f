// Package server is the HTTP face of the s3pgd transform service: a thin,
// stdlib-only layer that translates requests into internal/jobs calls and
// jobs errors into status codes. All admission-control policy (queue bounds,
// memory watermark, circuit breaker, drain) lives in the jobs manager; the
// server's own state is a single lame-duck flag flipped at the start of a
// graceful shutdown so load balancers see /readyz fail before the listener
// closes.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/serve"
)

// DefaultMaxBodyBytes caps request bodies (shapes + data are inlined in the
// submit payload) unless Config overrides it.
const DefaultMaxBodyBytes = 256 << 20

var (
	cReqSubmit  = obs.Default.Counter("server.req.submit")
	cReqStatus  = obs.Default.Counter("server.req.status")
	cReqRejects = obs.Default.Counter("server.req.rejected")
	gLameDuck   = obs.Default.Gauge("server.lameduck")
	gInflight   = obs.Default.Gauge("http.inflight")
)

// Config parameterizes a Server.
type Config struct {
	// Manager is the job service the server fronts. Required.
	Manager *jobs.Manager
	// MaxBodyBytes caps the submit payload. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Log receives structured request-level log records. Nil discards them.
	Log *obs.Logger
	// Version is reported in s3pgd_build_info. Empty means "dev".
	Version string
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (off by
	// default: the profile endpoints expose internals and cost CPU).
	EnablePprof bool
	// Graphs, when non-nil, mounts the live-graph surface: named graphs
	// under /graphs/{id} that accept SPARQL Update batches and stream the
	// resulting PG deltas to resumable subscribers.
	Graphs *GraphManager

	// QueryCacheBytes budgets the job-snapshot LRU cache behind POST /query
	// (approximate resident bytes). 0 means unlimited; the live-graph path
	// does not count against it (each live graph caches at most one
	// snapshot of its own).
	QueryCacheBytes int64
	// QueryMaxConcurrent bounds queries executing at once; 0 means 64.
	QueryMaxConcurrent int
	// QueryMaxQueue bounds callers waiting behind the execution slots
	// before new queries bounce with 429. 0 means 256; negative means no
	// waiting at all.
	QueryMaxQueue int
	// QueryTimeout is the per-query deadline ceiling (requests may ask for
	// less, never more). 0 means 30s.
	QueryTimeout time.Duration
	// QueryMaxRows caps rows returned per query (requests may ask for
	// less). 0 means 100000.
	QueryMaxRows int
}

// Server is an http.Handler serving the job API.
type Server struct {
	cfg        Config
	mux        *http.ServeMux
	handler    http.Handler // mux wrapped in the instrumentation middleware
	start      time.Time
	lameduck   atomic.Bool
	queryCache *serve.Cache
	queryGate  *serve.Gate
}

// New builds the handler. Routes:
//
//	POST /query             run Cypher (PG) or SPARQL (RDF) against a live
//	                        graph or a finished job's snapshot
//	POST /jobs              accept a transform job (202, or 400/413/429/503)
//	GET  /jobs              list jobs
//	GET  /jobs/{id}         job status
//	GET  /jobs/{id}/output/{name}  result file of a done job
//	GET  /healthz           liveness (200 while the process serves)
//	GET  /readyz            readiness (503 while draining/shedding)
//	GET  /metrics           obs registry + queue stats: JSON by default,
//	                        Prometheus text format when Accept: text/plain
//
// Every route runs behind the instrumentation middleware: request IDs,
// access logs, per-route latency histograms, in-flight gauge. With
// Config.EnablePprof the net/http/pprof handlers are mounted too.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.Version == "" {
		cfg.Version = "dev"
	}
	if cfg.QueryMaxConcurrent <= 0 {
		cfg.QueryMaxConcurrent = 64
	}
	if cfg.QueryMaxQueue == 0 {
		cfg.QueryMaxQueue = 256
	} else if cfg.QueryMaxQueue < 0 {
		cfg.QueryMaxQueue = 0
	}
	if cfg.QueryTimeout <= 0 {
		cfg.QueryTimeout = 30 * time.Second
	}
	if cfg.QueryMaxRows <= 0 {
		cfg.QueryMaxRows = 100000
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), start: time.Now()}
	s.queryCache = serve.NewCache(cfg.QueryCacheBytes)
	s.queryGate = serve.NewGate(cfg.QueryMaxConcurrent, cfg.QueryMaxQueue)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/output/{name}", s.handleOutput)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.Graphs != nil {
		s.mux.HandleFunc("PUT /graphs/{id}", s.handleGraphCreate)
		s.mux.HandleFunc("GET /graphs", s.handleGraphList)
		s.mux.HandleFunc("GET /graphs/{id}", s.handleGraphStatus)
		s.mux.HandleFunc("POST /graphs/{id}/update", s.handleGraphUpdate)
		s.mux.HandleFunc("GET /graphs/{id}/changes", s.handleGraphChanges)
		s.mux.HandleFunc("GET /graphs/{id}/output/{name}", s.handleGraphOutput)
	}
	if cfg.EnablePprof {
		obs.RegisterPprofHandlers(s.mux)
	}
	s.handler = s.instrument(s.mux)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.handler.ServeHTTP(w, r) }

// EnterLameDuck flips /readyz to 503 ahead of the listener shutdown, giving
// load balancers a window to stop routing here before connections drop.
func (s *Server) EnterLameDuck() {
	if !s.lameduck.Swap(true) {
		gLameDuck.Set(1)
		s.cfg.Log.Info("lame_duck")
	}
}

// SubmitRequest is the POST /jobs payload. Shapes and data are inline
// documents (SHACL Turtle and N-Triples respectively), mirroring the CLI's
// two input files.
type SubmitRequest struct {
	Mode    string `json:"mode,omitempty"`
	Lenient bool   `json:"lenient,omitempty"`
	// Timeout bounds the job's running time, as a Go duration string
	// ("90s", "5m"). Empty means no limit.
	Timeout string `json:"timeout,omitempty"`
	Shapes  string `json:"shapes"`
	Data    string `json:"data"`
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.cfg.Log.Warn("response_encode_failed", "error", err)
	}
}

// retryAfterFloor is the least Retry-After hint of a 429/503 response, so
// distributed clients never busy-loop on a zero hint.
const retryAfterFloor = time.Second

// retryAfterSeconds is the Retry-After hint for 429/503 responses: the floor,
// raised to the breaker's remaining cooldown when the manager is shedding
// because the commit breaker is open — retrying before that is guaranteed to
// be shed again.
func (s *Server) retryAfterSeconds() int {
	d := max(retryAfterFloor, s.cfg.Manager.RetryAfterHint())
	return int((d + time.Second - 1) / time.Second)
}

func (s *Server) setRetryAfter(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		s.setRetryAfter(w)
		cReqRejects.Inc()
	}
	s.writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody decodes a request's JSON body into v: one value, followed by
// nothing but white space, within MaxBodyBytes. On failure it writes the
// error response — 413 past the limit, 400 otherwise — and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	err := dec.Decode(v)
	if err == nil {
		_, err = dec.Token()
		switch err {
		case io.EOF:
			return true
		case nil:
			err = errors.New("data after the JSON value")
		}
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("body exceeds %d bytes", tooBig.Limit))
		return false
	}
	s.writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request: %w", err))
	return false
}

// submitStatus maps a jobs admission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, jobs.ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrMemPressure),
		errors.Is(err, jobs.ErrDraining),
		errors.Is(err, jobs.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case faultio.Transient(err):
		// A spool commit that exhausted its retry budget on transient
		// faults: the storage layer is struggling, not the request.
		return http.StatusServiceUnavailable
	case errors.Is(err, jobs.ErrInvalid):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	cReqSubmit.Inc()
	if s.lameduck.Load() {
		s.writeError(w, http.StatusServiceUnavailable, jobs.ErrDraining)
		return
	}
	var req SubmitRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	spec := jobs.Spec{Mode: req.Mode, Lenient: req.Lenient}
	if req.Timeout != "" {
		d, err := time.ParseDuration(req.Timeout)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, fmt.Errorf("timeout: %w", err))
			return
		}
		spec.Timeout = d
	}
	j, err := s.cfg.Manager.Submit(spec, req.Shapes, req.Data)
	if err != nil {
		s.writeError(w, submitStatus(err), err)
		return
	}
	w.Header().Set("Location", "/jobs/"+j.ID)
	s.writeJSON(w, http.StatusAccepted, j)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	cReqStatus.Inc()
	s.writeJSON(w, http.StatusOK, s.cfg.Manager.List())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	cReqStatus.Inc()
	j, err := s.cfg.Manager.Get(r.PathValue("id"))
	if err != nil {
		s.writeError(w, http.StatusNotFound, err)
		return
	}
	s.writeJSON(w, http.StatusOK, j)
}

func (s *Server) handleOutput(w http.ResponseWriter, r *http.Request) {
	cReqStatus.Inc()
	path, err := s.cfg.Manager.OutputPath(r.PathValue("id"), r.PathValue("name"))
	if err != nil {
		s.writeError(w, querySourceStatus(err), err)
		return
	}
	f, err := os.Open(path)
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if _, err := io.Copy(w, f); err != nil {
		s.cfg.Log.Warn("output_stream_failed", "request_id", RequestID(r.Context()), "path", path, "error", err)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.lameduck.Load() {
		s.setRetryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		io.WriteString(w, "draining: lame duck\n")
		return
	}
	if err := s.cfg.Manager.Ready(); err != nil {
		s.setRetryAfter(w)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %v\n", err)
		return
	}
	io.WriteString(w, "ready\n")
}

// metricsBody combines the obs registry snapshot with queue stats. Key order
// is deterministic: encoding/json sorts map keys, and the snapshot's own
// collections are maps (see TestMetricsJSONDeterministic).
type metricsBody struct {
	Jobs          jobs.Stats   `json:"jobs"`
	UptimeSeconds float64      `json:"uptime_seconds"`
	Metrics       obs.Snapshot `json:"metrics"`
}

// wantsPrometheus reports whether the Accept header asks for the text
// exposition format. JSON stays the default: only an explicit text/plain
// (or the versioned Prometheus media type) switches.
func wantsPrometheus(accept string) bool {
	return strings.Contains(accept, "text/plain")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsPrometheus(r.Header.Get("Accept")) {
		snap := obs.Default.Snapshot()
		w.Header().Set("Content-Type", obs.PromContentType)
		err := snap.WritePrometheus(w, "s3pgd",
			obs.PromSeries{
				Name: "build_info", Value: 1, Type: "gauge",
				Help: "Build metadata (value is always 1).",
				Labels: [][2]string{
					{"version", s.cfg.Version},
					{"go_version", runtime.Version()},
				},
			},
			obs.PromSeries{
				Name: "uptime.seconds", Value: time.Since(s.start).Seconds(), Type: "gauge",
				Help: "Seconds since the server was constructed.",
			},
		)
		if err != nil {
			s.cfg.Log.Warn("metrics_write_failed", "error", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, metricsBody{
		Jobs:          s.cfg.Manager.Stats(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		Metrics:       obs.Default.Snapshot(),
	})
}
