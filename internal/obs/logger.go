package obs

import (
	"context"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"
)

// Logger is a thin structured-logging façade over log/slog emitting one JSON
// object per line. Like every obs primitive it is nil-receiver safe: a nil
// *Logger drops every record, so instrumented code logs unconditionally and
// a component without a configured logger pays only a nil check.
//
// Field conventions, relied on by the subprocess tests that parse daemon and
// CLI output: "msg" is a stable machine-readable event name (snake_case, not
// prose), "component" identifies the emitter, and correlation IDs travel as
// "request_id" / "job_id".
type Logger struct {
	h slog.Handler
	// root is h without the bound attributes, which attrs holds, each key
	// once, so that With can rebind a key instead of repeating it.
	root  slog.Handler
	attrs []slog.Attr
}

// NewLogger returns a Logger writing JSON lines to w, tagged with component.
// Writes are serialized by the handler, so one Logger may be shared across
// goroutines and a line never interleaves with another.
func NewLogger(w io.Writer, component string) *Logger {
	l := &Logger{h: slog.NewJSONHandler(w, nil)}
	l.root = l.h
	if component != "" {
		l = l.With("component", component)
	}
	return l
}

// With returns a child logger whose records all carry the given key/value
// pairs (e.g. a job_id bound once at pickup); a key bound already, such as
// "component", takes the new value. Safe on a nil receiver.
func (l *Logger) With(kv ...any) *Logger {
	if l == nil || len(kv) == 0 {
		return l
	}
	attrs := slices.Clone(l.attrs)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			continue
		}
		a := slog.Any(key, normalizeLogValue(kv[i+1]))
		if j := slices.IndexFunc(attrs, func(b slog.Attr) bool { return b.Key == key }); j >= 0 {
			attrs[j] = a
		} else {
			attrs = append(attrs, a)
		}
	}
	return &Logger{h: l.root.WithAttrs(attrs), root: l.root, attrs: attrs}
}

// Handler exposes the underlying slog handler so callers can adapt foreign
// logging APIs onto the same stream (e.g. http.Server.ErrorLog via
// slog.NewLogLogger). A nil logger returns a discarding handler.
func (l *Logger) Handler() slog.Handler {
	if l == nil {
		return discardHandler{}
	}
	return l.h
}

func (l *Logger) Info(msg string, kv ...any)  { l.log(slog.LevelInfo, msg, kv) }
func (l *Logger) Warn(msg string, kv ...any)  { l.log(slog.LevelWarn, msg, kv) }
func (l *Logger) Error(msg string, kv ...any) { l.log(slog.LevelError, msg, kv) }

func (l *Logger) log(level slog.Level, msg string, kv []any) {
	if l == nil {
		return
	}
	logTo(l.h, level, msg, kv)
}

func logTo(h slog.Handler, level slog.Level, msg string, kv []any) {
	ctx := context.Background()
	if !h.Enabled(ctx, level) {
		return
	}
	r := slog.NewRecord(time.Now(), level, msg, 0)
	for i := 0; i+1 < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			continue
		}
		r.AddAttrs(slog.Any(key, normalizeLogValue(kv[i+1])))
	}
	_ = h.Handle(ctx, r)
}

// normalizeLogValue flattens error values to their string form: slog's JSON
// handler marshals an error struct with no exported fields as "{}", which
// loses exactly the information an error field exists to carry.
func normalizeLogValue(v any) any {
	if err, ok := v.(error); ok && err != nil {
		return err.Error()
	}
	return v
}

// discardHandler drops every record; it backs nil-logger Handler() calls.
// (slog.DiscardHandler exists only in newer stdlib than go.mod targets.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }

// LockedWriter serializes writes to an underlying writer. slog handlers lock
// internally, but streams shared between a handler and foreign writers (test
// log adapters, JSONL sinks) need a common mutex.
type LockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// NewLockedWriter wraps w.
func NewLockedWriter(w io.Writer) *LockedWriter { return &LockedWriter{w: w} }

// Write implements io.Writer under the lock.
func (lw *LockedWriter) Write(p []byte) (int, error) {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	return lw.w.Write(p)
}
