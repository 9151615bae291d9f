package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// JSONL is an append-only newline-delimited-JSON sink for trace events: job
// lifecycle timelines from the daemon, phase spans from the batch CLI. One
// Write produces exactly one line; writes are mutex-serialized so concurrent
// workers never interleave records. Nil-receiver safe, so trace emission can
// be unconditional and the -trace-file flag optional.
type JSONL struct {
	mu sync.Mutex
	w  io.Writer
	c  io.Closer // nil when the sink doesn't own the stream
}

// CreateJSONL opens path in append mode (creating it if needed) and returns
// a sink that owns the file.
func CreateJSONL(path string) (*JSONL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("obs: trace file: %w", err)
	}
	return &JSONL{w: f, c: f}, nil
}

// Write appends v as one JSON line. Safe on a nil receiver (a no-op).
func (j *JSONL) Write(v any) error {
	if j == nil {
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("obs: trace encode: %w", err)
	}
	b = append(b, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	_, err = j.w.Write(b)
	return err
}

// WriteSpanTree flattens a span tree into one record per span, each carrying
// its slash-joined path ("data/transform/chunk"), wall time, and allocation
// delta — the JSONL form of the CLI's -trace output. Safe on a nil receiver.
func (j *JSONL) WriteSpanTree(rec SpanRecord) error {
	if j == nil {
		return nil
	}
	return j.writeSpan("", rec)
}

func (j *JSONL) writeSpan(parent string, rec SpanRecord) error {
	path := rec.Name
	if parent != "" {
		path = parent + "/" + rec.Name
	}
	if err := j.Write(struct {
		Span       string           `json:"span"`
		WallNS     int64            `json:"wall_ns"`
		AllocBytes uint64           `json:"alloc_bytes"`
		Counters   map[string]int64 `json:"counters,omitempty"`
	}{Span: path, WallNS: rec.WallNS, AllocBytes: rec.AllocBytes, Counters: rec.Counters}); err != nil {
		return err
	}
	for _, c := range rec.Children {
		if err := j.writeSpan(path, c); err != nil {
			return err
		}
	}
	return nil
}

// Close closes the underlying file when the sink owns one. Safe on nil.
func (j *JSONL) Close() error {
	if j == nil || j.c == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.c.Close()
}
