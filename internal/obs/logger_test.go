package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"testing"
)

func decodeLogLines(t *testing.T, out string) []map[string]any {
	t.Helper()
	var recs []map[string]any
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if line == "" {
			continue
		}
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("log line not JSON: %v\n%s", err, line)
		}
		recs = append(recs, m)
	}
	return recs
}

func TestLoggerEmitsJSONWithComponent(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, "testcomp")
	l.Info("job_accepted", "job_id", "j1", "n", 7)
	l.Error("job_failed", "err", errors.New("boom"))
	recs := decodeLogLines(t, b.String())
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
	r := recs[0]
	if r["msg"] != "job_accepted" || r["component"] != "testcomp" || r["job_id"] != "j1" || r["n"] != float64(7) {
		t.Fatalf("record: %v", r)
	}
	// Errors flatten to strings — slog's JSON handler would render "{}".
	if recs[1]["err"] != "boom" {
		t.Fatalf("error not flattened: %v", recs[1])
	}
	if recs[1]["level"] != "ERROR" {
		t.Fatalf("level: %v", recs[1])
	}
}

func TestLoggerWithBindsFields(t *testing.T) {
	var b bytes.Buffer
	l := NewLogger(&b, "c").With("job_id", "j9", "attempt", 2)
	l.Info("job_running")
	r := decodeLogLines(t, b.String())[0]
	if r["job_id"] != "j9" || r["attempt"] != float64(2) {
		t.Fatalf("bound fields missing: %v", r)
	}
}

func TestLoggerNilSafe(t *testing.T) {
	var l *Logger
	l.Info("ignored", "k", "v")
	l.Warn("ignored")
	if l2 := l.With("k", "v"); l2 != nil {
		t.Fatal("With on nil returned non-nil")
	}
	if h := l.Handler(); h == nil {
		t.Fatal("nil logger Handler returned nil")
	}
}

// TestLoggerConcurrent verifies a shared logger produces whole lines from
// many goroutines (run under -race this also proves handler safety).
func TestLoggerConcurrent(t *testing.T) {
	var b bytes.Buffer
	lw := NewLockedWriter(&b)
	l := NewLogger(lw, "c")
	var wg sync.WaitGroup
	const n = 50
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			l.Info("evt", "i", i)
		}(i)
	}
	wg.Wait()
	recs := decodeLogLines(t, b.String())
	if len(recs) != n {
		t.Fatalf("got %d records, want %d", len(recs), n)
	}
}

func TestJSONLWriteAndNilSafety(t *testing.T) {
	var nilSink *JSONL
	if err := nilSink.Write(map[string]int{"x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := nilSink.Close(); err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	j := newJSONL(&b)
	if err := j.Write(map[string]string{"phase": "spool"}); err != nil {
		t.Fatal(err)
	}
	if err := j.Write(map[string]string{"phase": "done"}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines: %q", len(lines), b.String())
	}
	for _, line := range lines {
		var m map[string]string
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("line not JSON: %v", err)
		}
	}
}

func TestJSONLWriteSpanTree(t *testing.T) {
	var b bytes.Buffer
	j := newJSONL(&b)
	rec := SpanRecord{
		Name:   "run",
		WallNS: 100,
		Children: []SpanRecord{
			{Name: "ingest", WallNS: 40},
			{Name: "transform", WallNS: 50, Children: []SpanRecord{{Name: "chunk", WallNS: 10}}},
		},
	}
	if err := j.WriteSpanTree(rec); err != nil {
		t.Fatal(err)
	}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		var m struct {
			Span   string `json:"span"`
			WallNS int64  `json:"wall_ns"`
		}
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m.Span)
	}
	want := []string{"run", "run/ingest", "run/transform", "run/transform/chunk"}
	if len(paths) != len(want) {
		t.Fatalf("paths %v, want %v", paths, want)
	}
	for i := range want {
		if paths[i] != want[i] {
			t.Fatalf("paths %v, want %v", paths, want)
		}
	}
}

// newJSONL wraps an existing writer (it is not closed by Close).
func newJSONL(w io.Writer) *JSONL { return &JSONL{w: w} }
