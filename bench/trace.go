package main

import (
	"bufio"
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer's public function. Spans of one
// replay pass share a trace id; Parent is the id of the enclosing span (0
// for a root). Counts carry the work done (bytes, triples, rows, heap
// allocations) so ratios are measured where the work happens.
type span struct {
	ID       int              `json:"id"`
	TraceID  string           `json:"trace_id"`
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	Parent   int              `json:"parent"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"`

	tr         *tracer
	mallocs    uint64
	allocBytes uint64
	allocs     bool
}

// tracer keeps the spans of a traced replay in memory (single goroutine:
// the replay is sequential by design) and writes them out at the end.
type tracer struct {
	workload string
	traceID  string
	epoch    time.Time
	spans    []*span
	stack    []*span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

func (t *tracer) push(name string, allocs bool) *span {
	s := &span{ID: len(t.spans) + 1, TraceID: t.traceID, Workload: t.workload, Name: name, tr: t, allocs: allocs}
	if n := len(t.stack); n > 0 {
		s.Parent = t.stack[n-1].ID
	}
	t.spans = append(t.spans, s)
	t.stack = append(t.stack, s)
	if allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.mallocs, s.allocBytes = ms.Mallocs, ms.TotalAlloc
	}
	s.StartNs = t.now()
	return s
}

// start opens a span under the innermost open span.
func (t *tracer) start(name string) *span { return t.push(name, false) }

// startAllocs is start plus heap-allocation counts (two ReadMemStats
// calls, taken outside the timed interval).
func (t *tracer) startAllocs(name string) *span { return t.push(name, true) }

// count adds to one of the span's work counters.
func (s *span) count(key string, n int64) *span {
	if s.Counts == nil {
		s.Counts = map[string]int64{}
	}
	s.Counts[key] += n
	return s
}

// end closes the span; spans close innermost first.
func (s *span) end() {
	s.EndNs = s.tr.now()
	if s.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.count("allocs", int64(ms.Mallocs-s.mallocs))
		s.count("alloc_bytes", int64(ms.TotalAlloc-s.allocBytes))
	}
	st := s.tr.stack
	if n := len(st); n > 0 && st[n-1] == s {
		s.tr.stack = st[:n-1]
	}
}

func (s *span) ns() float64 { return float64(s.EndNs - s.StartNs) }

// selfNs is the span's duration minus the part its children cover.
func (t *tracer) selfNs(s *span) float64 {
	self := s.ns()
	for _, c := range t.spans {
		if c.Parent == s.ID {
			self -= c.ns()
		}
	}
	return self
}

// byName returns the spans of one trace (pass) with the given name.
func (t *tracer) byName(traceID, name string) []*span {
	var out []*span
	for _, s := range t.spans {
		if s.TraceID == traceID && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// sum adds up f over the named spans of one pass.
func (t *tracer) sum(traceID, name string, f func(*span) float64) float64 {
	var total float64
	for _, s := range t.byName(traceID, name) {
		total += f(s)
	}
	return total
}

// writeJSONL writes one span per line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapGrowth is the live heap now over a baseline taken with liveHeap (0
// when it shrank).
func heapGrowth(base uint64) float64 {
	if now := liveHeap(); now > base {
		return float64(now - base)
	}
	return 0
}
