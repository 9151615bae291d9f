package obs

import (
	"io"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Span is one node of a hierarchical phase trace: it records the wall time
// between its creation and End, the allocation activity over that window
// (runtime.MemStats deltas: cumulative bytes allocated, and net heap
// growth), named per-span counters, and child spans.
//
// All methods are safe on a nil receiver and no-ops there, and StartSpan on
// a nil span returns nil — so a pipeline stage accepts a *Span argument and
// instruments itself unconditionally; callers that do not trace pass nil
// and the instrumentation vanishes (zero allocations on the nil path).
//
// A span's children and counters may be created from multiple goroutines;
// wall/allocation bookkeeping assumes Start/End happen on one goroutine.
type Span struct {
	name  string
	start time.Time
	wall  time.Duration

	startTotalAlloc uint64
	startHeapAlloc  uint64
	allocBytes      uint64 // TotalAlloc delta over the span
	heapGrowth      uint64 // HeapAlloc growth over the span (clamped at 0)
	ended           bool

	mu       sync.Mutex
	counters map[string]int64
	children []*Span
}

// NewSpan starts a root span. Creating a span reads runtime.MemStats, so
// spans delimit coarse phases, not per-item work; per-item volumes belong in
// span counters or registry counters.
func NewSpan(name string) *Span {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return &Span{
		name:            name,
		start:           time.Now(),
		startTotalAlloc: ms.TotalAlloc,
		startHeapAlloc:  ms.HeapAlloc,
	}
}

// StartSpan starts and attaches a child span. On a nil receiver it returns
// nil without allocating.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	child := NewSpan(name)
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// End finalizes the span's wall time and allocation deltas. Ending twice is
// a no-op; children left running contribute their state as-is when the tree
// is exported.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.wall = time.Since(s.start)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.allocBytes = ms.TotalAlloc - s.startTotalAlloc
	if ms.HeapAlloc > s.startHeapAlloc {
		s.heapGrowth = ms.HeapAlloc - s.startHeapAlloc
	}
	s.ended = true
}

// Count adds n to the span's named counter. Safe on a nil receiver.
func (s *Span) Count(key string, n int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[key] += n
	s.mu.Unlock()
}

// Wall returns the measured wall time (the running time if End has not been
// called; zero for nil).
func (s *Span) Wall() time.Duration {
	if s == nil {
		return 0
	}
	if !s.ended {
		return time.Since(s.start)
	}
	return s.wall
}

// HeapGrowth returns the net heap growth over the span (meaningful after
// End; zero for nil).
func (s *Span) HeapGrowth() uint64 {
	if s == nil {
		return 0
	}
	return s.heapGrowth
}

// SpanRecord is the machine-readable form of a span tree; it marshals to
// JSON, and WriteJSON's output decodes back into it.
type SpanRecord struct {
	Name       string           `json:"name"`
	WallNS     int64            `json:"wall_ns"`
	AllocBytes uint64           `json:"alloc_bytes"`
	HeapGrowth uint64           `json:"heap_growth,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Children   []SpanRecord     `json:"children,omitempty"`
}

// Record exports the span tree. A nil span yields a zero record.
func (s *Span) Record() SpanRecord {
	if s == nil {
		return SpanRecord{}
	}
	r := SpanRecord{
		Name:       s.name,
		WallNS:     int64(s.Wall()),
		AllocBytes: s.allocBytes,
		HeapGrowth: s.heapGrowth,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.counters) > 0 {
		r.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			r.Counters[k] = v
		}
	}
	for _, c := range s.children {
		r.Children = append(r.Children, c.Record())
	}
	return r
}

// Wall returns the record's wall time as a duration.
func (r SpanRecord) Wall() time.Duration { return time.Duration(r.WallNS) }

// WriteTree renders the span tree as an indented human-readable summary.
func (r SpanRecord) WriteTree(w io.Writer) error {
	return r.writeTree(w, 0)
}

func (r SpanRecord) writeTree(w io.Writer, depth int) error {
	line := make([]byte, 0, 96)
	for i := 0; i < depth; i++ {
		line = append(line, ' ', ' ')
	}
	line = append(line, r.Name...)
	line = append(line, ' ')
	line = append(line, FormatDuration(r.Wall())...)
	if r.AllocBytes > 0 {
		line = append(line, " alloc="...)
		line = append(line, FormatBytes(r.AllocBytes)...)
	}
	keys := make([]string, 0, len(r.Counters))
	for k := range r.Counters {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		line = append(line, ' ')
		line = append(line, k...)
		line = append(line, '=')
		line = appendInt(line, r.Counters[k])
	}
	line = append(line, '\n')
	if _, err := w.Write(line); err != nil {
		return err
	}
	for _, c := range r.Children {
		if err := c.writeTree(w, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// WriteTree renders the span's tree (no output for nil).
func (s *Span) WriteTree(w io.Writer) error {
	if s == nil {
		return nil
	}
	return s.Record().WriteTree(w)
}

func appendInt(b []byte, n int64) []byte {
	if n < 0 {
		b = append(b, '-')
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	return append(b, buf[i:]...)
}
