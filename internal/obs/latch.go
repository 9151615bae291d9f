package obs

import (
	"runtime"
	"sync"
)

// heapLowPercent places a HeapLatch's low watermark at this share of its
// high one. The gap between them is the hysteresis band that keeps a
// decision read off the latch from flapping while the heap hovers around a
// single threshold.
const heapLowPercent = 80

// HeapLatch is the heap-pressure latch that job admission and the spill
// governor share. It sets when a heap sample is above the high watermark
// and clears only once a sample is at or under heapLowPercent of it; inside
// the band it keeps the side it last latched to. Its state is mirrored on
// the gauge it was made with (1 set, 0 clear). It is safe for concurrent
// use, and a nil latch is never set.
type HeapLatch struct {
	// ReadHeap samples the live heap in bytes; nil reads the runtime's
	// HeapAlloc. Tests replace it to drive the latch through the band.
	ReadHeap func() uint64

	high, low uint64
	gauge     *Gauge

	mu  sync.Mutex
	set bool
}

// NewHeapLatch returns a clear latch with its high watermark at highMB MiB,
// mirrored on gauge.
func NewHeapLatch(highMB int, gauge *Gauge) *HeapLatch {
	return &HeapLatch{high: uint64(highMB) << 20, low: uint64(highMB*heapLowPercent/100) << 20, gauge: gauge}
}

// Sample reads the heap once and moves the latch. It reports whether the
// latch is set after the sample, and whether the sample itself was above
// the high watermark (which implies set).
func (l *HeapLatch) Sample() (set, over bool) {
	if l == nil {
		return false, false
	}
	var heap uint64
	if l.ReadHeap != nil {
		heap = l.ReadHeap()
	} else {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapAlloc
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if over = heap > l.high; over && !l.set {
		l.set = true
		l.gauge.Set(1)
	} else if l.set && heap <= l.low {
		l.set = false
		l.gauge.Set(0)
	}
	return l.set, over
}
