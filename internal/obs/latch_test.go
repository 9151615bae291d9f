package obs

import (
	"runtime"
	"testing"
)

// TestHeapLatchBand walks the latch through its hysteresis band: it sets
// only above the high watermark, holds inside the band on whichever side it
// last latched to, clears only at or under 80 % of the high watermark, and
// mirrors each transition on its gauge.
func TestHeapLatchBand(t *testing.T) {
	var gauge Gauge
	l := NewHeapLatch(100, &gauge)
	var heap uint64
	l.ReadHeap = func() uint64 { return heap }
	for _, step := range []struct {
		mb         uint64
		set, over  bool
		gaugeValue int64
	}{
		{50, false, false, 0},
		{90, false, false, 0},  // into the band from below: stays clear
		{100, false, false, 0}, // at the high watermark: not over it
		{101, true, true, 1},
		{150, true, true, 1},
		{90, true, false, 1}, // into the band from above: stays set
		{81, true, false, 1},
		{80, false, false, 0}, // at the low watermark: clears
		{90, false, false, 0},
		{200, true, true, 1},
		{10, false, false, 0},
	} {
		heap = step.mb << 20
		set, over := l.Sample()
		if set != step.set || over != step.over || gauge.Value() != step.gaugeValue {
			t.Fatalf("%d MiB: set %v over %v gauge %d, want %v %v %d",
				step.mb, set, over, gauge.Value(), step.set, step.over, step.gaugeValue)
		}
	}
	var off *HeapLatch // job admission without a MaxMemMB
	if set, over := off.Sample(); set || over {
		t.Fatalf("a nil latch sampled set %v over %v", set, over)
	}
}

// TestHeapLatchReadsHeapAlloc: without a sampler the latch reads the
// runtime's heap, which is never over a watermark no process reaches.
func TestHeapLatchReadsHeapAlloc(t *testing.T) {
	if set, over := NewHeapLatch(1<<30, nil).Sample(); set || over {
		t.Fatalf("a 1 PiB watermark latched: set %v over %v", set, over)
	}
	ballast := make([]byte, 4<<20)
	if set, over := NewHeapLatch(1, nil).Sample(); !set || !over {
		t.Fatalf("a 1 MiB watermark under 4 MiB of live ballast did not latch: set %v over %v", set, over)
	}
	runtime.KeepAlive(ballast)
}
