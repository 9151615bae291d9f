package obs

import (
	"sync/atomic"
	"time"
)

// Meter measures the throughput of a streaming stage. Producers call
// Observe with an event count and the wall-time window in which those
// events were processed; windows accumulate, so a meter fed by several
// passes (or several files) reports the overall sustained rate. Streaming
// readers batch their Observe calls (one per read, not one per event), so
// an always-on meter costs two atomic adds per stage invocation.
type Meter struct {
	count  atomic.Int64
	busyNS atomic.Int64
}

// Observe records n events processed over the wall-time window d. Safe on a
// nil receiver; negative durations are ignored.
func (m *Meter) Observe(n int64, d time.Duration) {
	if m == nil {
		return
	}
	m.count.Add(n)
	if d > 0 {
		m.busyNS.Add(int64(d))
	}
}

// Count returns the total observed events (zero for a nil receiver).
func (m *Meter) Count() int64 {
	if m == nil {
		return 0
	}
	return m.count.Load()
}

// Busy returns the accumulated observation window.
func (m *Meter) Busy() time.Duration {
	if m == nil {
		return 0
	}
	return time.Duration(m.busyNS.Load())
}

// rate is the meter rate computation: count per busy-second, 0 without a
// window.
func rate(count int64, busy time.Duration) float64 {
	if busy <= 0 {
		return 0
	}
	return float64(count) / busy.Seconds()
}

// MeterSnapshot is the exported point-in-time state of a meter.
type MeterSnapshot struct {
	Count  int64   `json:"count"`
	BusyNS int64   `json:"busy_ns"`
	PerSec float64 `json:"per_sec"`
}

// Busy returns the snapshot's observation window as a duration.
func (s MeterSnapshot) Busy() time.Duration { return time.Duration(s.BusyNS) }

// Snapshot captures the meter's current state (zero for a nil receiver).
func (m *Meter) Snapshot() MeterSnapshot {
	count, busy := m.Count(), m.Busy()
	return MeterSnapshot{Count: count, BusyNS: int64(busy), PerSec: rate(count, busy)}
}
