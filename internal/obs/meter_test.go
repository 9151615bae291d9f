package obs

import (
	"testing"
	"time"
)

func TestMeterRateMath(t *testing.T) {
	cases := []struct {
		count int64
		busy  time.Duration
		want  float64
	}{
		{100, 2 * time.Second, 50},
		{1500, 500 * time.Millisecond, 3000},
		{0, time.Second, 0},
		{42, 0, 0}, // no window observed → no rate, not +Inf
	}
	for _, c := range cases {
		if got := rate(c.count, c.busy); got != c.want {
			t.Errorf("rate(%d, %v) = %v, want %v", c.count, c.busy, got, c.want)
		}
	}
}

func TestMeterObserveAccumulates(t *testing.T) {
	var m Meter
	m.Observe(100, time.Second)
	m.Observe(200, 2*time.Second)
	m.Observe(5, -time.Second) // negative windows are ignored
	m.Observe(10, 0)           // count-only
	if m.Count() != 315 {
		t.Fatalf("count = %d, want 315", m.Count())
	}
	if m.Busy() != 3*time.Second {
		t.Fatalf("busy = %v, want 3s", m.Busy())
	}
	if got := m.Rate(); got != 105 {
		t.Fatalf("rate = %v, want 105", got)
	}
	s := m.Snapshot()
	if s.Count != 315 || s.PerSec != 105 || s.Busy() != 3*time.Second {
		t.Fatalf("snapshot = %+v", s)
	}
}

// Rate returns the sustained throughput in events per second, or 0 when no
// time window has been observed.
func (m *Meter) Rate() float64 {
	return rate(m.Count(), m.Busy())
}
