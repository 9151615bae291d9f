package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrency hammers one counter from many goroutines; run with
// -race to verify the atomic implementation (make verify does).
func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	const workers, perWorker = 16, 10_000
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Mix direct use with registry lookups: both must be safe.
			for j := 0; j < perWorker; j++ {
				c.Inc()
				r.Counter("c").Add(1)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Value(), int64(2*workers*perWorker); got != want {
		t.Fatalf("counter = %d, want %d", got, want)
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	g.Set(42)
	g.Add(-2)
	if g.Value() != 40 {
		t.Fatalf("gauge = %d, want 40", g.Value())
	}
	if r.Gauge("g") != g {
		t.Fatal("registry did not return the same gauge")
	}
}

func TestNilRegistryAndInstruments(t *testing.T) {
	var r *Registry
	// Everything must be a no-op, not a panic.
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("y").Set(1)
	r.Meter("z").Observe(3, time.Second)
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 || r.Meter("z").Count() != 0 {
		t.Fatal("nil instruments must read zero")
	}
	if got := r.Snapshot(); len(got.Counters) != 0 || len(got.Gauges) != 0 || len(got.Meters) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", got)
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("pipeline.triples").Add(12)
	r.Gauge("pipeline.depth").Set(3)
	r.Meter("pipeline.rate").Observe(100, 2*time.Second)
	s := r.Snapshot()

	var jsonBuf bytes.Buffer
	if err := s.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["pipeline.triples"] != 12 {
		t.Fatalf("counter lost in JSON round trip: %+v", back)
	}
	if m := back.Meters["pipeline.rate"]; m.Count != 100 || m.PerSec != 50 {
		t.Fatalf("meter lost in JSON round trip: %+v", m)
	}
}

func TestFormatHelpers(t *testing.T) {
	durCases := []struct {
		d    time.Duration
		want string
	}{
		{2500 * time.Millisecond, "2.50s"},
		{1500 * time.Microsecond, "1.5ms"},
		{250 * time.Microsecond, "250µs"},
	}
	for _, c := range durCases {
		if got := FormatDuration(c.d); got != c.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	byteCases := []struct {
		n    uint64
		want string
	}{
		{512, "512B"},
		{2048, "2.0KiB"},
		{3 << 20, "3.0MiB"},
		{5 << 30, "5.0GiB"},
	}
	for _, c := range byteCases {
		if got := FormatBytes(c.n); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}
