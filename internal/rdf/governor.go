package rdf

import (
	"runtime"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/obs"
)

// gSpillPressure is 1 while the governor's latch is set (heap above the low
// watermark since last tripping the high one), 0 otherwise.
var gSpillPressure = obs.Default.Gauge("rdf.spill.pressure")

const (
	// spillLowPercent places the low watermark, which clears the pressure
	// latch once the post-spill heap drops under it, at this share of
	// HighMB. The high/low gap is the hysteresis band that keeps spilling
	// (and the rdf.spill.pressure gauge admission decisions read) from
	// flapping around a single threshold.
	spillLowPercent = 80
	// minTailTriples is the smallest resident tail worth a re-spill; below
	// it a spill could not meaningfully shrink the heap.
	minTailTriples = 10000
)

// SpillConfig parameterizes a memory-pressure Governor.
type SpillConfig struct {
	// Dir receives the spill segments.
	Dir string
	// FS is the commit seam for spill writes (nil = real filesystem).
	FS ckpt.FS
	// HighMB is the heap watermark (HeapAlloc, MiB) that triggers a spill.
	HighMB int
	// ReadHeap overrides the heap sampler (tests); nil = runtime.MemStats.
	ReadHeap func() uint64
}

// Governor watches the heap and spills a graph to disk when the high
// watermark is crossed, letting the process degrade to out-of-core reads
// and continue instead of dying at the limit. It is single-goroutine, like
// the graph mutations it performs.
type Governor struct {
	cfg     SpillConfig
	lowMB   int
	latched bool
	spills  int
}

// NewGovernor returns a governor over the config, applying defaults.
func NewGovernor(cfg SpillConfig) *Governor {
	if cfg.ReadHeap == nil {
		cfg.ReadHeap = func() uint64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return ms.HeapAlloc
		}
	}
	return &Governor{cfg: cfg, lowMB: cfg.HighMB * spillLowPercent / 100}
}

// Maybe spills g if the heap is over the high watermark and the graph has a
// tail worth spilling. It returns whether a spill ran. A graph whose tail
// is already on disk cannot be shrunk further — Maybe then reports no spill
// and leaves the pressure latch set; the caller keeps running (degraded,
// not dead), which is the point of the governor.
func (gv *Governor) Maybe(g *Graph) (bool, error) {
	heap := gv.cfg.ReadHeap()
	if !gv.latched {
		if heap <= uint64(gv.cfg.HighMB)<<20 {
			return false, nil
		}
		gv.latched = true
		gSpillPressure.Set(1)
	} else if heap <= uint64(gv.lowMB)<<20 {
		gv.latched = false
		gSpillPressure.Set(0)
		return false, nil
	}
	if heap <= uint64(gv.cfg.HighMB)<<20 {
		// Inside the hysteresis band: under pressure but not spill-worthy.
		return false, nil
	}
	if g.Spilled() && g.TailLen() < minTailTriples {
		return false, nil
	}
	if err := g.Spill(gv.cfg.Dir, gv.cfg.FS); err != nil {
		return false, err
	}
	gv.spills++
	runtime.GC()
	if gv.cfg.ReadHeap() <= uint64(gv.lowMB)<<20 {
		gv.latched = false
		gSpillPressure.Set(0)
	}
	return true, nil
}

// Spills returns the number of spill operations the governor has run.
func (gv *Governor) Spills() int { return gv.spills }

// Dir returns the spill directory the governor writes to.
func (gv *Governor) Dir() string { return gv.cfg.Dir }
