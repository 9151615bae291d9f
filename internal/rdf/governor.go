package rdf

import (
	"runtime"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/obs"
)

// gSpillPressure mirrors the governor's heap latch: 1 from the moment the
// heap crosses HighMB until a sample is at or under the low watermark.
var gSpillPressure = obs.Default.Gauge("rdf.spill.pressure")

// minTailTriples is the smallest resident tail worth a re-spill; below it a
// spill could not meaningfully shrink the heap.
const minTailTriples = 10000

// SpillConfig parameterizes a memory-pressure Governor.
type SpillConfig struct {
	// Dir receives the spill segments.
	Dir string
	// FS is the commit seam for spill writes (nil = real filesystem).
	FS ckpt.FS
	// HighMB is the heap watermark (HeapAlloc, MiB) that triggers a spill.
	HighMB int
	// ReadHeap overrides the latch's heap sampler (tests); nil = HeapAlloc.
	ReadHeap func() uint64
}

// Governor watches the heap and spills a graph to disk when the high
// watermark is crossed, letting the process degrade to out-of-core reads
// and continue instead of dying at the limit. It is single-goroutine, like
// the graph mutations it performs.
type Governor struct {
	cfg    SpillConfig
	latch  *obs.HeapLatch
	spills int
}

// NewGovernor returns a governor over the config.
func NewGovernor(cfg SpillConfig) *Governor {
	latch := obs.NewHeapLatch(cfg.HighMB, gSpillPressure)
	latch.ReadHeap = cfg.ReadHeap
	return &Governor{cfg: cfg, latch: latch}
}

// Maybe spills g if the heap is over the high watermark and the graph has a
// tail worth spilling. It returns whether a spill ran. Inside the latch's
// hysteresis band nothing spills. A graph whose tail is already on disk
// cannot be shrunk further — Maybe then reports no spill and leaves the
// latch set; the caller keeps running (degraded, not dead), which is the
// point of the governor.
func (gv *Governor) Maybe(g *Graph) (bool, error) {
	if _, over := gv.latch.Sample(); !over {
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
	gv.latch.Sample() // the spill may have cleared the pressure
	return true, nil
}

// Spills returns the number of spill operations the governor has run.
func (gv *Governor) Spills() int { return gv.spills }

// Dir returns the spill directory the governor writes to.
func (gv *Governor) Dir() string { return gv.cfg.Dir }
