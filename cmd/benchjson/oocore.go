package main

// -mode oocore gates the out-of-core transformation path (DESIGN.md §10):
// an XL-profile dataset whose in-RAM graph footprint is at least three times
// the configured heap budget is ingested under a memory-pressure governor,
// spilled to CRC-framed on-disk segments, transformed over paged reads,
// and the resulting nodes.csv/edges.csv/schema.ddl must byte-equal the
// unconstrained in-RAM run. The budget applies to the graph — the structure
// spilling sheds — measured as live heap attributable to the run (sampled
// after GC, relative to a pre-ingest baseline, so the bench harness's own
// input buffer does not count, mirroring the CLI where input streams from a
// file). The transform phase reads the spilled graph through bounded page
// caches; its own working set (the property-graph store under construction)
// is reported but not gated, exactly as -max-mem governs the graph and not
// the CSV encoder.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// OocoreReport is the BENCH_oocore.json document.
type OocoreReport struct {
	CPUs       int     `json:"cpus"`
	Dataset    string  `json:"dataset"`
	Scale      float64 `json:"scale"`
	Triples    int     `json:"triples"`
	InputBytes int     `json:"input_bytes"`
	BudgetMB   int     `json:"budget_mb"`
	// InRAMGraphBytes is the unconstrained run's live graph footprint; the
	// dataset qualifies only when it is ≥ 3× the budget.
	InRAMGraphBytes uint64 `json:"in_ram_graph_bytes"`
	// SpilledGraphBytes is the governed run's live graph footprint after
	// ingest — what remains resident once the segments are on disk. The
	// budget is a hard ceiling on it.
	SpilledGraphBytes uint64 `json:"spilled_graph_bytes"`
	// PeakGovernedBytes is the largest post-spill resident footprint seen at
	// any governed checkpoint during ingest.
	PeakGovernedBytes uint64 `json:"peak_governed_bytes"`
	// TransformLiveBytes is the governed run's live heap after the transform
	// completes (store + exports included) — informational.
	TransformLiveBytes uint64 `json:"transform_live_bytes"`
	SpillDirBytes      int64  `json:"spill_dir_bytes"`
	Spills             int    `json:"spills"`
	BaselineNs         int64  `json:"baseline_ns"`
	GovernedNs         int64  `json:"governed_ns"`
	Identical          bool   `json:"identical_to_in_ram"`
	Gate               string `json:"gate"` // "passed" or "failed"
	GateDetail         string `json:"gate_detail,omitempty"`
}

func nowNs() int64 { return time.Now().UnixNano() }

// liveHeap forces a collection and returns the live heap.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// heapOver returns the current heap in excess of base (0 when under it),
// without forcing a collection — the same raw HeapAlloc signal the CLI
// governor watches.
func heapOver(base uint64) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc <= base {
		return 0
	}
	return ms.HeapAlloc - base
}

// liveOver is heapOver after a forced collection: live bytes above base.
func liveOver(base uint64) uint64 {
	runtime.GC()
	return heapOver(base)
}

// parseInto streams data into g sequentially, calling check every
// governEvery statements (and once at the end) when check is non-nil.
func parseInto(g *rdf.Graph, data []byte, check func() error) error {
	const governEvery = 4096
	sc := rio.NewNTriplesScanner(bytes.NewReader(data), rio.Options{})
	n := 0
	for {
		t, ok, err := sc.Scan()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		g.Add(t)
		n++
		if check != nil && n%governEvery == 0 {
			if err := check(); err != nil {
				return err
			}
		}
	}
	if check != nil {
		return check()
	}
	return nil
}

func transformSeq(g *rdf.Graph, shapes *shacl.Schema) (outputs, error) {
	store, spg, err := core.Transform(g, shapes, core.Parsimonious)
	if err != nil {
		return outputs{}, err
	}
	var nodes, edges bytes.Buffer
	if err := store.WriteCSV(&nodes, &edges); err != nil {
		return outputs{}, err
	}
	return outputs{pgschema.WriteDDL(spg), nodes.Bytes(), edges.Bytes()}, nil
}

func runOocore(out string, scale float64, budgetMB int) error {
	const dataset = "XL"
	if budgetMB <= 0 {
		return fmt.Errorf("-oocore-budget-mb must be positive, got %d", budgetMB)
	}
	budget := uint64(budgetMB) << 20

	g0 := datagen.Generate(datagen.Profiles()[dataset], scale, 1)
	var nt bytes.Buffer
	if err := rio.WriteNTriples(&nt, g0); err != nil {
		return err
	}
	data := nt.Bytes()
	shapes := shapeex.Extract(g0, shapeex.Options{MinSupport: 0.02})
	triples := g0.Len()
	g0 = nil

	rep := OocoreReport{
		CPUs:       runtime.NumCPU(),
		Dataset:    dataset,
		Scale:      scale,
		Triples:    triples,
		InputBytes: len(data),
		BudgetMB:   budgetMB,
	}

	// Unconstrained in-RAM run: the baseline outputs and the proof that the
	// dataset is big enough to need spilling at this budget.
	base := liveHeap()
	start := nowNs()
	gRAM := rdf.NewGraph()
	if err := parseInto(gRAM, data, nil); err != nil {
		return err
	}
	rep.InRAMGraphBytes = liveOver(base)
	want, err := transformSeq(gRAM, shapes)
	if err != nil {
		return fmt.Errorf("in-RAM run: %w", err)
	}
	rep.BaselineNs = nowNs() - start
	gRAM = nil

	// Governed run: same sequential ingest under the spill governor, graph
	// footprint measured relative to its own pre-ingest live heap (which now
	// also holds the baseline outputs being compared against).
	spillDir, err := os.MkdirTemp("", "oocore-spill-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(spillDir)

	govBase := liveHeap()
	gv := rdf.NewGovernor(rdf.SpillConfig{
		Dir:      spillDir,
		HighMB:   budgetMB,
		ReadHeap: func() uint64 { return heapOver(govBase) },
	})
	start = nowNs()
	gSpill := rdf.NewGraph()
	if err := parseInto(gSpill, data, func() error {
		spilled, err := gv.Maybe(gSpill)
		if err != nil {
			return err
		}
		if spilled {
			// The governor just collected; HeapAlloc is live here.
			if over := heapOver(govBase); over > rep.PeakGovernedBytes {
				rep.PeakGovernedBytes = over
			}
		}
		return nil
	}); err != nil {
		return fmt.Errorf("governed ingest: %w", err)
	}
	rep.Spills = gv.Spills()
	rep.SpilledGraphBytes = liveOver(govBase)
	if rep.SpilledGraphBytes > rep.PeakGovernedBytes {
		rep.PeakGovernedBytes = rep.SpilledGraphBytes
	}
	rep.SpillDirBytes = dirSize(spillDir)

	got, err := transformSeq(gSpill, shapes)
	if err != nil {
		return fmt.Errorf("governed run: %w", err)
	}
	rep.GovernedNs = nowNs() - start
	rep.TransformLiveBytes = liveOver(govBase)
	rep.Identical = got.ddl == want.ddl &&
		bytes.Equal(got.nodes, want.nodes) &&
		bytes.Equal(got.edges, want.edges)
	// Both heap baselines include the input buffer; keeping it live through
	// every sample keeps the subtractions meaningful (the GC is free to
	// collect a []byte after its last use, mid-function).
	runtime.KeepAlive(data)

	// The gates, all hard: the dataset must dwarf the budget, the spilled
	// graph must fit under it, spilling must actually have run, and the
	// out-of-core outputs must be byte-identical.
	rep.Gate = "passed"
	switch {
	case rep.InRAMGraphBytes < 3*budget:
		rep.Gate, rep.GateDetail = "failed", fmt.Sprintf(
			"in-RAM graph %d bytes is under 3× the %d-byte budget; raise -scale or lower -oocore-budget-mb", rep.InRAMGraphBytes, budget)
	case rep.Spills == 0:
		rep.Gate, rep.GateDetail = "failed", "governed run never spilled"
	case rep.SpilledGraphBytes > budget:
		rep.Gate, rep.GateDetail = "failed", fmt.Sprintf(
			"spilled graph residency %d bytes exceeds the %d-byte budget", rep.SpilledGraphBytes, budget)
	case !rep.Identical:
		rep.Gate, rep.GateDetail = "failed", "out-of-core outputs differ from the in-RAM run"
	}

	if err := writeJSON(out, rep); err != nil {
		return err
	}
	if rep.Gate != "passed" {
		return fmt.Errorf("oocore gate failed: %s", rep.GateDetail)
	}
	fmt.Fprintf(os.Stderr, "oocore: %d triples, graph %.1f MiB in RAM vs %.1f MiB spilled (budget %d MiB, %d spills, %.1f MiB on disk), outputs identical\n",
		rep.Triples, float64(rep.InRAMGraphBytes)/(1<<20), float64(rep.SpilledGraphBytes)/(1<<20),
		budgetMB, rep.Spills, float64(rep.SpillDirBytes)/(1<<20))
	return nil
}

// dirSize sums the file sizes under dir (best effort).
func dirSize(dir string) int64 {
	var total int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return nil
	})
	return total
}
