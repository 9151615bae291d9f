package core_test

import (
	"bytes"
	"context"
	"runtime"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// TestOutOfCoreShedsGraphSameBytes is the out-of-core contract (DESIGN.md
// §10) end to end: an XL-profile dataset whose in-RAM graph is at least three
// times the heap budget is ingested under the spill governor, stays under the
// budget once its segments are on disk, and transforms over paged reads into
// nodes.csv/edges.csv/schema.ddl byte-identical to the unconstrained run. The
// budget governs the graph — the structure spilling sheds — so residency is
// live heap above a pre-ingest baseline, as -max-mem governs the graph and
// not the CSV encoder.
func TestOutOfCoreShedsGraphSameBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests and transforms 262 k triples twice")
	}
	const budgetMB = 4
	const budget = budgetMB << 20

	g0 := datagen.Generate(datagen.Profiles()["XL"], 0.15, 1)
	var nt bytes.Buffer
	if err := rio.WriteNTriples(&nt, g0); err != nil {
		t.Fatal(err)
	}
	data := nt.Bytes()
	shapes := shapeex.Extract(g0, shapeex.Options{MinSupport: 0.02})
	g0 = nil

	// heapOver is HeapAlloc above base, the raw signal the CLI governor
	// watches, or live bytes above base after a forced collection.
	heapOver := func(base uint64, collect bool) uint64 {
		if collect {
			runtime.GC()
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return max(ms.HeapAlloc, base) - base
	}
	// ingest streams data into g sequentially, calling check every 4096
	// statements and once at the end.
	ingest := func(g *rdf.Graph, check func()) {
		sc := rio.NewNTriplesScanner(bytes.NewReader(data), rio.Options{})
		for n := 1; ; n++ {
			tr, ok, err := sc.Scan()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			g.Add(tr)
			if n%4096 == 0 {
				check()
			}
		}
		check()
	}
	transform := func(g *rdf.Graph) [3]string {
		tr, err := core.TransformWith(context.Background(), g, shapes, core.Parsimonious, nil, core.TransformOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out := outputsOf(t, tr)
		return [3]string{out.ddl, string(out.nodes), string(out.edges)}
	}

	// Unconstrained: the reference outputs, and the proof that the dataset
	// needs spilling at this budget.
	base := heapOver(0, true)
	gRAM := rdf.NewGraph()
	ingest(gRAM, func() {})
	inRAM := heapOver(base, true)
	want := transform(gRAM)
	gRAM = nil

	// Governed: the same bytes, the baseline now also holding the reference
	// outputs.
	govBase := heapOver(0, true)
	gv := rdf.NewGovernor(rdf.SpillConfig{
		Dir:      t.TempDir(),
		HighMB:   budgetMB,
		ReadHeap: func() uint64 { return heapOver(govBase, false) },
	})
	gSpill := rdf.NewGraph()
	ingest(gSpill, func() {
		if _, err := gv.Maybe(gSpill); err != nil {
			t.Fatal(err)
		}
	})
	resident := heapOver(govBase, true)
	got := transform(gSpill)
	// Both baselines include the input buffer, and the collector is free to
	// drop a []byte after its last use; each graph is read by the transform
	// that follows its sample.
	runtime.KeepAlive(data)

	if inRAM < 3*budget {
		t.Errorf("in-RAM graph is %d bytes, under 3× the %d-byte budget: the dataset does not need spilling", inRAM, budget)
	}
	if gv.Spills() == 0 {
		t.Error("governed run never spilled")
	}
	if resident > budget {
		t.Errorf("spilled graph keeps %d bytes resident, over the %d-byte budget (in RAM: %d)", resident, budget, inRAM)
	}
	for i, name := range []string{"schema.ddl", "nodes.csv", "edges.csv"} {
		if got[i] != want[i] {
			t.Errorf("out-of-core %s differs from the in-RAM run", name)
		}
	}
	t.Logf("%d spills under %d MiB: graph %.1f MiB in RAM, %.1f MiB resident spilled",
		gv.Spills(), budgetMB, float64(inRAM)/(1<<20), float64(resident)/(1<<20))
}
