package pg_test

import (
	"bytes"
	"io"
	"runtime"
	"sync"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/shapeex"
)

var batchSeq struct {
	sync.Once
	store        *pg.Store
	nodes, edges []byte
}

// batchSeqStore is the store of the benchmark's batch_seq workload
// (DBpedia2022 at scale 0.001, seed 1: 34 k nodes, 48 k edges) and its export.
func batchSeqStore(tb testing.TB) (*pg.Store, []byte, []byte) {
	batchSeq.Do(func() {
		g := datagen.Generate(datagen.DBpedia2022(), 0.001, 1)
		store, _, err := core.Transform(g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}), core.Parsimonious)
		if err != nil {
			tb.Fatal(err)
		}
		var n, e bytes.Buffer
		if err := store.WriteCSV(&n, &e); err != nil {
			tb.Fatal(err)
		}
		batchSeq.store, batchSeq.nodes, batchSeq.edges = store, n.Bytes(), e.Bytes()
	})
	return batchSeq.store, batchSeq.nodes, batchSeq.edges
}

// perRow runs op b.N times and reports time and allocations per CSV row.
func perRow(b *testing.B, rows int, op func() error) {
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	per := float64(b.N) * float64(rows)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/per, "ns/row")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/per, "allocs/row")
}

// BenchmarkLoadCSV is pg.LoadCSV (the paper's load time) over the batch_seq
// export: ns and allocations per CSV row.
func BenchmarkLoadCSV(b *testing.B) {
	store, nodes, edges := batchSeqStore(b)
	perRow(b, store.NumNodes()+store.NumEdges(), func() error {
		_, err := pg.LoadCSV(bytes.NewReader(nodes), bytes.NewReader(edges))
		return err
	})
}

// BenchmarkWriteCSV is the sequential export of the same store.
func BenchmarkWriteCSV(b *testing.B) {
	store, _, _ := batchSeqStore(b)
	perRow(b, store.NumNodes()+store.NumEdges(), func() error {
		return store.WriteCSV(io.Discard, io.Discard)
	})
}
