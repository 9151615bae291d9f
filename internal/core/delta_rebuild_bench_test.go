package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// rebuildScales are the graph sizes of the live-path benchmarks in
// delta_bench_test.go (benchScales there, in the external test package).
var rebuildScales = []struct {
	name  string
	scale float64
}{{"35k", 0.0003}, {"280k", 0.0024}}

// BenchmarkApplyDeltaRebuild times the batch BenchmarkApplyDeltaChurn sends,
// on a state that rebuilds every batch: the from-scratch transformation of
// the live graph plus the emission of its change records. transform-ns/op is
// the first part alone, timed on the post-batch graph apart from the batch.
//
//	go test ./internal/core -run '^$' -bench ApplyDeltaRebuild -benchtime 20x
func BenchmarkApplyDeltaRebuild(b *testing.B) {
	p := datagen.Profiles()["DBpedia2022"]
	for _, sc := range rebuildScales {
		b.Run(fmt.Sprintf("triples=%s", sc.name), func(b *testing.B) {
			g := datagen.Generate(p, sc.scale, 1)
			st, err := NewDeltaState(g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}), NonParsimonious)
			if err != nil {
				b.Fatal(err)
			}
			st.forceRebuild = true
			var transform time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := datagen.EvolveChurn(st.g, p, datagen.Churn{AddFrac: 0.002, DeleteFrac: 0.001, MutateFrac: 0.001}, int64(i))
				d.Deletes = withoutTypes(d.Deletes)
				runtime.GC()
				b.StartTimer()
				if _, err := st.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				runtime.GC()
				t0 := time.Now()
				if _, err := st.retransform(); err != nil {
					b.Fatal(err)
				}
				transform += time.Since(t0)
				b.StartTimer()
			}
			b.ReportMetric(float64(transform.Nanoseconds())/float64(b.N), "transform-ns/op")
		})
	}
}
