package core_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// The live-path micro-benchmarks: what one grow update and the publish after
// it cost, at two graph sizes eight times apart with the same 78-statement
// delta. They exist to show that the cost follows the delta, not the graph:
//
//	go test ./internal/core -run '^$' -bench 'AfterDelta|ApplyDeltaGrow' -benchmem
//
// Every iteration is one full live cycle — ApplyDelta, Graph.Clone,
// Store.Clone — and each benchmark times one of the three. Folds of the IRI
// index (cow.Map) and of the dictionary's term index (amortised O(1) per
// insert, but O(graph) when they happen) are timed apart:
// "fold-ns/op" is their cost spread over all iterations, ns/op excludes them.

const benchStmts = 78

var benchScales = []struct {
	name  string
	scale float64
}{{"35k", 0.0003}, {"280k", 0.0024}}

// liveCycle is a DeltaState over a generated graph plus a feed of grow-only
// batches (no rdf:type statement, subjects typed already: the fast path).
type liveCycle struct {
	st      *core.DeltaState
	batches []*rdf.Delta
	next    int
}

// newLiveCycle returns a live cycle with n batches. About one statement in
// five of an Evolve delta passes the filter (a new entity's are typed in
// the delta only), so it draws deltas of n batches' size under successive
// seeds until n batches' worth have passed.
func newLiveCycle(tb testing.TB, scale float64, seed int64, n int) *liveCycle {
	tb.Helper()
	p := datagen.Profiles()["DBpedia2022"]
	g := datagen.Generate(p, scale, seed)
	sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	var stmts []rdf.Triple
	typed := func(t rdf.Term) bool {
		return !t.IsIRI() || !strings.HasPrefix(t.Value, p.NS) || g.MatchCount(&t, &rdf.A, nil) > 0
	}
	want := n * benchStmts
	seen := make(map[rdf.Triple]bool)
	for s := seed + 1; len(stmts) < want; s++ {
		if s > seed+100 {
			tb.Fatalf("100 Evolve deltas gave %d grow statements, want %d", len(stmts), want)
		}
		datagen.Evolve(g, p, float64(want)/float64(g.Len()), s).ForEach(func(t rdf.Triple) bool {
			if t.P != rdf.A && typed(t.S) && typed(t.O) && !seen[t] {
				seen[t] = true
				stmts = append(stmts, t)
			}
			return true
		})
	}
	lc := &liveCycle{}
	for lo := 0; lo < want; lo += benchStmts {
		lc.batches = append(lc.batches, &rdf.Delta{Inserts: stmts[lo : lo+benchStmts]})
	}
	st, err := core.NewDeltaState(g, sg, core.NonParsimonious)
	if err != nil {
		tb.Fatal(err)
	}
	lc.st = st
	return lc
}

func (lc *liveCycle) apply(tb testing.TB) {
	if _, err := lc.st.ApplyDelta(lc.batches[lc.next]); err != nil {
		tb.Fatal(err)
	}
	lc.next++
}

var (
	sinkGraph *rdf.Graph
	sinkStore *pg.Store
)

// runLiveCycles drives b.N cycles over one live graph, timing only the
// named step ("apply", "graph" or "store").
func runLiveCycles(b *testing.B, scale float64, step string) {
	mapFolds, indexFolds := obs.Default.Counter("cow.map.folds"), obs.Default.Counter("rdf.dict.index_folds")
	folds := func() int64 { return mapFolds.Value() + indexFolds.Value() }
	lc := newLiveCycle(b, scale, 1, b.N+1)
	lc.apply(b)
	sinkGraph, sinkStore = lc.st.Graph().Clone(), lc.st.Store().Clone()
	b.ReportAllocs()
	b.ResetTimer()
	b.StopTimer()
	var foldNS, nFolds int64
	timed := func(name string, fn func()) {
		if name != step {
			fn()
			return
		}
		f0 := folds()
		t0 := b.Elapsed()
		b.StartTimer()
		fn()
		b.StopTimer()
		if n := folds() - f0; n > 0 {
			nFolds += n
			foldNS += int64(b.Elapsed() - t0)
		}
	}
	for i := 0; i < b.N; i++ {
		timed("apply", func() { lc.apply(b) })
		timed("graph", func() { sinkGraph = lc.st.Graph().Clone() })
		timed("store", func() { sinkStore = lc.st.Store().Clone() })
	}
	// ns/op as the testing package computes it includes the fold steps;
	// report the two parts so the table in CHANGES.md can show them apart.
	total := int64(b.Elapsed())
	b.ReportMetric(float64(total-foldNS)/float64(b.N), "ns/op")
	b.ReportMetric(float64(foldNS)/float64(b.N), "fold-ns/op")
	b.ReportMetric(float64(nFolds)/float64(b.N), "folds/op")
}

// TestApplyDeltaGrowAllocBudget is the CPU-independent gate on the live grow
// path: a bench-shaped batch (BenchmarkApplyDeltaGrow's, at 35k triples)
// allocates at most half the bytes and half the allocations it took while
// every batch was re-interned into a throwaway graph, its subjects'
// pre-images were JSON-encoded and its change records sorted by reflection:
// 177 KB and 291. The mean over a run of batches counts the tables' growth,
// as the benchmark's B/op does.
func TestApplyDeltaGrowAllocBudget(t *testing.T) {
	lc := newLiveCycle(t, benchScales[0].scale, 1, 74)
	lc.apply(t)
	batches := float64(len(lc.batches) - lc.next)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for lc.next < len(lc.batches) {
		lc.apply(t)
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / batches
	allocs := float64(after.Mallocs-before.Mallocs) / batches
	t.Logf("a grow batch of %d statements, mean of %.0f: %.0f B, %.0f allocs", benchStmts, batches, bytes, allocs)
	if bytes > 177e3/2 {
		t.Errorf("a grow batch allocates %.0f B, want <= %.0f", bytes, 177e3/2)
	}
	if allocs > 291/2 {
		t.Errorf("a grow batch allocates %.0f times, want <= %d", allocs, 291/2)
	}
}

func BenchmarkApplyDeltaGrow(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(fmt.Sprintf("triples=%s", sc.name), func(b *testing.B) { runLiveCycles(b, sc.scale, "apply") })
	}
}

// BenchmarkApplyDeltaChurn is the other half of a live round: the batch with
// deletes, literal mutations, new typed entities and growth that the
// benchmark's script sends every tenth cycle (datagen.EvolveChurn at its
// fractions, rdf:type deletes taken out as there, so the batch is applied in
// place). Both clones are taken after every batch, as a query between two
// updates makes the daemon do, so every record the sweep renumbers is one a
// snapshot still shares. Reported, not gated.
func BenchmarkApplyDeltaChurn(b *testing.B) {
	p := datagen.Profiles()["DBpedia2022"]
	for _, sc := range benchScales {
		b.Run(fmt.Sprintf("triples=%s", sc.name), func(b *testing.B) {
			g := datagen.Generate(p, sc.scale, 1)
			st, err := core.NewDeltaState(g, shapeex.Extract(g, shapeex.Options{MinSupport: 0.02}), core.NonParsimonious)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				sinkGraph, sinkStore = st.Graph().Clone(), st.Store().Clone()
				d := datagen.EvolveChurn(st.Graph(), p, datagen.Churn{AddFrac: 0.002, DeleteFrac: 0.001, MutateFrac: 0.001}, int64(i))
				kept := d.Deletes[:0]
				for _, t := range d.Deletes {
					if t.P != rdf.A {
						kept = append(kept, t)
					}
				}
				d.Deletes = kept
				runtime.GC() // the generator's garbage is not the batch's to collect
				b.StartTimer()
				if _, err := st.ApplyDelta(d); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if st.Rebuilds() > int64(b.N)/5 {
				b.Logf("%d of %d batches were rebuilt", st.Rebuilds(), b.N)
			}
		})
	}
}

func BenchmarkGraphCloneAfterDelta(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(fmt.Sprintf("triples=%s", sc.name), func(b *testing.B) { runLiveCycles(b, sc.scale, "graph") })
	}
}

func BenchmarkStoreCloneAfterDelta(b *testing.B) {
	for _, sc := range benchScales {
		b.Run(fmt.Sprintf("triples=%s", sc.name), func(b *testing.B) { runLiveCycles(b, sc.scale, "store") })
	}
}
