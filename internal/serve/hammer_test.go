package serve

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestHammerSnapshotSwapAndEviction is the concurrency proof for the read
// path: N reader goroutines execute queries against (a) a live snapshot
// pointer that a writer keeps swapping and (b) a small-budget LRU cache
// that is evicting continuously, while asserting that every answer is
// internally consistent with the LSN of the snapshot it was served from —
// i.e. no torn reads. Run under -race (make race and CI do).
func TestHammerSnapshotSwapAndEviction(t *testing.T) {
	const (
		readers   = 8
		writes    = 200
		cacheKeys = 6
	)

	// Live graph: the writer publishes snapshot LSN k with exactly 2+k
	// nodes, so a reader can verify count == 2+LSN atomically.
	var live atomic.Pointer[Snapshot]
	live.Store(testSnapshot(0, 0))

	// Cache under eviction pressure: budget for ~2 of the 6 keys. Key i
	// holds 2+i nodes.
	base := testSnapshot(0, 0)
	cache := NewCache(base.Bytes() * 5 / 2)
	evictions0 := cCacheEvictions.Value()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var failures atomic.Int64

	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := uint64(1); k <= writes; k++ {
			live.Store(testSnapshot(k, int(k%50)))
		}
		close(stop)
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					if i > 0 {
						return
					}
				default:
				}
				i++
				// Live path: snapshot pointer load, then a query whose
				// answer must equal f(LSN) for the snapshot read.
				snap := live.Load()
				resp, err := Execute(ctx, snap, Request{Lang: "cypher", Query: `MATCH (n:T) RETURN count(*) AS n`})
				if err != nil {
					failures.Add(1)
					t.Errorf("live query: %v", err)
					return
				}
				want := int64(2 + resp.LSN%50)
				if got := resp.Rows()[0][0]; got != want {
					failures.Add(1)
					t.Errorf("torn read: LSN %d has count %v, want %d", resp.LSN, got, want)
					return
				}
				// And the SPARQL side of the same snapshot.
				sresp, err := Execute(ctx, snap, Request{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s a ?c }`})
				if err != nil {
					failures.Add(1)
					t.Errorf("live sparql query: %v", err)
					return
				}
				if got := sresp.Rows()[0][0]; got != fmt.Sprint(want) {
					failures.Add(1)
					t.Errorf("torn sparql read: LSN %d has count %v, want %d", sresp.LSN, got, want)
					return
				}

				// Cache path under eviction: key k must always serve a
				// snapshot with exactly 2+k nodes regardless of evictions.
				key := i % cacheKeys
				cs, _, err := cache.Get(ctx, fmt.Sprintf("k%d", key), func() (*Snapshot, error) {
					return testSnapshot(0, key), nil
				})
				if err != nil {
					failures.Add(1)
					t.Errorf("cache get: %v", err)
					return
				}
				cresp, err := Execute(ctx, cs, Request{Lang: "cypher", Query: `MATCH (n:T) RETURN count(*) AS n`})
				if err != nil {
					failures.Add(1)
					t.Errorf("cache query: %v", err)
					return
				}
				if got := cresp.Rows()[0][0]; got != int64(2+key) {
					failures.Add(1)
					t.Errorf("cache served wrong snapshot for key %d: count %v", key, got)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d consistency failures", failures.Load())
	}
	if cCacheEvictions.Value() == evictions0 {
		t.Fatal("hammer never evicted; budget too large for the test to mean anything")
	}
}
