package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

// testSnapshot builds a snapshot with n extra nodes/triples beyond a fixed
// base, so content can be checked against an expected "LSN".
func testSnapshot(lsn uint64, extra int) *Snapshot {
	g := rdf.NewGraph()
	st := pg.NewStore()
	for i := 0; i < 2+extra; i++ {
		iri := fmt.Sprintf("http://x/n%d", i)
		g.Add(rdf.NewTriple(rdf.NewIRI(iri), rdf.A, rdf.NewIRI("http://x/T")))
		st.AddNode([]string{"T"}, map[string]pg.Value{"iri": iri})
	}
	return NewSnapshot(g, st, "CREATE NODE TABLE T(...)", lsn)
}

func TestSnapshotBytesPositive(t *testing.T) {
	s := testSnapshot(0, 10)
	if s.Bytes() <= 0 {
		t.Fatalf("Bytes = %d", s.Bytes())
	}
	big := testSnapshot(0, 100)
	if big.Bytes() <= s.Bytes() {
		t.Fatalf("bigger snapshot not costed higher: %d vs %d", big.Bytes(), s.Bytes())
	}
}

func TestCacheHitMissAndSingleFlight(t *testing.T) {
	c := NewCache(1 << 30)
	loads0, hits0 := cCacheLoads.Value(), cCacheHits.Value()
	var loadCount atomic.Int64
	load := func() (*Snapshot, error) {
		loadCount.Add(1)
		time.Sleep(10 * time.Millisecond) // widen the single-flight window
		return testSnapshot(0, 1), nil
	}
	const N = 16
	var wg sync.WaitGroup
	snaps := make([]*Snapshot, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := c.Get(context.Background(), "k", load)
			if err != nil {
				t.Errorf("get: %v", err)
			}
			snaps[i] = s
		}(i)
	}
	wg.Wait()
	if got := loadCount.Load(); got != 1 {
		t.Fatalf("load ran %d times, want 1 (single-flight)", got)
	}
	for _, s := range snaps[1:] {
		if s != snaps[0] {
			t.Fatal("concurrent getters saw different snapshots")
		}
	}
	// Now a hit, with no load.
	_, hit, err := c.Get(context.Background(), "k", func() (*Snapshot, error) {
		t.Fatal("load called on hit")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("hit = %v, err = %v", hit, err)
	}
	if loads, hits := cCacheLoads.Value()-loads0, cCacheHits.Value()-hits0; loads != 1 || hits < 1 {
		t.Fatalf("serve.cache.loads +%d, serve.cache.hits +%d; want +1 and at least +1", loads, hits)
	}
}

func TestCacheLoadError(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	_, _, err := c.Get(context.Background(), "k", func() (*Snapshot, error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	// A failed load must not poison the key.
	s, hit, err := c.Get(context.Background(), "k", func() (*Snapshot, error) { return testSnapshot(0, 0), nil })
	if err != nil || hit || s == nil {
		t.Fatalf("retry after failed load: s=%v hit=%v err=%v", s, hit, err)
	}
}

func TestCacheEvictsLRUWithinBudget(t *testing.T) {
	one := testSnapshot(0, 0)
	// Budget for two snapshots but not three.
	c := NewCache(one.Bytes()*2 + one.Bytes()/2)
	mk := func(k string) func() (*Snapshot, error) {
		return func() (*Snapshot, error) { return testSnapshot(0, 0), nil }
	}
	ctx := context.Background()
	evictions0 := cCacheEvictions.Value()
	c.Get(ctx, "a", mk("a"))
	c.Get(ctx, "b", mk("b"))
	c.Get(ctx, "a", mk("a")) // touch a so b is the LRU victim
	c.Get(ctx, "c", mk("c"))
	if evictions, entries := cCacheEvictions.Value()-evictions0, len(*c.index.Load()); evictions != 1 || entries != 2 {
		t.Fatalf("%d evictions and %d entries, want 1 and 2", evictions, entries)
	}
	if _, hit, _ := c.Get(ctx, "a", mk("a")); !hit {
		t.Fatal("recently used entry was evicted")
	}
	if _, hit, _ := c.Get(ctx, "b", mk("b")); hit {
		t.Fatal("LRU entry survived over-budget insert")
	}
	if c.used > c.budget+one.Bytes() {
		t.Fatalf("bytes accounting off: %d vs budget %d", c.used, c.budget)
	}
}

func TestCacheOversizedEntryStillServes(t *testing.T) {
	s := testSnapshot(0, 50)
	c := NewCache(1) // budget smaller than any snapshot
	got, _, err := c.Get(context.Background(), "big", func() (*Snapshot, error) { return s, nil })
	if err != nil || got != s {
		t.Fatalf("got=%v err=%v", got, err)
	}
	if _, hit, _ := c.Get(context.Background(), "big", nil); !hit {
		t.Fatal("sole oversized entry must stay resident")
	}
}

func TestGateAdmission(t *testing.T) {
	g := NewGate(2, 1)
	ctx := context.Background()
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := g.Acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// Slots full: one waiter allowed, the next is rejected.
	waited := make(chan error, 1)
	go func() {
		waited <- g.Acquire(ctx)
	}()
	// Give the waiter time to enqueue, then overflow the queue.
	deadline := time.Now().Add(time.Second)
	for g.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := g.Acquire(ctx); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow err = %v, want ErrBusy", err)
	}
	g.Release()
	if err := <-waited; err != nil {
		t.Fatalf("waiter err = %v", err)
	}
	// Waiting with a canceled context returns promptly.
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if err := g.Acquire(cctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter err = %v", err)
	}
}

func TestExecuteCypherAndSparql(t *testing.T) {
	snap := testSnapshot(7, 3) // 5 nodes
	ctx := context.Background()

	r, err := Execute(ctx, snap, Request{Lang: "cypher", Query: `MATCH (n:T) RETURN count(*) AS n`})
	if err != nil {
		t.Fatal(err)
	}
	if r.LSN != 7 || len(r.Rows()) != 1 || r.Rows()[0][0] != int64(5) {
		t.Fatalf("cypher resp = %+v", r)
	}

	r, err = Execute(ctx, snap, Request{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s a ?c }`})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows()) != 1 || r.Rows()[0][0] != "5" {
		t.Fatalf("sparql resp = %+v", r)
	}

	r, err = Execute(ctx, snap, Request{Lang: "sparql", Query: `ASK { ?s a ?c }`})
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows()[0][0] != "true" {
		t.Fatalf("ask resp = %+v", r)
	}
}

// TestExecuteOverSpilledSnapshot pins the serve/out-of-core contract
// (DESIGN.md §10): a snapshot can point at a Clone of a spilled graph — the
// clone shares the immutable on-disk segments — and queries read through
// the paged files to the same answers as an in-RAM snapshot, concurrently,
// and isolated from later writes to the original graph.
func TestExecuteOverSpilledSnapshot(t *testing.T) {
	g := rdf.NewGraph()
	st := pg.NewStore()
	dir := t.TempDir()
	const n = 500
	for i := 0; i < n; i++ {
		iri := fmt.Sprintf("http://x/n%d", i)
		g.Add(rdf.NewTriple(rdf.NewIRI(iri), rdf.A, rdf.NewIRI("http://x/T")))
		g.Add(rdf.NewTriple(rdf.NewIRI(iri), rdf.NewIRI("http://x/v"), rdf.NewLiteral(fmt.Sprint(i))))
		st.AddNode([]string{"T"}, map[string]pg.Value{"iri": iri})
		if i%200 == 150 || i == n-1 { // three installments, the rdf:type list in each
			if err := g.Spill(dir, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !g.Spilled() || g.TailLen() != 0 {
		t.Fatal("graph not spilled")
	}
	snap := NewSnapshot(g.Clone(), st, "CREATE NODE TABLE T(...)", 3)

	// Writes to the original after the clone must not leak into the snapshot.
	g.Add(rdf.NewTriple(rdf.NewIRI("http://x/late"), rdf.A, rdf.NewIRI("http://x/T")))

	queries := []Request{
		{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s a <http://x/T> }`},
		{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s <http://x/v> ?o }`},
		{Lang: "cypher", Query: `MATCH (m:T) RETURN count(*) AS n`},
	}
	wants := []any{fmt.Sprint(n), fmt.Sprint(n), int64(n)}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, q := range queries {
				r, err := Execute(context.Background(), snap, q)
				if err != nil {
					t.Errorf("%s over spilled snapshot: %v", q.Lang, err)
					return
				}
				if len(r.Rows()) != 1 || r.Rows()[0][0] != wants[i] {
					t.Errorf("%s %q = %+v, want %v", q.Lang, q.Query, r.Rows(), wants[i])
				}
			}
		}()
	}
	wg.Wait()
}

func TestExecuteParams(t *testing.T) {
	snap := testSnapshot(0, 0)
	r, err := Execute(context.Background(), snap, Request{
		Lang:   "cypher",
		Query:  `MATCH (n:T) WHERE n.iri = $iri RETURN n.iri AS iri`,
		Params: map[string]any{"iri": "http://x/n1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows()) != 1 || r.Rows()[0][0] != "http://x/n1" {
		t.Fatalf("resp = %+v", r)
	}
}

func TestExecuteMaxRowsTruncates(t *testing.T) {
	snap := testSnapshot(0, 8) // 10 nodes
	r, err := Execute(context.Background(), snap, Request{
		Lang: "cypher", Query: `MATCH (n:T) RETURN n.iri AS iri`, MaxRows: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows()) != 4 || !r.Truncated {
		t.Fatalf("rows=%d truncated=%v", len(r.Rows()), r.Truncated)
	}
}

func TestExecuteBadQueryAndLang(t *testing.T) {
	snap := testSnapshot(0, 0)
	if _, err := Execute(context.Background(), snap, Request{Lang: "cypher", Query: `MATCH ((`}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Execute(context.Background(), snap, Request{Lang: "datalog", Query: `x`}); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("err = %v", err)
	}
}

func TestExecuteDeadline(t *testing.T) {
	snap := testSnapshot(0, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Execute(ctx, snap, Request{Lang: "cypher", Query: `MATCH (n) RETURN count(*) AS n`})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
