package serve

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/s3pg/s3pg/internal/obs"
)

// Cache metrics (obs.Default registry). The loads counter is the witness
// that a hit never touches the load path.
var (
	cCacheHits      = obs.Default.Counter("serve.cache.hits")
	cCacheMisses    = obs.Default.Counter("serve.cache.misses")
	cCacheLoads     = obs.Default.Counter("serve.cache.loads")
	cCacheEvictions = obs.Default.Counter("serve.cache.evictions")
	gCacheBytes     = obs.Default.Gauge("serve.cache.bytes")
	gCacheEntries   = obs.Default.Gauge("serve.cache.entries")
)

// entry is one cached snapshot plus its approximate-LRU stamp. lastUsed is
// written by readers with a plain atomic store of the global clock, so the
// hit path never takes a lock; eviction reads the stamps under the writer
// mutex and tolerates the slight raciness of concurrent stamping (an entry
// being used while we evict it stays alive through its Snapshot pointer —
// readers hold the snapshot, not the cache slot).
type entry struct {
	snap     *Snapshot
	lastUsed atomic.Int64
}

// loadCall is a single-flight slot: concurrent misses on the same key wait
// on done instead of loading the graph again.
type loadCall struct {
	done chan struct{}
	snap *Snapshot
	err  error
}

// Cache is an LRU of immutable graph snapshots with byte-cost accounting.
//
// The read path is lock-free: the key→entry index is an immutable map
// behind an atomic pointer, so a hit is one atomic load, one map lookup,
// and one atomic stamp. Writers (insert and eviction) serialize on a mutex,
// build a fresh copy of the index, and publish it with an atomic swap —
// readers never observe a map mid-mutation.
type Cache struct {
	budget int64 // max total Snapshot.Bytes; <=0 means unlimited

	index atomic.Pointer[map[string]*entry]
	clock atomic.Int64

	mu       sync.Mutex // writers: insert, evict, single-flight registry
	used     int64
	inflight map[string]*loadCall
}

// NewCache returns a cache that evicts least-recently-used snapshots once
// the sum of their byte costs exceeds budget. A budget <= 0 disables
// eviction.
func NewCache(budget int64) *Cache {
	c := &Cache{budget: budget, inflight: make(map[string]*loadCall)}
	empty := make(map[string]*entry)
	c.index.Store(&empty)
	return c
}

// Get returns the snapshot for key, loading it at most once no matter how
// many callers miss concurrently. The second result reports whether the
// call was a hit. ctx only bounds waiting on a concurrent load; the load
// callback is responsible for its own cancellation.
func (c *Cache) Get(ctx context.Context, key string, load func() (*Snapshot, error)) (*Snapshot, bool, error) {
	if e, ok := (*c.index.Load())[key]; ok {
		e.lastUsed.Store(c.clock.Add(1))
		cCacheHits.Inc()
		return e.snap, true, nil
	}
	cCacheMisses.Inc()

	c.mu.Lock()
	// The entry may have landed between the lock-free check and the lock.
	if e, ok := (*c.index.Load())[key]; ok {
		c.mu.Unlock()
		e.lastUsed.Store(c.clock.Add(1))
		return e.snap, true, nil
	}
	if call, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-call.done:
			return call.snap, false, call.err
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
	call := &loadCall{done: make(chan struct{})}
	c.inflight[key] = call
	c.mu.Unlock()

	cCacheLoads.Inc()
	call.snap, call.err = load()
	if call.err == nil {
		call.snap.Bytes() // the costing walk, before the writer lock is taken
	}

	c.mu.Lock()
	delete(c.inflight, key)
	if call.err == nil {
		c.insertLocked(key, call.snap)
	}
	c.mu.Unlock()
	close(call.done)
	return call.snap, false, call.err
}

// insertLocked publishes a new index containing the entry and evicts
// least-recently-used entries until the budget holds again. The entry being
// inserted is never evicted, even when it alone exceeds the budget —
// serving an oversized graph once beats reload thrashing.
func (c *Cache) insertLocked(key string, snap *Snapshot) {
	old := *c.index.Load()
	next := make(map[string]*entry, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	e := &entry{snap: snap}
	e.lastUsed.Store(c.clock.Add(1))
	next[key] = e
	c.used += snap.Bytes()

	for c.budget > 0 && c.used > c.budget && len(next) > 1 {
		victimKey := ""
		var victim *entry
		for k, v := range next {
			if k == key {
				continue
			}
			if victim == nil || v.lastUsed.Load() < victim.lastUsed.Load() {
				victimKey, victim = k, v
			}
		}
		if victim == nil {
			break
		}
		delete(next, victimKey)
		c.used -= victim.snap.Bytes()
		cCacheEvictions.Inc()
	}

	c.index.Store(&next)
	gCacheBytes.Set(c.used)
	gCacheEntries.Set(int64(len(next)))
}
