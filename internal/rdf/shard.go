package rdf

import (
	"sync"

	"github.com/s3pg/s3pg/internal/obs"
)

// cShardContention counts lock-acquisition conflicts on sharded-dictionary
// shards: each increment is one Intern call that found its shard lock held
// and had to wait. A high ratio of contention to staged terms means the term
// hash is not spreading load (or workers vastly outnumber shards).
var cShardContention = obs.Default.Counter("rdf.sharddict.contention")

const (
	// shardBits fixes the shard count. 64 shards keep the expected
	// worker-collision probability low for any realistic worker count while
	// each shard's map stays large enough to amortize its overhead.
	shardBits = 6
	numShards = 1 << shardBits
	// maxShardTerms bounds per-shard term counts so a ProvID's shard-local
	// index always fits in the bits above the shard tag.
	maxShardTerms = 1 << (32 - shardBits)
)

// ProvID is a provisional term id handed out by a ShardedDict. Provisional
// ids are stable and comparable within one ShardedDict, but they are neither
// dense nor equal to sequential Dict ids: the shard tag occupies the low
// shardBits and the shard-local index the bits above. A Denser remaps them to
// dense TermIDs in first-occurrence order of the merged stream.
type ProvID uint32

// ShardedDict is a lock-striped term interner for parallel ingest. Terms are
// hash-partitioned across numShards shards, each with its own mutex, map,
// and append-only term slice, so workers interning different terms rarely
// contend. It is safe for concurrent use.
//
// A ShardedDict is a staging structure: it hands out ProvIDs during the
// parallel scan, and a Denser later remaps those to dense TermIDs in the
// order the merged triple stream first references them — reproducing exactly
// the ids a sequential Dict would have assigned, which is what keeps encoded
// ids (and everything keyed on them, snapshots and checkpoints included)
// byte-identical to workers=1. The rdf.dict.terms counter is fed during that
// remap (via Dict.Intern), not here, so parallel and sequential ingest report
// identical term counts.
type ShardedDict struct {
	shards [numShards]dictShard
}

type dictShard struct {
	mu    sync.Mutex
	ids   map[Term]uint32
	terms []Term
	_     [24]byte // pad to a cache line so neighbouring locks do not false-share
}

// NewShardedDict returns an empty sharded dictionary.
func NewShardedDict() *ShardedDict {
	d := &ShardedDict{}
	for i := range d.shards {
		d.shards[i].ids = make(map[Term]uint32)
	}
	return d
}

// Intern returns the provisional id for the term, assigning a fresh one on
// first sight. Safe for concurrent use.
func (d *ShardedDict) Intern(t Term) ProvID {
	shard := termShard(t)
	sh := &d.shards[shard]
	if !sh.mu.TryLock() {
		cShardContention.Inc()
		sh.mu.Lock()
	}
	local, ok := sh.ids[t]
	if !ok {
		local = uint32(len(sh.terms))
		if local >= maxShardTerms {
			sh.mu.Unlock()
			panic("rdf: sharded dictionary shard overflow")
		}
		sh.ids[t] = local
		sh.terms = append(sh.terms, t)
	}
	sh.mu.Unlock()
	return ProvID(local<<shardBits | shard)
}

// Len returns the number of staged terms. It locks every shard, so it is
// exact even while workers intern concurrently — but the count is of course
// stale the moment it returns.
func (d *ShardedDict) Len() int {
	n := 0
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		n += len(sh.terms)
		sh.mu.Unlock()
	}
	return n
}

// termShard hashes a term to its shard with FNV-1a over all identity fields
// (0x1f separators keep ("ab","c") and ("a","bc") apart).
func termShard(t Term) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	h = (h ^ uint32(t.Kind)) * prime32
	for i := 0; i < len(t.Value); i++ {
		h = (h ^ uint32(t.Value[i])) * prime32
	}
	h = (h ^ 0x1f) * prime32
	for i := 0; i < len(t.Datatype); i++ {
		h = (h ^ uint32(t.Datatype[i])) * prime32
	}
	h = (h ^ 0x1f) * prime32
	for i := 0; i < len(t.Lang); i++ {
		h = (h ^ uint32(t.Lang[i])) * prime32
	}
	// Fold the high bits down: FNV's low bits alone cluster for short keys.
	h ^= h >> 16
	return h & (numShards - 1)
}

// Denser remaps provisional ids to dense TermIDs in first-occurrence order.
// Walking the merged triple stream in its deterministic order and calling
// Dense on each component assigns TermIDs exactly as sequential ingestion
// (Dict.Intern per parsed term, in stream order) would.
//
// Denser is single-goroutine by design: the remap IS the order-defining
// merge step, so there is nothing to parallelize.
type Denser struct {
	sd    *ShardedDict
	dense [numShards][]TermID
	dict  *Dict
}

// NewDenser prepares a remap of the sharded dictionary's current contents
// into a fresh Dict. The ShardedDict must not be interned into anymore.
func NewDenser(sd *ShardedDict) *Denser { return NewDenserInto(sd, NewDict()) }

// NewDenserInto remaps into an existing dictionary (for example one shared
// with a previous snapshot), mirroring sequential ingest into a shared Dict:
// already-interned terms keep their ids, new terms extend the dictionary.
func NewDenserInto(sd *ShardedDict, d *Dict) *Denser {
	dn := &Denser{sd: sd, dict: d}
	d.grow(sd.Len()) // an upper bound: terms d already holds are not new
	for i := range dn.dense {
		n := len(sd.shards[i].terms)
		if n == 0 {
			continue
		}
		dense := make([]TermID, n)
		for j := range dense {
			dense[j] = noID
		}
		dn.dense[i] = dense
	}
	return dn
}

// Dense returns the dense id for a provisional id, interning the term into
// the target dictionary on first sight.
func (dn *Denser) Dense(p ProvID) TermID {
	shard, local := p&(numShards-1), p>>shardBits
	if id := dn.dense[shard][local]; id != noID {
		return id
	}
	id := dn.dict.Intern(dn.sd.shards[shard].terms[local])
	dn.dense[shard][local] = id
	return id
}

// Dict returns the target dictionary.
func (dn *Denser) Dict() *Dict { return dn.dict }
