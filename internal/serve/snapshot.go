// Package serve is the online query-serving tier: immutable graph
// snapshots, a lock-free LRU cache of loaded graphs, admission control, and
// deadline-bounded query execution for both query languages. The design
// contract is load-once/serve-many — a snapshot is built (or loaded) once,
// then shared by any number of concurrent readers with zero locks on the
// steady-state read path.
package serve

import (
	"sync"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

// Snapshot is an immutable, shareable view of one graph: the source RDF
// graph (dictionary-encoded), the transformed property graph, the schema
// DDL, and the LSN the view is consistent at. Snapshots are never mutated
// after construction; readers may use them concurrently without
// synchronization.
type Snapshot struct {
	Graph *rdf.Graph
	Store *pg.Store
	DDL   string
	// LSN is the last delta applied to the view: 0 for batch-loaded (job)
	// graphs, the WAL LSN for live graphs.
	LSN uint64

	costOnce sync.Once
	cost     int64
}

// NewSnapshot freezes the given graph pair into a snapshot. Ownership of
// both structures passes to the snapshot: callers must not mutate them
// afterwards. It does not look inside them: a live graph publishes one per
// update, and only the Cache ever asks what a snapshot costs.
func NewSnapshot(g *rdf.Graph, store *pg.Store, ddl string, lsn uint64) *Snapshot {
	return &Snapshot{Graph: g, Store: store, DDL: ddl, LSN: lsn}
}

// Bytes is the approximate heap cost of the snapshot, used for LRU budget
// accounting. It walks the graph and the store on first use.
func (s *Snapshot) Bytes() int64 {
	s.costOnce.Do(func() {
		s.cost = approxGraphBytes(s.Graph) + approxStoreBytes(s.Store) + int64(len(s.DDL))
	})
	return s.cost
}

// approxGraphBytes estimates the heap cost of a dictionary-encoded RDF graph
// that has been read once, from its layout (DESIGN.md §4): a term is a
// 24-byte record plus its value bytes in the dictionary's chunks (datatype
// IRIs and language tags are interned, so they cost nothing per term), a
// hash-index slot (8 bytes, at most half full) and a posting-list header in
// each of the three indexes (24 bytes each, dense by id); a triple is 12
// bytes in the log, a tombstone byte, a duplicate-index slot and three 4-byte
// postings.
func approxGraphBytes(g *rdf.Graph) int64 {
	if g == nil {
		return 0
	}
	d := g.Dict()
	b := int64(d.Len())*(24+16+3*24) + d.ValueBytes()
	return b + int64(g.Len())*(12+1+16+3*4)
}

// approxStoreBytes estimates the heap cost of a property graph store from
// its layout (DESIGN.md §4): a node is a 32-byte record plus its two
// adjacency-list headers, an edge a 40-byte record plus its two postings;
// label and key names are interned, so they cost nothing per element; a
// property is a 24-byte entry plus its boxed value.
func approxStoreBytes(s *pg.Store) int64 {
	if s == nil {
		return 0
	}
	var b int64
	for ni := 0; ni < s.NumNodes(); ni++ {
		n := s.Node(pg.NodeID(ni))
		b += 32 + 2*24                  // record + out/in list headers
		b += 4 * int64(len(n.Labels())) // byLabel postings
		if _, ok := n.Prop("iri").(string); ok {
			b += 48 // byIRI entry: key header, id, the map's slack
		}
		b += propsBytes(n.NumProps(), n.PropAt)
	}
	for ei := 0; ei < s.NumEdges(); ei++ {
		e := s.Edge(pg.EdgeID(ei))
		b += 40 + 2*4 // record + out/in postings
		b += propsBytes(e.NumProps(), e.PropAt)
	}
	return b
}

// propsBytes is the cost of a record of n properties: 24 bytes an entry plus
// what its value holds.
func propsBytes(n int, at func(int) (string, pg.Value)) int64 {
	var b int64
	for i := 0; i < n; i++ {
		_, v := at(i)
		b += 24 + valueBytes(v)
	}
	return b
}

// valueBytes is what a value holds beyond the interface word pair that
// carries it: the box and, for strings and arrays, the payload.
func valueBytes(v pg.Value) int64 {
	switch x := v.(type) {
	case string:
		return 16 + int64(len(x))
	case []pg.Value:
		var b int64 = 24
		for _, e := range x {
			b += 16 + valueBytes(e)
		}
		return b
	case bool:
		return 0
	default:
		return 8
	}
}
