// Package neosem reimplements the NeoSemantics (n10s) RDF import pipeline
// that the paper compares against (§5.1): rdf:type triples become labels,
// IRI-object triples become relationships, and literal-object triples become
// node properties with handleMultival: ARRAY semantics.
//
// The loss behaviour is the documented n10s multivalue limitation: property
// arrays are homogeneous, the first value fixes the array's type, later
// values are coerced into it, and values that cannot be coerced are dropped.
// No value nodes are ever created, so literal datatype IRIs, language tags,
// and exact lexical forms are not recoverable — this is what caps NeoSem's
// accuracy below 100% on multi-type properties in Tables 6 and 7.
package neosem

import (
	"bufio"
	"fmt"
	"io"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// commitBatchSize is n10s's default periodic-commit interval: the import
// runs inside the database and flushes a transaction every 25k triples,
// writing the touched records through the store — the reason its combined
// transform+load time is the slowest in Table 4 (no bulk CSV path exists).
const commitBatchSize = 25_000

// Stats reports what the transformation dropped and wrote.
type Stats struct {
	// DroppedValues counts literal values lost to array-type coercion.
	DroppedValues int
	// TxBytes is the volume written through the transactional store
	// (per-commit record flushes).
	TxBytes int64
	// Commits is the number of periodic commits.
	Commits int
}

// Transform converts an RDF graph into a property graph the n10s way.
// Unlike S3PG it is single-pass over an in-store merge API: every triple
// triggers a lookup-or-create by URI, mirroring how the plugin loads data
// through the database engine (and why it is the slowest method in Table 4).
func Transform(g *rdf.Graph) (*pg.Store, *Stats) {
	st := pg.NewStore()
	stats := &Stats{}
	nodeOf := make(map[rdf.Term]pg.NodeID)
	tx := newTxLog(st, stats)
	// arrayType tracks the datatype that fixed each (node, key) array.
	type propKey struct {
		node pg.NodeID
		key  string
	}
	arrayType := make(map[propKey]string)

	merge := func(t rdf.Term) pg.NodeID {
		if id, ok := nodeOf[t]; ok {
			return id
		}
		uri := t.Value
		if t.IsBlank() {
			uri = "_:" + t.Value
		}
		// n10s MERGE semantics: a second lookup through the URI index
		// before creating, as the plugin issues MERGE on the uri key.
		if n, ok := st.NodeByIRI(uri); ok {
			nodeOf[t] = n.ID
			return n.ID
		}
		n := st.AddNode([]string{"Resource"}, map[string]pg.Value{"iri": uri})
		nodeOf[t] = n.ID
		return n.ID
	}

	g.ForEach(func(tr rdf.Triple) bool {
		sid := merge(tr.S)
		tx.touch(sid)
		if tr.P == rdf.A {
			if tr.O.IsIRI() {
				st.AddLabel(sid, rdf.LocalName(tr.O.Value))
			}
			return true
		}
		if tr.O.IsResource() {
			oid := merge(tr.O)
			tx.touch(oid)
			st.AddEdge(sid, oid, rdf.LocalName(tr.P.Value), nil)
			return true
		}
		// Literal → property with ARRAY multivalue handling. The array's
		// element type is the Neo4j *storage* type: dates, gYears and
		// unknown datatypes are stored as strings, so only arrays fixed to
		// a numeric or boolean storage type can reject later values.
		key := rdf.LocalName(tr.P.Value)
		dt := storageDT(tr.O.DatatypeIRI())
		pk := propKey{sid, key}
		if st.Node(sid).Prop(key) == nil {
			arrayType[pk] = dt
			st.SetProp(sid, key, nativeNeoValue(tr.O.Value, dt))
			return true
		}
		// The array's element type was fixed by the first value.
		fixed := arrayType[pk]
		lex, ok := xsd.Coerce(tr.O.Value, dt, fixed)
		if !ok {
			stats.DroppedValues++
			return true
		}
		st.AppendProp(sid, key, nativeNeoValue(lex, fixed))
		return true
	})
	tx.commit()
	return st, stats
}

// txLog models the transactional write-through of the in-database import.
// Unlike the bulk CSV path of the other tools, every operation rewrites the
// affected node record through the write-ahead log (record-level write
// amplification: adding the tenth property logs a ten-property record), and
// every periodic commit additionally flushes the dirty records — the
// documented cost structure that makes the plugin the slowest method in
// Table 4.
type txLog struct {
	st      *pg.Store
	stats   *Stats
	touched map[pg.NodeID]struct{}
	ops     int
	sink    countingWriter
	wal     *bufio.Writer
}

func newTxLog(st *pg.Store, stats *Stats) *txLog {
	t := &txLog{st: st, stats: stats, touched: make(map[pg.NodeID]struct{})}
	t.wal = bufio.NewWriterSize(&t.sink, 1<<16)
	return t
}

// touch records one operation on a node: its current record is written to
// the WAL and it joins the dirty set of the open transaction.
func (t *txLog) touch(id pg.NodeID) {
	t.writeRecord(t.wal, id)
	t.touched[id] = struct{}{}
	t.ops++
	if t.ops >= commitBatchSize {
		t.commit()
	}
}

func (t *txLog) writeRecord(w *bufio.Writer, id pg.NodeID) {
	n := t.st.Node(id)
	fmt.Fprintf(w, "%d|%v|", n.ID, n.Labels())
	for i := 0; i < n.NumProps(); i++ {
		k, v := n.PropAt(i)
		fmt.Fprintf(w, "%s=%s;", k, pg.FormatValue(v))
	}
	w.WriteByte('\n')
}

func (t *txLog) commit() {
	if len(t.touched) == 0 {
		return
	}
	for id := range t.touched {
		t.writeRecord(t.wal, id)
	}
	t.wal.Flush()
	t.stats.TxBytes = t.sink.n
	t.stats.Commits++
	t.touched = make(map[pg.NodeID]struct{})
	t.ops = 0
}

type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

var _ io.Writer = (*countingWriter)(nil)

// storageDT maps a datatype to the type Neo4j stores it as: numerics and
// booleans keep their value space, everything else is a string.
func storageDT(dt string) string {
	switch xsd.KindOf(dt) {
	case xsd.KindInt, xsd.KindFloat, xsd.KindBool:
		return dt
	default:
		return rdf.XSDString
	}
}

// nativeNeoValue converts a lexical form into the property value n10s would
// store (typed scalars for the XSD types Neo4j supports, strings otherwise).
func nativeNeoValue(lex, dt string) pg.Value {
	v, err := xsd.Parse(lex, dt)
	if err != nil {
		return lex
	}
	switch v.Kind {
	case xsd.KindInt:
		return v.I
	case xsd.KindFloat:
		return v.F
	case xsd.KindBool:
		return v.B
	default:
		return lex
	}
}
