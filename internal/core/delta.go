package core

import (
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"github.com/s3pg/s3pg/internal/jsonstr"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
)

// Why a batch left the in-place path (the reason label of
// core.delta.rebuilds). Each names a way the from-scratch transformation of
// the post-batch graph can differ from the edited store beyond what the edit
// script models; DESIGN.md §8 has the table.
const (
	reasonAnnotation   = "annotation"
	reasonTypeDelete   = "type_delete"
	reasonRetyped      = "retyped_subject"
	reasonFirstTrigger = "schema_first_trigger"
	reasonPhase1Schema = "schema_phase1_extension"
	reasonUntyped      = "untyped_subject"
	reasonApplyError   = "apply_error"

	// reasonForced is the differential tests' twin; it has no counter.
	reasonForced = "forced"
)

// Incremental-transformation counters (obs.Default registry).
var (
	cDeltaBatches  = obs.Default.Counter("core.delta.batches")
	cDeltaFast     = obs.Default.Counter("core.delta.fast_applies")
	cDeltaRejected = obs.Default.Counter("core.delta.rejected")
	cDeltaRebuilds = func() map[string]*obs.Counter {
		m := make(map[string]*obs.Counter)
		for _, r := range []string{reasonAnnotation, reasonTypeDelete, reasonRetyped, reasonFirstTrigger,
			reasonPhase1Schema, reasonUntyped, reasonApplyError} {
			m[r] = obs.Default.Counter(obs.LabeledName("core.delta.rebuilds", "reason", r))
		}
		return m
	}()
)

// Change operations of a PGDelta entry.
const (
	OpCreate = "create"
	OpUpdate = "update"
	OpDelete = "delete"
)

// NodeChange is one node-level difference. Nodes are identified by a stable
// key derived from their RDF identity (entity IRI, or the value node's exact
// lexical/datatype/language), never by the dense export ID: dense IDs are an
// artifact of the CSV export order and shift when earlier elements are
// deleted, while the RDF-derived key names the same node across any sequence
// of updates.
type NodeChange struct {
	Op  string `json:"op"`
	Key string `json:"key"`
	// Labels is the store's own list for the node's label set, shared by every
	// node and change with the same labels: read-only.
	Labels []string `json:"labels,omitempty"`
	// Props is the node's record as pg.Node.EncodeProps gives it (the
	// post-change record for create/update, the removed record for delete).
	Props string `json:"props,omitempty"`
}

// EdgeChange is one edge-level difference. Edges have no intrinsic identity
// beyond (source, label, target, record), so changes carry that quadruple and
// a multiplicity: a multigraph may realize the same quadruple several times,
// and an annotation change surfaces as a delete of the old record plus a
// create of the new one.
type EdgeChange struct {
	Op    string `json:"op"`
	From  string `json:"from"`
	Label string `json:"label"`
	To    string `json:"to"`
	Props string `json:"props,omitempty"`
	Count int    `json:"count"`
}

// PGDelta is the exact property-graph effect of applying one rdf.Delta batch:
// every node and edge created, updated, or deleted, plus the full PG-Schema
// DDL when the batch extended it. Entries are canonically ordered (deletes,
// then updates, then creates, each sorted by key), so equal effects encode to
// equal bytes — the exactly-once machinery digests that encoding to verify
// replay determinism.
type PGDelta struct {
	// LSN is the write-ahead-log sequence number of the batch; zero until the
	// service stamps it.
	LSN   uint64       `json:"lsn,omitempty"`
	Nodes []NodeChange `json:"nodes,omitempty"`
	Edges []EdgeChange `json:"edges,omitempty"`
	// SchemaDDL is the full post-batch PG-Schema, present only when the batch
	// changed the schema.
	SchemaDDL string `json:"schema_ddl,omitempty"`
}

// Encode appends the delta's canonical JSON (one line, no trailing newline)
// to dst: byte for byte what json.Marshal makes of it — struct field order,
// omitempty, HTML-safe string escaping — written straight from the fields.
// The encoding is deterministic: the entry lists are canonically sorted.
func (d *PGDelta) Encode(dst []byte) []byte {
	dst = append(dst, '{')
	sep := false
	field := func(name string) {
		if sep {
			dst = append(dst, ',')
		}
		sep = true
		dst = append(append(append(dst, '"'), name...), `":`...)
	}
	if d.LSN != 0 {
		field("lsn")
		dst = strconv.AppendUint(dst, d.LSN, 10)
	}
	if len(d.Nodes) > 0 {
		field("nodes")
		for i := range d.Nodes {
			n := &d.Nodes[i]
			dst = append(dst, listSep(i)...)
			dst = jsonstr.Append(append(dst, `{"op":`...), n.Op)
			dst = jsonstr.Append(append(dst, `,"key":`...), n.Key)
			if len(n.Labels) > 0 {
				dst = append(dst, `,"labels":`...)
				for j, l := range n.Labels {
					dst = jsonstr.Append(append(dst, listSep(j)...), l)
				}
				dst = append(dst, ']')
			}
			if n.Props != "" {
				dst = jsonstr.Append(append(dst, `,"props":`...), n.Props)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(d.Edges) > 0 {
		field("edges")
		for i := range d.Edges {
			e := &d.Edges[i]
			dst = append(dst, listSep(i)...)
			dst = jsonstr.Append(append(dst, `{"op":`...), e.Op)
			dst = jsonstr.Append(append(dst, `,"from":`...), e.From)
			dst = jsonstr.Append(append(dst, `,"label":`...), e.Label)
			dst = jsonstr.Append(append(dst, `,"to":`...), e.To)
			if e.Props != "" {
				dst = jsonstr.Append(append(dst, `,"props":`...), e.Props)
			}
			dst = append(strconv.AppendInt(append(dst, `,"count":`...), int64(e.Count), 10), '}')
		}
		dst = append(dst, ']')
	}
	if d.SchemaDDL != "" {
		field("schema_ddl")
		dst = jsonstr.Append(dst, d.SchemaDDL)
	}
	return append(dst, '}')
}

// listSep opens a JSON array for its first element and separates the rest.
func listSep(i int) string {
	if i == 0 {
		return "["
	}
	return ","
}

// encodeBufs are the buffers Digest encodes into, reused across batches.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Digest returns the SHA-256 of the canonical encoding — the replay
// determinism fingerprint recorded in APPLIED log records. The encoding
// cannot fail, so neither can Digest; its error result is always nil.
func (d *PGDelta) Digest() (string, error) {
	buf := encodeBufs.Get().(*[]byte)
	*buf = d.Encode((*buf)[:0])
	sum := sha256.Sum256(*buf)
	encodeBufs.Put(buf)
	var digest [2 * sha256.Size]byte
	hex.Encode(digest[:], sum[:])
	return string(digest[:]), nil
}

// DeltaState is the live state of an incrementally maintained transformation:
// the RDF graph (whose admission order the output is deterministic over), the
// transformer holding the property graph and the F_st↔F_dt correspondence
// state, and the current schema DDL. ApplyDelta advances it one batch at a
// time; the maintained outputs are byte-identical to a from-scratch transform
// of the current graph at every step.
//
// DeltaState is strict-mode only: a batch that strict transformation rejects
// is refused atomically (graph and property graph unchanged) instead of being
// degraded — an update service must not silently erode previously accepted
// data. It is not safe for concurrent use; the service serializes batches
// through a single applier.
type DeltaState struct {
	mode Mode
	sg   *shacl.Schema
	g    *rdf.Graph
	t    *Transformer
	ddl  string
	rev  uint64 // the mapping revision ddl was rendered at

	// keys holds the change-stream key of every node of t's store, by node
	// id: extended for the nodes a batch creates, permuted with the store by
	// an in-place edit, replaced with the transformer on a rebuild, so no
	// batch re-derives the keys of nodes it did not touch.
	keys []string

	// typed is where phase 2 begins in t's store. A from-scratch store is the
	// typed entities, in the order of their first rdf:type triple, then the
	// untyped subjects and value nodes in the order of their first mention,
	// and its edges are in statement order; the in-place path edits the store
	// so that it stays that.
	typed int

	// quoted counts the live triples whose subject is a quoted triple. While
	// there are any, every batch is rebuilt: RDF-star annotation passes are
	// deferred to the end of a full run, so their effects do not commute with
	// edits (an annotation declares its key on every edge type with the label
	// at that point of the stream).
	quoted int

	// forceRebuild sends every batch down the rebuild path. It is set by the
	// differential tests only, on the twin the in-place path is compared with.
	forceRebuild bool

	fastApplies, rebuilds int64
	lastReason            string // why the last batch was rebuilt; "" when it was not
}

// NewDeltaState runs the initial full transformation of g under the shapes
// and returns the incremental state. The graph is owned by the state
// afterwards.
func NewDeltaState(g *rdf.Graph, sg *shacl.Schema, mode Mode) (*DeltaState, error) {
	s := &DeltaState{mode: mode, sg: sg, g: g}
	t, err := s.retransform()
	if err != nil {
		return nil, err
	}
	keys, err := nodeKeys(t, nil)
	if err != nil {
		return nil, err
	}
	s.t, s.keys, s.typed = t, keys, t.typedNodes
	s.stampSchema(&PGDelta{})
	dict := g.Dict()
	g.ForEachEncoded(func(_ int, sub, _, _ rdf.TermID) bool {
		if dict.Term(sub).IsTripleTerm() {
			s.quoted++
		}
		return true
	})
	return s, nil
}

// retransform runs the strict transformation of the live graph from the base
// shapes: the initial state, and what the rebuild path replaces the state by.
func (s *DeltaState) retransform() (*Transformer, error) {
	t, err := TransformWith(context.Background(), s.g, s.sg, s.mode, nil, TransformOptions{})
	if err != nil {
		return nil, err
	}
	return t, nil
}

// Graph returns the live RDF graph (owned by the state; do not mutate).
func (s *DeltaState) Graph() *rdf.Graph { return s.g }

// Store returns the maintained property graph.
func (s *DeltaState) Store() *pg.Store { return s.t.Store() }

// SchemaDDL returns the current (possibly data-extended) PG-Schema DDL.
func (s *DeltaState) SchemaDDL() string { return s.ddl }

// WriteCSV exports the maintained property graph in the bulk CSV format; a
// nil writer's file is not rendered.
func (s *DeltaState) WriteCSV(nodeW, edgeW io.Writer) error {
	return s.t.Store().WriteCSV(nodeW, edgeW)
}

// FastApplies returns how many batches were applied in place.
func (s *DeltaState) FastApplies() int64 { return s.fastApplies }

// Rebuilds returns how many batches took the recompute path.
func (s *DeltaState) Rebuilds() int64 { return s.rebuilds }

// LastPath reports how the last applied batch was served: "in_place", or
// "rebuild" with the reason it fell back.
func (s *DeltaState) LastPath() (path, reason string) {
	if s.lastReason == "" {
		return "in_place", ""
	}
	return "rebuild", s.lastReason
}

// removal is a triple a batch deleted and the slot it held.
type removal struct {
	slot int32
	tr   rdf.Triple
}

// ApplyDelta applies one batch atomically — deletes first, then inserts, the
// SPARQL Update semantics — and returns the exact property-graph effect.
// Deleting an absent triple and inserting a present one are no-ops (RDF set
// semantics). On any rejection the state is rolled back exactly: the graph
// keeps its admission order, the property graph is untouched, and a later
// retry of a corrected batch behaves as if the rejected one never arrived.
//
// A batch is applied in place when its effect on the from-scratch
// transformation of the graph is an edit script the store can take (plan):
// edges and key/value entries removed, value nodes and untyped subjects
// removed or moved, new typed entities spliced in before phase 2, everything
// else appended by applying just the new triples (Prop. 4.3). Any other batch
// — one that changes what earlier statements would have done: an rdf:type
// deleted or added to a known resource, the first use of a schema extension
// deleted, an RDF-star annotation anywhere — is answered by Prop. 4.1
// (invertibility: the retained RDF graph determines the property graph
// exactly): the state is recomputed from the live graph. Both paths produce
// output byte-identical to what a from-scratch transform of the final graph
// gives, and one emitter words the PGDelta of both: the net effect of what a
// batch took away from the store and what it appended. A batch that deletes
// an annotated statement but keeps the annotation is refused.
func (s *DeltaState) ApplyDelta(d *rdf.Delta) (*PGDelta, error) {
	cDeltaBatches.Inc()
	for _, tr := range d.Inserts {
		if tr.O.IsTripleTerm() {
			cDeltaRejected.Inc()
			return nil, fmt.Errorf("core: delta rejected: quoted triples in object position are not supported: %v", tr)
		}
		if tr.P == rdf.A {
			if tr.S.IsTripleTerm() {
				cDeltaRejected.Inc()
				return nil, fmt.Errorf("core: delta rejected: quoted triples cannot be typed: %v", tr)
			}
			if !tr.O.IsIRI() {
				cDeltaRejected.Inc()
				return nil, fmt.Errorf("core: delta rejected: rdf:type object %v is not an IRI", tr.O)
			}
		}
	}

	quoted0 := s.quoted
	var removed []removal
	for _, tr := range d.Deletes {
		if slot, ok := s.g.IndexOf(tr); ok {
			s.g.Remove(tr)
			removed = append(removed, removal{slot, tr})
			if tr.S.IsTripleTerm() {
				s.quoted--
			}
		}
	}
	nPre := s.g.NumSlots()
	var typings []rdf.Triple // the rdf:type statements the batch added
	for _, tr := range d.Inserts {
		if s.g.Add(tr) {
			if tr.P == rdf.A {
				typings = append(typings, tr)
			}
			if tr.S.IsTripleTerm() {
				s.quoted++
			}
		}
	}
	if len(removed) == 0 && s.g.NumSlots() == nPre {
		s.lastReason = ""
		return &PGDelta{}, nil
	}
	rollback := func() error {
		s.quoted = quoted0
		// The batch's Adds must be truncated before resurrecting tombstones:
		// Unremove refuses while the triple is re-admitted elsewhere.
		s.g.TruncateFrom(nPre)
		for _, r := range removed {
			if !s.g.Unremove(r.slot, r.tr) {
				return fmt.Errorf("core: delta rollback failed to restore %v at slot %d", r.tr, r.slot)
			}
		}
		return nil
	}

	if s.quoted > 0 {
		for _, r := range removed {
			if err := s.keepsAnnotation(r.tr); err != nil {
				return nil, rejected(err, rollback)
			}
		}
	}

	var es *editScript
	reason := reasonForced
	switch {
	case s.forceRebuild:
	case quoted0 > 0 || s.quoted > 0:
		reason = reasonAnnotation
	default:
		es, reason = s.plan(removed, typings)
	}
	if es == nil {
		return s.rebuild(reason, rollback)
	}
	return s.applyInPlace(es, nPre, rollback)
}

// keepsAnnotation refuses a deleted statement the live graph still
// annotates: the annotation would have no edge to be a property of.
func (s *DeltaState) keepsAnnotation(stmt rdf.Triple) error {
	q, err := rdf.NewTripleTerm(stmt)
	if err != nil || s.g.Has(stmt) {
		return nil
	}
	var kept error
	s.g.Match(&q, nil, nil, func(ann rdf.Triple) bool {
		kept = fmt.Errorf("core: the batch deletes the annotated statement %v but keeps its annotation %v", stmt, ann)
		return false
	})
	return kept
}

// rejected rolls the graph back and words the rejection.
func rejected(err error, rollback func() error) error {
	cDeltaRejected.Inc()
	if rollback != nil {
		if rerr := rollback(); rerr != nil {
			return fmt.Errorf("core: delta rejected: %v (and %v)", err, rerr)
		}
	}
	return fmt.Errorf("core: delta rejected: %w", err)
}

// rebuild recomputes the transformation of the live graph from the base
// shapes and replaces the state; its change records take the whole old store
// away and append the whole new one, so emit nets them to the difference. A
// strict-mode rejection (an annotation of a statement the graph lacks, a
// malformed annotation value, …) rolls the graph back and leaves the previous
// state untouched. It is the fallback of the in-place path and its recovery.
func (s *DeltaState) rebuild(reason string, rollback func() error) (*PGDelta, error) {
	nt, err := s.retransform()
	if err != nil {
		return nil, rejected(err, rollback)
	}
	// The old key table is short when the old store is an in-place edit that
	// was given up half way.
	oldKeys, err := nodeKeys(s.t, s.keys)
	if err != nil {
		return nil, err
	}
	old := s.t.store
	ne := &netEffect{old: old, oldKeys: oldKeys,
		gone: make([]pg.NodeID, old.NumNodes()), dropped: make([]pg.EdgeID, old.NumEdges())}
	for i := range ne.gone {
		ne.gone[i] = pg.NodeID(i)
	}
	for i := range ne.dropped {
		ne.dropped[i] = pg.EdgeID(i)
	}
	keys, err := nodeKeys(nt, nil)
	if err != nil {
		return nil, err
	}
	delta, err := ne.emit(nt.store, keys, 0, 0)
	if err != nil {
		return nil, err
	}
	s.t, s.keys, s.typed = nt, keys, nt.typedNodes
	s.rebuilds++
	s.lastReason = reason
	cDeltaRebuilds[reason].Inc()
	s.stampSchema(delta)
	delta.canonicalize()
	return delta, nil
}

// kvRemoval is a key/value-routed statement to take back out of its node.
type kvRemoval struct {
	node  pg.NodeID
	key   string
	value pg.Value
}

// editScript is what a batch does to the store before its new triples are
// appended: the difference between the store and the from-scratch
// transformation of the graph without the deleted triples, as node and edge
// positions (pg.Resequence's input) plus the transformer's own bookkeeping.
type editScript struct {
	dropEdges []pg.EdgeID
	dropNodes []pg.NodeID
	moves     []pg.NodeMove
	kv        []kvRemoval
	entities  []rdf.Term // nodeOf keys of the dropped untyped subjects
	values    []valKey   // valNode keys of the dropped value nodes
	newTyped  int        // entities the batch's rdf:type inserts create
}

// plan decides, without writing anything, whether the batch can be applied in
// place, and lays out the edit script if so; otherwise it names the reason.
// removed and typings are the triples the batch removed from the graph and
// the rdf:type ones it added; the graph already holds the result.
func (s *DeltaState) plan(removed []removal, typings []rdf.Triple) (*editScript, string) {
	t := s.t
	store, m := t.store, t.mapping
	es := &editScript{}

	// An rdf:type insert is phase-1 work: it may only create an entity, after
	// every typed entity there is, with a label the schema already has.
	// Typing a resource the graph knows would change how its statements were
	// routed (its labels select the routes) and whether mentions of it are
	// edges to an entity or to a value node.
	var newTyped map[rdf.Term]struct{}
	for _, tr := range typings {
		if m.LabelOfClass(tr.O.Value) == "" {
			return nil, reasonPhase1Schema
		}
		if _, seen := newTyped[tr.S]; seen {
			continue
		}
		if t.entityOf(tr.S) != noNode {
			return nil, reasonRetyped
		}
		if t.valueNode(valueKey(tr.S)) != nil {
			return nil, reasonRetyped
		}
		if newTyped == nil {
			newTyped = make(map[rdf.Term]struct{})
		}
		newTyped[tr.S] = struct{}{}
	}
	es.newTyped = len(newTyped)

	// Find what realizes each deleted statement.
	dropped := make(map[pg.EdgeID]struct{}, len(removed))
	type lost struct {
		id    pg.NodeID
		value valKey   // of a value node that lost a mention
		term  rdf.Term // of an untyped subject that lost a statement
	}
	var values, subjects []lost
	seen := make(map[pg.NodeID]struct{})
	for _, r := range removed {
		if r.tr.P == rdf.A {
			return nil, reasonTypeDelete
		}
		if _, first := t.triggers[int(r.slot)]; first {
			return nil, reasonFirstTrigger
		}
		sid := t.entityOf(r.tr.S)
		if sid == noNode {
			return nil, reasonApplyError
		}
		sn := store.Node(sid)
		hit, hits, value, vk := t.edgeOf(sid, r.tr)
		switch {
		case hits == 1:
			es.dropEdges = append(es.dropEdges, hit.ID)
			dropped[hit.ID] = struct{}{}
			if _, again := seen[hit.To]; !again && hit.To == value {
				seen[hit.To] = struct{}{}
				values = append(values, lost{id: value, value: vk})
			}
			if _, again := seen[sid]; !again && len(sn.Labels()) == 0 {
				seen[sid] = struct{}{}
				subjects = append(subjects, lost{id: sid, term: r.tr.S})
			}
		case hits == 0:
			kv, ok := s.kvEntry(sn, r.tr)
			if !ok {
				return nil, reasonApplyError
			}
			es.kv = append(es.kv, kv)
		default:
			// Two edges one statement could be (terms sharing a value key):
			// which of them goes decides the order of those that stay.
			return nil, reasonApplyError
		}
	}

	// A phase-2 node is created by its first mention: a value node by the
	// first edge that reaches it, an untyped subject by its first statement.
	// Without any it is gone; without the first it is created later.
	surviving := func(list []pg.EdgeID) int {
		i := 0
		for i < len(list) {
			if _, gone := dropped[list[i]]; !gone {
				break
			}
			i++
		}
		return i
	}
	type pending struct {
		id  pg.NodeID
		key uint64
	}
	var moving []pending
	for _, v := range values {
		in := store.In(v.id)
		switch i := surviving(in); {
		case i == len(in):
			es.dropNodes = append(es.dropNodes, v.id)
			es.values = append(es.values, v.value)
		case i > 0:
			moving = append(moving, pending{v.id, creationKey(in[i], false)})
		}
	}
	for _, u := range subjects {
		out, in := store.Out(u.id), store.In(u.id)
		i, j := surviving(out), surviving(in)
		switch {
		case i == 0:
		// A statement that has u as its object is an edge to the entity
		// from u's first statement on and an edge to a value node before:
		// the edit script moves no edge from the one to the other.
		case i == len(out) && j == len(in):
			es.dropNodes = append(es.dropNodes, u.id)
			es.entities = append(es.entities, u.term)
		case i < len(out) && (j == len(in) || in[j] > out[i]):
			moving = append(moving, pending{u.id, creationKey(out[i], true)})
		default:
			return nil, reasonUntyped
		}
	}

	n0 := store.NumNodes()
	if es.newTyped > 0 && s.typed < n0 {
		for i := 0; i < es.newTyped; i++ {
			es.moves = append(es.moves, pg.NodeMove{ID: pg.NodeID(n0 + i), Before: pg.NodeID(s.typed)})
		}
	}
	// Phase-2 nodes are in the order of their creation keys; a moved node
	// goes before the first one created after it.
	sort.Slice(moving, func(i, j int) bool { return moving[i].key < moving[j].key })
	sound := true
	for _, mv := range moving {
		at := sort.Search(n0-s.typed, func(i int) bool {
			id := pg.NodeID(s.typed + i)
			list, subject := store.In(id), false
			if len(store.Node(id).Labels()) == 0 {
				list, subject = store.Out(id), true
			}
			if len(list) == 0 {
				sound = false
				return true
			}
			return creationKey(list[0], subject) > mv.key
		})
		es.moves = append(es.moves, pg.NodeMove{ID: mv.id, Before: pg.NodeID(s.typed + at), Relist: true})
	}
	if !sound {
		return nil, reasonApplyError
	}
	return es, ""
}

// creationKey orders the phase-2 nodes: by the edge of the statement that
// created them, the subject before the object within one statement.
func creationKey(first pg.EdgeID, subject bool) uint64 {
	if subject {
		return uint64(first) << 1
	}
	return uint64(first)<<1 | 1
}

// kvEntry finds the key/value entry realizing a statement of node sn that no
// edge realizes.
func (s *DeltaState) kvEntry(sn pg.Node, tr rdf.Triple) (kvRemoval, bool) {
	if !tr.O.IsLiteral() || tr.O.Lang != "" {
		return kvRemoval{}, false
	}
	dt := tr.O.DatatypeIRI()
	native, canonical := nativeValue(tr.O.Value, dt)
	if !canonical {
		return kvRemoval{}, false
	}
	for _, l := range sn.Labels() {
		r := s.t.mapping.routes[routeKey{l, tr.P.Value}]
		if r != nil && r.Kind == RouteKV && r.Datatype == dt && s.t.store.HasPropValue(sn.ID, r.Name, native) {
			return kvRemoval{sn.ID, r.Name, native}, true
		}
	}
	return kvRemoval{}, false
}

// netEffect is the removed side of a batch's change records and the records
// it may change, taken before it writes. The removed nodes and edges are read
// from old, the store as the batch found it, with its key table: the in-place
// path leaves what it drops there, untouched, until the records are out, and
// a rebuild takes away the whole of the store it replaces.
type netEffect struct {
	old     *pg.Store
	oldKeys []string
	gone    []pg.NodeID           // the nodes taken away
	dropped []pg.EdgeID           // the edges taken away
	touched map[pg.NodeID]pg.Node // the records the batch wrote, as they were (Transformer.freeze)
}

// applyInPlace edits the store by the script and advances the transformer by
// the appended triples only. plan guarantees that the result equals the
// from-scratch transformation and that strict-mode Apply cannot fail on the
// batch; nothing is written before the script's first removal, and an error
// past it (which planning should have made impossible) leaves a partly edited
// store: the graph is rolled back, the state recomputed from it, and the
// batch rejected.
func (s *DeltaState) applyInPlace(es *editScript, nPre int, rollback func() error) (*PGDelta, error) {
	t := s.t
	n0, e0 := len(s.keys), t.store.NumEdges()
	t.frozenBelow = pg.NodeID(n0)
	defer func() { t.frozen, t.frozenBelow = nil, 0 }()
	for _, k := range es.entities {
		if id, ok := t.dict.Lookup(k); ok {
			t.ids[id].entity = noNode
		}
	}
	for _, k := range es.values {
		if delete(t.valNode[k.tag], k.lex); len(t.valNode[k.tag]) == 0 {
			delete(t.valNode, k.tag)
		}
	}
	if len(es.values) > 0 {
		// The value column names nodes the script drops.
		for i := range t.ids {
			t.ids[i].value = noNode
		}
	}
	for _, r := range es.kv {
		t.freeze(r.node)
		t.store.RemovePropValue(r.node, r.key, r.value)
	}
	var delta *PGDelta
	err := s.appendTriples(nPre, es.newTyped)
	if err == nil {
		ne := &netEffect{old: t.store, oldKeys: s.keys, gone: es.dropNodes, dropped: es.dropEdges, touched: t.frozen}
		delta, err = ne.emit(t.store, s.keys, n0, e0)
	}
	if err != nil {
		err = rejected(err, rollback)
		if _, rerr := s.rebuild(reasonApplyError, nil); rerr != nil {
			return nil, fmt.Errorf("%v (state recovery also failed: %v)", err, rerr)
		}
		return nil, err
	}

	if len(es.dropNodes)+len(es.moves)+len(es.dropEdges) > 0 {
		nodeMap := t.store.Resequence(es.dropNodes, es.moves, es.dropEdges)
		keys := make([]string, t.store.NumNodes())
		for old, id := range nodeMap {
			if id != noNode {
				keys[id] = s.keys[old]
			}
		}
		s.keys = keys
		for i, tn := range t.ids {
			if tn.entity != noNode {
				t.ids[i].entity = nodeMap[tn.entity]
			}
			if tn.value != noNode {
				t.ids[i].value = nodeMap[tn.value]
			}
		}
		for _, byLex := range t.valNode {
			for _, cell := range byLex {
				*cell = nodeMap[*cell]
			}
		}
	}
	s.typed += es.newTyped
	s.fastApplies++
	s.lastReason = ""
	cDeltaFast.Inc()
	if t.mapping.rev != s.rev {
		s.stampSchema(delta)
	}
	delta.canonicalize()
	return delta, nil
}

// appendTriples applies the batch's new triples, the graph's slots from nPre
// on, to the edited store and extends the key table over the nodes they
// create. Ids are still the pre-batch ones, with what was appended after
// them.
func (s *DeltaState) appendTriples(nPre, newTyped int) error {
	t := s.t
	if s.g.NumSlots() > nPre {
		if err := t.apply(context.Background(), s.g, nPre, nil, nil); err != nil {
			return err
		}
		if t.typedNodes != newTyped {
			return fmt.Errorf("core: delta: phase 1 created %d entities, the plan has %d", t.typedNodes, newTyped)
		}
	}
	keys, err := nodeKeys(t, s.keys)
	if err != nil {
		return err
	}
	s.keys = keys
	return nil
}

// emit returns the net effect of a batch that left store, with the key table
// keys: the touched records that changed, and the removed side against the
// appended one — every node from n0 and every edge from e0 on. A node or an
// edge that goes and comes back the same is no change.
func (ne *netEffect) emit(store *pg.Store, keys []string, n0, e0 int) (*PGDelta, error) {
	delta := &PGDelta{}
	var err error // the first record that could not be encoded
	encode := func(what string, id uint32, r interface{ EncodeProps() (string, error) }) string {
		props, e := r.EncodeProps()
		if e != nil && err == nil {
			err = fmt.Errorf("core: delta: %s %d: %w", what, id, e)
		}
		return props
	}
	nodeProps := func(n pg.Node) string { return encode("node", uint32(n.ID), n) }
	for _, was := range ne.touched {
		if n := store.Node(was.ID); !sameProps(was, n) {
			if props := nodeProps(n); props != nodeProps(was) {
				delta.Nodes = append(delta.Nodes, NodeChange{Op: OpUpdate, Key: keys[n.ID], Labels: n.Labels(), Props: props})
			}
		}
	}

	// post gives a removed node its id in store: that of the appended node
	// with its key, or else one of its own, which keyOf resolves — its old id
	// when store is the one it was in, an id past store's nodes when not.
	byKey := make(map[string]int, len(ne.gone))
	for i, id := range ne.gone {
		byKey[ne.oldKeys[id]] = i
	}
	post := make(map[pg.NodeID]pg.NodeID, len(ne.gone))
	for id := n0; id < store.NumNodes(); id++ {
		n, op := store.Node(pg.NodeID(id)), OpCreate
		if i, back := byKey[keys[id]]; back {
			was := ne.old.Node(ne.gone[i])
			post[was.ID], op = n.ID, OpUpdate
			if slices.Equal(was.Labels(), n.Labels()) && (sameProps(was, n) || nodeProps(was) == nodeProps(n)) {
				continue
			}
		}
		delta.Nodes = append(delta.Nodes, NodeChange{Op: op, Key: keys[id], Labels: n.Labels(), Props: nodeProps(n)})
	}
	for i, id := range ne.gone {
		if _, back := post[id]; back {
			continue
		}
		if ne.old != store {
			post[id] = pg.NodeID(len(keys) + i)
		}
		was := ne.old.Node(id)
		delta.Nodes = append(delta.Nodes, NodeChange{Op: OpDelete, Key: ne.oldKeys[id], Labels: was.Labels(), Props: nodeProps(was)})
	}
	keyOf := func(id pg.NodeID) string {
		if int(id) < len(keys) {
			return keys[id]
		}
		return ne.oldKeys[ne.gone[int(id)-len(keys)]]
	}

	// An edge is counted by its label, its record and its ends as ids in
	// store: a removed edge's ends renamed by post.
	type edgeIdent struct {
		from, to     pg.NodeID
		label, props string
	}
	counts := make(map[edgeIdent]int, max(len(ne.dropped), store.NumEdges()-e0))
	count := func(e pg.Edge, rename map[pg.NodeID]pg.NodeID, by int) {
		ident := edgeIdent{e.From, e.To, e.Label(), encode("edge", uint32(e.ID), e)}
		if id, ok := rename[e.From]; ok {
			ident.from = id
		}
		if id, ok := rename[e.To]; ok {
			ident.to = id
		}
		counts[ident] += by
	}
	for _, id := range ne.dropped {
		count(ne.old.Edge(id), post, -1)
	}
	for id := e0; id < store.NumEdges(); id++ {
		count(store.Edge(pg.EdgeID(id)), nil, 1)
	}
	changed := 0
	for _, n := range counts {
		if n != 0 {
			changed++
		}
	}
	delta.Edges = make([]EdgeChange, 0, changed)
	for ident, n := range counts {
		ec := EdgeChange{Op: OpCreate, From: keyOf(ident.from), Label: ident.label, To: keyOf(ident.to), Props: ident.props, Count: n}
		switch {
		case n < 0:
			ec.Op, ec.Count = OpDelete, -n
		case n == 0:
			continue
		}
		delta.Edges = append(delta.Edges, ec)
	}
	return delta, err
}

// stampSchema renders the schema and records it in the delta when the batch
// changed it.
func (s *DeltaState) stampSchema(delta *PGDelta) {
	s.rev = s.t.mapping.rev
	if ddl := pgschema.WriteDDL(s.t.Schema()); ddl != s.ddl {
		s.ddl = ddl
		delta.SchemaDDL = ddl
	}
}

// canonicalize puts the entry lists in canonical order: deletes, then
// updates, then creates, each sorted by identity.
func (delta *PGDelta) canonicalize() {
	delta.Nodes = sortedBy(delta.Nodes, func(a, b *NodeChange) int {
		return cmp.Or(opRank(a.Op)-opRank(b.Op), strings.Compare(a.Key, b.Key))
	})
	delta.Edges = sortedBy(delta.Edges, func(a, b *EdgeChange) int {
		return cmp.Or(opRank(a.Op)-opRank(b.Op), strings.Compare(a.From, b.From),
			strings.Compare(a.Label, b.Label), strings.Compare(a.To, b.To), strings.Compare(a.Props, b.Props))
	})
}

// sortedBy returns list sorted by cmp, moving each entry once: a sort in
// place moves an entry's strings, pointers the collector sees, at every swap.
func sortedBy[T any](list []T, cmp func(a, b *T) int) []T {
	if len(list) < 2 {
		return list
	}
	perm := make([]int32, len(list))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int { return cmp(&list[i], &list[j]) })
	sorted := make([]T, len(list))
	for i, j := range perm {
		sorted[i] = list[j]
	}
	return sorted
}

// opRank is an operation's place in the canonical order.
func opRank(op string) int {
	switch op {
	case OpDelete:
		return 0
	case OpUpdate:
		return 1
	}
	return 2
}

// nodeKeys extends keys — the stable change-stream keys of the first
// len(keys) nodes of the transformer's store — to every node: "e:<iri>" for
// entity nodes and a quoted lexical tuple for value nodes, mirroring the node
// classification of the inverse mapping.
func nodeKeys(t *Transformer, keys []string) ([]string, error) {
	store := t.Store()
	for id := len(keys); id < store.NumNodes(); id++ {
		k, err := nodeKey(t.mapping, store.Node(pg.NodeID(id)))
		if err != nil {
			return nil, err
		}
		keys = append(keys, k)
	}
	return keys, nil
}

func nodeKey(m *Mapping, n pg.Node) (string, error) {
	if m.isValueNode(n) {
		var scratch [128]byte
		if res, _ := n.Prop("res").(bool); res {
			v, _ := n.Prop("value").(string)
			return string(appendQuoted(append(scratch[:0], "v:r:"...), v)), nil
		}
		dt, _ := n.Prop("dt").(string)
		lang, _ := n.Prop("lang").(string)
		b := appendQuoted(append(scratch[:0], "v:l:"...), lexicalOf(n))
		b = appendQuoted(append(b, ':'), dt)
		return string(appendQuoted(append(b, ':'), lang)), nil
	}
	iri, ok := n.Prop("iri").(string)
	if !ok {
		return "", fmt.Errorf("core: delta: node %d (labels %v) has neither an iri key nor a value", n.ID, n.Labels())
	}
	return "e:" + iri, nil
}

// appendQuoted appends s as strconv.AppendQuote does: between quotes as it is
// when it is printable ASCII with no quote or backslash, as most keys are.
func appendQuoted(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' {
			return strconv.AppendQuote(b, s)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// sameProps reports whether two records are identical key for key and value
// for value, with no numeric coercion and floats compared by their bits.
// Identical records encode identically, so emit encodes only the records for
// which this fails.
func sameProps(a, b pg.Node) bool {
	if a.NumProps() != b.NumProps() {
		return false
	}
	for i := 0; i < a.NumProps(); i++ {
		ka, va := a.PropAt(i)
		kb, vb := b.PropAt(i)
		if ka != kb || !pg.SameValue(va, vb) {
			return false
		}
	}
	return true
}
