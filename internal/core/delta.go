package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
)

// Incremental-transformation counters (obs.Default registry).
var (
	cDeltaBatches  = obs.Default.Counter("core.delta.batches")
	cDeltaFast     = obs.Default.Counter("core.delta.fast_applies")
	cDeltaRebuilds = obs.Default.Counter("core.delta.rebuilds")
	cDeltaRejected = obs.Default.Counter("core.delta.rejected")
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
	Op     string   `json:"op"`
	Key    string   `json:"key"`
	Labels []string `json:"labels,omitempty"`
	// Props is the node's record in the pg.EncodeProps codec (the post-change
	// record for create/update, the removed record for delete).
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

// Empty reports whether the batch had no property-graph effect.
func (d *PGDelta) Empty() bool {
	return len(d.Nodes) == 0 && len(d.Edges) == 0 && d.SchemaDDL == ""
}

// Encode serializes the delta as canonical JSON (one line, no trailing
// newline). The encoding is deterministic: fields are struct-ordered and the
// entry lists canonically sorted.
func (d *PGDelta) Encode() ([]byte, error) { return json.Marshal(d) }

// DecodePGDelta parses an Encode result.
func DecodePGDelta(b []byte) (*PGDelta, error) {
	d := &PGDelta{}
	if err := json.Unmarshal(b, d); err != nil {
		return nil, fmt.Errorf("core: decode pg delta: %w", err)
	}
	return d, nil
}

// Digest returns the SHA-256 of the canonical encoding — the replay
// determinism fingerprint recorded in APPLIED log records.
func (d *PGDelta) Digest() (string, error) {
	b, err := d.Encode()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
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

	// keys holds the change-stream key of every node of t's store, by node
	// id: extended for the nodes a fast batch creates, replaced with the
	// transformer on a rebuild, so no batch re-derives the keys of nodes it
	// did not touch.
	keys []string

	// hasAnnotations disables the monotone fast path: RDF-star annotation
	// passes are deferred to the end of a full run, so their effects do not
	// commute with appended triples (an annotation declares its key on every
	// edge type with the label at that point of the stream).
	hasAnnotations bool

	fastApplies, rebuilds int64
}

// NewDeltaState runs the initial full transformation of g under the shapes
// and returns the incremental state. The graph is owned by the state
// afterwards.
func NewDeltaState(g *rdf.Graph, sg *shacl.Schema, mode Mode) (*DeltaState, error) {
	t, err := newStrictTransformer(sg, mode)
	if err != nil {
		return nil, err
	}
	if err := t.Apply(g); err != nil {
		return nil, err
	}
	keys, err := nodeKeys(t, nil)
	if err != nil {
		return nil, err
	}
	s := &DeltaState{mode: mode, sg: sg, g: g, t: t, ddl: pgschema.WriteDDL(t.Schema()), keys: keys}
	s.hasAnnotations = graphHasAnnotations(g)
	return s, nil
}

func newStrictTransformer(sg *shacl.Schema, mode Mode) (*Transformer, error) {
	spg, err := TransformSchema(sg, mode)
	if err != nil {
		return nil, err
	}
	return NewTransformerForSchema(spg, mode)
}

func graphHasAnnotations(g *rdf.Graph) bool {
	found := false
	g.ForEach(func(tr rdf.Triple) bool {
		if tr.S.IsTripleTerm() {
			found = true
			return false
		}
		return true
	})
	return found
}

// Graph returns the live RDF graph (owned by the state; do not mutate).
func (s *DeltaState) Graph() *rdf.Graph { return s.g }

// Store returns the maintained property graph.
func (s *DeltaState) Store() *pg.Store { return s.t.Store() }

// SchemaDDL returns the current (possibly data-extended) PG-Schema DDL.
func (s *DeltaState) SchemaDDL() string { return s.ddl }

// Mode returns the transformation mode.
func (s *DeltaState) Mode() Mode { return s.mode }

// WriteCSV exports the maintained property graph in the bulk CSV format.
func (s *DeltaState) WriteCSV(nodeW, edgeW io.Writer) error {
	return s.t.Store().WriteCSV(nodeW, edgeW)
}

// FastApplies returns how many batches rode the monotone fast path.
func (s *DeltaState) FastApplies() int64 { return s.fastApplies }

// Rebuilds returns how many batches took the recompute path.
func (s *DeltaState) Rebuilds() int64 { return s.rebuilds }

// ApplyDelta applies one batch atomically — deletes first, then inserts, the
// SPARQL Update semantics — and returns the exact property-graph effect.
// Deleting an absent triple and inserting a present one are no-ops (RDF set
// semantics). On any rejection the state is rolled back exactly: the graph
// keeps its admission order, the property graph is untouched, and a later
// retry of a corrected batch behaves as if the rejected one never arrived.
//
// Batches of pure insertions with no rdf:type statements and no RDF-star
// annotations ride Prop. 4.3 (monotonicity): the transformer state is advanced
// by applying just the new triples, touching only their subjects. Any deletion
// — and any insertion that Algorithm 1's phase structure would hoist out of
// stream order (type statements feed phase 1, annotations the deferred pass) —
// invalidates the processed prefix, so by Prop. 4.1 (invertibility: the
// retained RDF graph determines the property graph exactly) the state is
// recomputed from the live graph and the effect emitted as a diff. Both paths
// produce output byte-identical to a from-scratch transform of the final
// graph.
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

	type removal struct {
		idx int32
		tr  rdf.Triple
	}
	var removed []removal
	for _, tr := range d.Deletes {
		if idx, ok := s.g.IndexOf(tr); ok {
			s.g.Remove(tr)
			removed = append(removed, removal{idx, tr})
		}
	}
	nPre := s.g.NumSlots()
	var added []rdf.Triple
	for _, tr := range d.Inserts {
		if s.g.Add(tr) {
			added = append(added, tr)
		}
	}
	if len(removed) == 0 && len(added) == 0 {
		return &PGDelta{}, nil
	}
	rollback := func() error {
		// The batch's Adds must be truncated before resurrecting tombstones:
		// Unremove refuses while the triple is re-admitted elsewhere.
		s.g.TruncateFrom(nPre)
		for _, r := range removed {
			if !s.g.Unremove(r.idx, r.tr) {
				return fmt.Errorf("core: delta rollback failed to restore %v at slot %d", r.tr, r.idx)
			}
		}
		return nil
	}

	fast := len(removed) == 0 && !s.hasAnnotations
	annotated := false
	for _, tr := range added {
		if tr.P == rdf.A {
			fast = false
		}
		if tr.S.IsTripleTerm() {
			fast = false
			annotated = true
		}
	}
	if fast {
		return s.applyFast(added, rollback)
	}
	return s.applyRebuild(annotated, rollback)
}

// applyFast advances the live transformer by the appended triples only.
// Eligibility (checked by the caller) guarantees stream equivalence with a
// full run — no phase-1 or annotation-pass statements cross the old/new
// boundary — and that strict-mode Apply cannot fail on the batch.
func (s *DeltaState) applyFast(added []rdf.Triple, rollback func() error) (*PGDelta, error) {
	store := s.t.Store()
	n0, e0 := store.NumNodes(), store.NumEdges()

	// The only pre-existing elements a monotone batch can change are its
	// subjects' nodes (key/value property appends); snapshot their records.
	type snap struct {
		id    pg.NodeID
		props string
	}
	var touched []snap
	seen := make(map[pg.NodeID]bool)
	for _, tr := range added {
		id, ok := s.t.nodeOf[tr.S]
		if !ok || seen[id] {
			continue
		}
		seen[id] = true
		props, err := pg.EncodeProps(store.Node(id).Props)
		if err != nil {
			return nil, fmt.Errorf("core: delta: snapshot node %d: %w", id, err)
		}
		touched = append(touched, snap{id, props})
	}

	dg := rdf.NewGraph()
	for _, tr := range added {
		dg.Add(tr)
	}
	if err := s.t.Apply(dg); err != nil {
		// Eligibility should have made this impossible; the store may be
		// partially advanced, so restore consistency by recomputing from the
		// rolled-back graph before reporting the rejection.
		cDeltaRejected.Inc()
		if rerr := rollback(); rerr != nil {
			return nil, fmt.Errorf("core: delta rejected: %v (and %v)", err, rerr)
		}
		nt, rerr := newStrictTransformer(s.sg, s.mode)
		if rerr == nil {
			rerr = nt.Apply(s.g)
		}
		var keys []string
		if rerr == nil {
			keys, rerr = nodeKeys(nt, nil)
		}
		if rerr != nil {
			return nil, fmt.Errorf("core: delta rejected: %v (state recovery also failed: %v)", err, rerr)
		}
		s.t, s.keys = nt, keys
		return nil, fmt.Errorf("core: delta rejected: %w", err)
	}
	s.fastApplies++
	cDeltaFast.Inc()

	// Key what the batch could have changed: the nodes it created and (in
	// the loop below) its subjects' nodes. Every other key, new edges'
	// endpoints included, is already in the table.
	keys, err := nodeKeys(s.t, s.keys)
	if err != nil {
		return nil, err
	}
	s.keys = keys
	delta := &PGDelta{}
	for _, sn := range touched {
		n := store.Node(sn.id)
		if keys[sn.id], err = nodeKey(s.t.mapping, n); err != nil {
			return nil, err
		}
		props, err := pg.EncodeProps(n.Props)
		if err != nil {
			return nil, fmt.Errorf("core: delta: node %d: %w", sn.id, err)
		}
		if props != sn.props {
			delta.Nodes = append(delta.Nodes, NodeChange{
				Op: OpUpdate, Key: keys[sn.id], Labels: append([]string(nil), n.Labels...), Props: props,
			})
		}
	}
	for id := n0; id < store.NumNodes(); id++ {
		n := store.Node(pg.NodeID(id))
		props, err := pg.EncodeProps(n.Props)
		if err != nil {
			return nil, fmt.Errorf("core: delta: node %d: %w", id, err)
		}
		delta.Nodes = append(delta.Nodes, NodeChange{
			Op: OpCreate, Key: keys[n.ID], Labels: append([]string(nil), n.Labels...), Props: props,
		})
	}
	created := make(map[edgeIdent]int)
	for id := e0; id < store.NumEdges(); id++ {
		e := store.Edge(pg.EdgeID(id))
		ident, err := identOf(e, keys)
		if err != nil {
			return nil, err
		}
		created[ident]++
	}
	for ident, n := range created {
		delta.Edges = append(delta.Edges, EdgeChange{
			Op: OpCreate, From: ident.from, Label: ident.label, To: ident.to, Props: ident.props, Count: n,
		})
	}
	s.finishDelta(delta)
	return delta, nil
}

// applyRebuild recomputes the transformation of the live graph from the base
// shapes and replaces the state, emitting the old→new difference. A strict-
// mode rejection (an orphaned annotation after its statement was deleted, a
// malformed annotation value, …) rolls the graph back and leaves the previous
// state untouched.
func (s *DeltaState) applyRebuild(annotated bool, rollback func() error) (*PGDelta, error) {
	nt, err := newStrictTransformer(s.sg, s.mode)
	if err == nil {
		err = nt.Apply(s.g)
	}
	if err != nil {
		cDeltaRejected.Inc()
		if rerr := rollback(); rerr != nil {
			return nil, fmt.Errorf("core: delta rejected: %v (and %v)", err, rerr)
		}
		return nil, fmt.Errorf("core: delta rejected: %w", err)
	}
	delta, keys, err := diffTransformers(s.t, s.keys, nt)
	if err != nil {
		return nil, err
	}
	s.t, s.keys = nt, keys
	s.rebuilds++
	cDeltaRebuilds.Inc()
	if annotated {
		s.hasAnnotations = true
	} else {
		// Deletions may have removed the last annotation; recompute so the
		// fast path can re-enable.
		s.hasAnnotations = graphHasAnnotations(s.g)
	}
	s.finishDelta(delta)
	return delta, nil
}

// finishDelta stamps the schema change and puts the entry lists in canonical
// order: deletes, then updates, then creates, each sorted by identity.
func (s *DeltaState) finishDelta(delta *PGDelta) {
	if ddl := pgschema.WriteDDL(s.t.Schema()); ddl != s.ddl {
		s.ddl = ddl
		delta.SchemaDDL = ddl
	}
	rank := map[string]int{OpDelete: 0, OpUpdate: 1, OpCreate: 2}
	sort.Slice(delta.Nodes, func(i, j int) bool {
		a, b := delta.Nodes[i], delta.Nodes[j]
		if rank[a.Op] != rank[b.Op] {
			return rank[a.Op] < rank[b.Op]
		}
		return a.Key < b.Key
	})
	sort.Slice(delta.Edges, func(i, j int) bool {
		a, b := delta.Edges[i], delta.Edges[j]
		if rank[a.Op] != rank[b.Op] {
			return rank[a.Op] < rank[b.Op]
		}
		if a.From != b.From {
			return a.From < b.From
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		if a.To != b.To {
			return a.To < b.To
		}
		return a.Props < b.Props
	})
}

// edgeIdent is the structural identity of an edge for multiset diffing.
type edgeIdent struct {
	from, label, to, props string
}

func identOf(e *pg.Edge, keys []string) (edgeIdent, error) {
	props, err := pg.EncodeProps(e.Props)
	if err != nil {
		return edgeIdent{}, fmt.Errorf("core: delta: edge %d: %w", e.ID, err)
	}
	return edgeIdent{from: keys[e.From], label: e.Label, to: keys[e.To], props: props}, nil
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

func nodeKey(m *Mapping, n *pg.Node) (string, error) {
	isValue := false
	if _, ok := n.Props["value"]; ok {
		for _, l := range n.Labels {
			if _, ok := m.DatatypeOfValueLabel(l); ok {
				isValue = true
				break
			}
		}
	}
	if isValue {
		if res, _ := n.Props["res"].(bool); res {
			v, _ := n.Props["value"].(string)
			return "v:r:" + strconv.Quote(v), nil
		}
		dt, _ := n.Props["dt"].(string)
		lang, _ := n.Props["lang"].(string)
		return "v:l:" + strconv.Quote(lexicalOf(n)) + ":" + strconv.Quote(dt) + ":" + strconv.Quote(lang), nil
	}
	iri, ok := n.Props["iri"].(string)
	if !ok {
		return "", fmt.Errorf("core: delta: node %d (labels %v) has neither an iri key nor a value", n.ID, n.Labels)
	}
	return "e:" + iri, nil
}

// nodeMap indexes a store's nodes by change-stream key.
func nodeMap(t *Transformer, keys []string) map[string]*pg.Node {
	store := t.Store()
	m := make(map[string]*pg.Node, len(keys))
	for id, k := range keys {
		m[k] = store.Node(pg.NodeID(id))
	}
	return m
}

// diffTransformers computes the exact old→new difference keyed by stable
// identities: node creates/updates/deletes by key, edge creates/deletes as
// multiset count changes per (source, label, target, record) quadruple.
//
// oldKeys is the old store's key table; the new store's is returned.
func diffTransformers(oldT *Transformer, oldKeys []string, newT *Transformer) (*PGDelta, []string, error) {
	newKeys, err := nodeKeys(newT, nil)
	if err != nil {
		return nil, nil, err
	}
	oldNodes, newNodes := nodeMap(oldT, oldKeys), nodeMap(newT, newKeys)
	delta := &PGDelta{}
	encode := func(n *pg.Node) (string, error) {
		props, err := pg.EncodeProps(n.Props)
		if err != nil {
			return "", fmt.Errorf("core: delta: node %d: %w", n.ID, err)
		}
		return props, nil
	}
	for key, on := range oldNodes {
		nn, ok := newNodes[key]
		if !ok {
			props, err := encode(on)
			if err != nil {
				return nil, nil, err
			}
			delta.Nodes = append(delta.Nodes, NodeChange{
				Op: OpDelete, Key: key, Labels: append([]string(nil), on.Labels...), Props: props,
			})
			continue
		}
		if sameProps(on.Props, nn.Props) && sameLabels(on.Labels, nn.Labels) {
			continue
		}
		oldProps, err := encode(on)
		if err != nil {
			return nil, nil, err
		}
		newProps, err := encode(nn)
		if err != nil {
			return nil, nil, err
		}
		if oldProps != newProps || !sameLabels(on.Labels, nn.Labels) {
			delta.Nodes = append(delta.Nodes, NodeChange{
				Op: OpUpdate, Key: key, Labels: append([]string(nil), nn.Labels...), Props: newProps,
			})
		}
	}
	for key, nn := range newNodes {
		if _, ok := oldNodes[key]; ok {
			continue
		}
		props, err := encode(nn)
		if err != nil {
			return nil, nil, err
		}
		delta.Nodes = append(delta.Nodes, NodeChange{
			Op: OpCreate, Key: key, Labels: append([]string(nil), nn.Labels...), Props: props,
		})
	}

	counts := make(map[edgeIdent]int)
	for ei := 0; ei < oldT.Store().NumEdges(); ei++ {
		e := oldT.Store().Edge(pg.EdgeID(ei))
		ident, err := identOf(e, oldKeys)
		if err != nil {
			return nil, nil, err
		}
		counts[ident]--
	}
	for ei := 0; ei < newT.Store().NumEdges(); ei++ {
		e := newT.Store().Edge(pg.EdgeID(ei))
		ident, err := identOf(e, newKeys)
		if err != nil {
			return nil, nil, err
		}
		counts[ident]++
	}
	for ident, n := range counts {
		switch {
		case n > 0:
			delta.Edges = append(delta.Edges, EdgeChange{
				Op: OpCreate, From: ident.from, Label: ident.label, To: ident.to, Props: ident.props, Count: n,
			})
		case n < 0:
			delta.Edges = append(delta.Edges, EdgeChange{
				Op: OpDelete, From: ident.from, Label: ident.label, To: ident.to, Props: ident.props, Count: -n,
			})
		}
	}
	return delta, newKeys, nil
}

// sameProps reports whether two records are identical key for key and value
// for value, with no numeric coercion. Identical records encode identically,
// so the diff encodes only the nodes for which this fails.
func sameProps(a, b map[string]pg.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		if vb, ok := b[k]; !ok || !sameValue(va, vb) {
			return false
		}
	}
	return true
}

func sameValue(a, b pg.Value) bool {
	la, ok := a.([]pg.Value)
	if !ok {
		_, bList := b.([]pg.Value)
		return !bList && a == b
	}
	lb, ok := b.([]pg.Value)
	if !ok || len(la) != len(lb) {
		return false
	}
	for i := range la {
		if !sameValue(la[i], lb[i]) {
			return false
		}
	}
	return true
}

func sameLabels(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
