package core

import (
	"bytes"
	"fmt"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
)

// PipelineState is the serializable state of a Transformer at a clean chunk
// boundary: everything needed to reconstruct an equivalent transformer and
// continue applying statements. By Prop. 4.3 (monotonicity) the captured
// property graph is a valid transformation of the input prefix consumed so
// far, so restoring it and applying the remaining suffix yields the same
// result as one uninterrupted run over chunks of the same boundaries.
//
// The store round-trips through the bulk CSV codec and the schema through
// its DDL — both formats are exact (tagged value encoding, IRI metadata
// clauses). The transformer's in-memory indexes (entity → node, value →
// node, statement → edge) are not serialized: they are recomputed from the
// store and the mapping — the first two on restore, the statement index when
// an annotation first needs it — which is possible precisely because the
// transformation is invertible (Prop. 4.1).
type PipelineState struct {
	// Mode is the transformation mode's String() form.
	Mode string
	// Lenient records whether the degradation policy was active.
	Lenient bool
	// SchemaDDL is the (possibly fallback-extended) PG-Schema.
	SchemaDDL string
	// NodesCSV and EdgesCSV hold the store in WriteCSV form.
	NodesCSV, EdgesCSV []byte
	// FallbackRoutes lists (source label, predicate IRI) pairs whose routes
	// were invented for uncovered data (the flag is lost in DDL).
	FallbackRoutes [][2]string
	// KVProps and Degraded are the transformer tallies at the boundary.
	KVProps, Degraded int64
	// Nodes and Edges are high-water marks used to verify consistency of
	// the embedded CSV state before resuming.
	Nodes, Edges int
}

// SnapshotState captures the transformer's state at a clean boundary (no
// Apply in flight). The snapshot is deep: later Apply calls do not mutate
// the returned state.
func (t *Transformer) SnapshotState() (*PipelineState, error) {
	var nodes, edges bytes.Buffer
	if err := t.store.WriteCSV(&nodes, &edges); err != nil {
		return nil, fmt.Errorf("core: snapshot store: %w", err)
	}
	return &PipelineState{
		Mode:           t.mode.String(),
		Lenient:        t.lenient,
		SchemaDDL:      pgschema.WriteDDL(t.mapping.Schema()),
		NodesCSV:       nodes.Bytes(),
		EdgesCSV:       edges.Bytes(),
		FallbackRoutes: t.mapping.FallbackRoutes(),
		KVProps:        t.kvProps,
		Degraded:       t.degradedCount,
		Nodes:          t.store.NumNodes(),
		Edges:          t.store.NumEdges(),
	}, nil
}

// ParseMode parses a Mode.String() value back. The "nonparsimonious"
// spelling is accepted as an alias, matching the CLI's -mode flag and the
// service API docs.
func ParseMode(s string) (Mode, error) {
	switch s {
	case Parsimonious.String():
		return Parsimonious, nil
	case NonParsimonious.String(), "nonparsimonious":
		return NonParsimonious, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", s)
	}
}

// RestoreTransformer reconstructs a transformer from a snapshot and
// verifies its consistency: the store is reloaded from the CSV state, the
// mapping is rebuilt from the DDL (fallback routes re-marked), the entity and
// value-node indexes are recomputed via the inverse-mapping correspondences
// (the statement index is lazy and rebuilds itself when an annotation needs
// it), and the node/edge high-water marks are cross-checked against the
// snapshot before the transformer is handed back.
func RestoreTransformer(st *PipelineState) (*Transformer, error) {
	mode, err := ParseMode(st.Mode)
	if err != nil {
		return nil, err
	}
	spg, err := pgschema.ParseDDL(st.SchemaDDL)
	if err != nil {
		return nil, fmt.Errorf("core: restore schema: %w", err)
	}
	t, err := NewTransformerForSchema(spg, mode)
	if err != nil {
		return nil, fmt.Errorf("core: restore mapping: %w", err)
	}
	t.SetLenient(st.Lenient)
	for _, fb := range st.FallbackRoutes {
		if !t.mapping.MarkFallback(fb[0], fb[1]) {
			return nil, fmt.Errorf("core: restore: fallback route (%s, %s) not present in schema", fb[0], fb[1])
		}
	}
	store, err := pg.LoadCSV(bytes.NewReader(st.NodesCSV), bytes.NewReader(st.EdgesCSV))
	if err != nil {
		return nil, fmt.Errorf("core: restore store: %w", err)
	}
	if store.NumNodes() != st.Nodes || store.NumEdges() != st.Edges {
		return nil, fmt.Errorf("core: restore: state inconsistent: store has %d nodes/%d edges, checkpoint recorded %d/%d",
			store.NumNodes(), store.NumEdges(), st.Nodes, st.Edges)
	}
	t.store = store
	t.kvProps = st.KVProps
	t.degradedCount = st.Degraded
	if err := t.rebuildIndexes(); err != nil {
		return nil, err
	}
	return t, nil
}

// rebuildIndexes recomputes nodeOf and valNode from the restored store,
// using the same node classification as the inverse mapping M. The statement
// index needs no rebuild: it is lazy (indexStatementEdges) and starts empty,
// so the first annotation pass after the resume indexes the restored edges.
func (t *Transformer) rebuildIndexes() error {
	for ni := 0; ni < t.store.NumNodes(); ni++ {
		n := t.store.Node(pg.NodeID(ni))
		if t.mapping.isValueNode(n) {
			if res, _ := n.Prop("res").(bool); res {
				v, ok := n.Prop("value").(string)
				if !ok {
					return fmt.Errorf("core: restore: resource value node %d has non-string value", n.ID)
				}
				t.valNode[valKey{lex: v, res: true}] = t.valCell(n.ID)
				continue
			}
			dt, _ := n.Prop("dt").(string)
			lang, _ := n.Prop("lang").(string)
			t.valNode[valKey{lex: lexicalOf(n), dt: dt, lang: lang}] = t.valCell(n.ID)
			continue
		}
		iri, ok := n.Prop("iri").(string)
		if !ok {
			return fmt.Errorf("core: restore: entity node %d (labels %v) has no iri key", n.ID, n.Labels())
		}
		t.nodeOf[termFromIRIString(iri)] = n.ID
	}
	return nil
}
