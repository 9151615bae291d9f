package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// The differential oracle of the in-place path: two DeltaStates over the same
// batches, one free to edit its store in place, one forced down the rebuild
// path. After every batch they must agree on the three exports, on every
// index of the store and on the transformer's own tables, and both PGDeltas
// must be the bytes diffTransformers makes of the stores before and after
// the batch; every few batches both are held against a from-scratch
// core.Transform of the live graph.

type twins struct {
	free, forced *DeltaState
	sg           *shacl.Schema
	mode         Mode
}

func newTwins(t testing.TB, g *rdf.Graph, sg *shacl.Schema, mode Mode) *twins {
	t.Helper()
	free, err := NewDeltaState(g.Clone(), sg, mode)
	if err != nil {
		t.Fatal(err)
	}
	forced, err := NewDeltaState(g.Clone(), sg, mode)
	if err != nil {
		t.Fatal(err)
	}
	forced.forceRebuild = true
	return &twins{free: free, forced: forced, sg: sg, mode: mode}
}

func exports(t testing.TB, s *DeltaState) (nodes, edges []byte, ddl string) {
	t.Helper()
	var nb, eb bytes.Buffer
	if err := s.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	return nb.Bytes(), eb.Bytes(), s.SchemaDDL()
}

// apply gives the batch to both twins and requires the same outcome. It
// returns the free twin's delta, nil when both rejected the batch.
func (tw *twins) apply(t testing.TB, d *rdf.Delta, step string) *PGDelta {
	t.Helper()
	pre := tw.forced.t // a rebuild replaces the transformer and leaves this one as it was
	got, gerr := tw.free.ApplyDelta(d)
	rebuilt, werr := tw.forced.ApplyDelta(d)
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s: in place: %v; rebuilt: %v", step, gerr, werr)
	}
	if gerr == nil {
		want, err := diffTransformers(pre, tw.forced.t)
		if err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		wb := want.Encode(nil)
		for _, side := range []struct {
			name  string
			delta *PGDelta
		}{{"in place", got}, {"rebuilt", rebuilt}} {
			if gb := side.delta.Encode(nil); !bytes.Equal(gb, wb) {
				t.Fatalf("%s: PGDelta differs from the stores' difference\n%s: %s\n    diff: %s", step, side.name, gb, wb)
			}
		}
	}
	tw.compare(t, step)
	return got
}

// diffTransformers is the change-record oracle: the exact old→new
// difference of two transformers' stores, computed from the two stores alone
// — node creates, updates and deletes by key, edge creates and deletes as
// multiset count changes per (source, label, target, record) quadruple — and
// none of the net-effect bookkeeping the apply paths share. The schema DDL is
// recorded when it differs.
func diffTransformers(oldT, newT *Transformer) (*PGDelta, error) {
	oldKeys, err := nodeKeys(oldT, nil)
	if err != nil {
		return nil, err
	}
	newKeys, err := nodeKeys(newT, nil)
	if err != nil {
		return nil, err
	}
	oldNodes, err := nodeMap(oldT, oldKeys)
	if err != nil {
		return nil, err
	}
	newNodes, err := nodeMap(newT, newKeys)
	if err != nil {
		return nil, err
	}
	delta := &PGDelta{}
	for key, on := range oldNodes {
		oldProps, err := on.EncodeProps()
		if err != nil {
			return nil, err
		}
		nn, ok := newNodes[key]
		if !ok {
			delta.Nodes = append(delta.Nodes, NodeChange{Op: OpDelete, Key: key, Labels: on.Labels(), Props: oldProps})
			continue
		}
		newProps, err := nn.EncodeProps()
		if err != nil {
			return nil, err
		}
		if oldProps != newProps || !reflect.DeepEqual(on.Labels(), nn.Labels()) {
			delta.Nodes = append(delta.Nodes, NodeChange{Op: OpUpdate, Key: key, Labels: nn.Labels(), Props: newProps})
		}
	}
	for key, nn := range newNodes {
		if _, ok := oldNodes[key]; ok {
			continue
		}
		props, err := nn.EncodeProps()
		if err != nil {
			return nil, err
		}
		delta.Nodes = append(delta.Nodes, NodeChange{Op: OpCreate, Key: key, Labels: nn.Labels(), Props: props})
	}

	type quadruple struct{ from, label, to, props string }
	counts := make(map[quadruple]int)
	for _, side := range []struct {
		store *pg.Store
		keys  []string
		sign  int
	}{{oldT.Store(), oldKeys, -1}, {newT.Store(), newKeys, 1}} {
		for ei := 0; ei < side.store.NumEdges(); ei++ {
			e := side.store.Edge(pg.EdgeID(ei))
			props, err := e.EncodeProps()
			if err != nil {
				return nil, err
			}
			counts[quadruple{side.keys[e.From], e.Label(), side.keys[e.To], props}] += side.sign
		}
	}
	for q, n := range counts {
		switch {
		case n > 0:
			delta.Edges = append(delta.Edges, EdgeChange{Op: OpCreate, From: q.from, Label: q.label, To: q.to, Props: q.props, Count: n})
		case n < 0:
			delta.Edges = append(delta.Edges, EdgeChange{Op: OpDelete, From: q.from, Label: q.label, To: q.to, Props: q.props, Count: -n})
		}
	}
	if ddl := pgschema.WriteDDL(newT.Schema()); ddl != pgschema.WriteDDL(oldT.Schema()) {
		delta.SchemaDDL = ddl
	}
	delta.canonicalize()
	return delta, nil
}

// nodeMap indexes a store's nodes by change-stream key.
func nodeMap(t *Transformer, keys []string) (map[string]pg.Node, error) {
	m := make(map[string]pg.Node, len(keys))
	for id, k := range keys {
		if _, twice := m[k]; twice {
			return nil, fmt.Errorf("two nodes of one store have the key %s", k)
		}
		m[k] = t.Store().Node(pg.NodeID(id))
	}
	return m, nil
}

func (tw *twins) compare(t testing.TB, step string) {
	t.Helper()
	gn, ge, gd := exports(t, tw.free)
	wn, we, wd := exports(t, tw.forced)
	if !bytes.Equal(gn, wn) {
		t.Fatalf("%s: nodes.csv differs\nin place:\n%s\nrebuilt:\n%s", step, gn, wn)
	}
	if !bytes.Equal(ge, we) {
		t.Fatalf("%s: edges.csv differs\nin place:\n%s\nrebuilt:\n%s", step, ge, we)
	}
	if gd != wd {
		t.Fatalf("%s: schema DDL differs\nin place:\n%s\nrebuilt:\n%s", step, gd, wd)
	}
	if !tw.free.g.Equal(tw.forced.g) {
		t.Fatalf("%s: the RDF graphs differ", step)
	}
	a, b := tw.free.t.store, tw.forced.t.store
	if !reflect.DeepEqual(a.Labels(), b.Labels()) || !reflect.DeepEqual(a.EdgeLabels(), b.EdgeLabels()) {
		t.Fatalf("%s: label sets differ: %v %v / %v %v", step, a.Labels(), a.EdgeLabels(), b.Labels(), b.EdgeLabels())
	}
	for _, l := range a.Labels() {
		if !reflect.DeepEqual(a.NodesByLabel(l), b.NodesByLabel(l)) {
			t.Fatalf("%s: NodesByLabel(%s) = %v, rebuilt %v", step, l, a.NodesByLabel(l), b.NodesByLabel(l))
		}
	}
	for i := 0; i < a.NumNodes(); i++ {
		id := pg.NodeID(i)
		if fmt.Sprint(a.Out(id)) != fmt.Sprint(b.Out(id)) || fmt.Sprint(a.In(id)) != fmt.Sprint(b.In(id)) {
			t.Fatalf("%s: adjacency of node %d = %v / %v, rebuilt %v / %v", step, i, a.Out(id), a.In(id), b.Out(id), b.In(id))
		}
		if n := a.Node(id); n.ID != id {
			t.Fatalf("%s: node at %d says it is %d", step, i, n.ID)
		}
		if iri, ok := a.Node(id).Prop("iri").(string); ok {
			x, xOK := a.NodeByIRI(iri)
			if y, yOK := b.NodeByIRI(iri); !xOK || !yOK || x.ID != y.ID {
				t.Fatalf("%s: NodeByIRI(%s) = %v, rebuilt %v", step, iri, x, y)
			}
		}
	}
	for i := 0; i < a.NumEdges(); i++ {
		if e := a.Edge(pg.EdgeID(i)); e.ID != pg.EdgeID(i) {
			t.Fatalf("%s: edge at %d says it is %d", step, i, e.ID)
		}
	}
	if a.IRIUnique() != b.IRIUnique() {
		t.Fatalf("%s: IRIUnique %v, rebuilt %v", step, a.IRIUnique(), b.IRIUnique())
	}
	ft, rt := tw.free.t, tw.forced.t
	if !reflect.DeepEqual(tw.free.keys, tw.forced.keys) {
		t.Fatalf("%s: key tables differ", step)
	}
	if !reflect.DeepEqual(entityMap(ft), entityMap(rt)) || !reflect.DeepEqual(ft.valNode, rt.valNode) {
		t.Fatalf("%s: the transformers' node tables differ", step)
	}
	for id, tn := range ft.ids {
		if tn.value == noNode {
			continue
		}
		o := ft.dict.Term(rdf.TermID(id))
		if cell := ft.valueNode(valueKey(o)); cell == nil || *cell != tn.value {
			t.Fatalf("%s: %v caches value node %d, the value map has %v", step, o, tn.value, cell)
		}
	}
	if !reflect.DeepEqual(ft.triggers, rt.triggers) {
		t.Fatalf("%s: first-trigger slots %v, rebuilt %v", step, ft.triggers, rt.triggers)
	}
	if tw.free.typed != tw.forced.typed || tw.free.quoted != tw.forced.quoted {
		t.Fatalf("%s: typed %d quoted %d, rebuilt %d %d", step, tw.free.typed, tw.free.quoted, tw.forced.typed, tw.forced.quoted)
	}
}

// ForgetRoutes drops the router's caches, so that the next statement is
// routed as by a transformer that never kept any (TestRouteCacheInvisible).
func (t *Transformer) ForgetRoutes() { t.classes, t.routes = nil, nil }

// entityMap is a transformer's entity table by term.
func entityMap(tr *Transformer) map[rdf.Term]pg.NodeID {
	m := make(map[rdf.Term]pg.NodeID)
	for id, tn := range tr.ids {
		if tn.entity != noNode {
			m[tr.dict.Term(rdf.TermID(id))] = tn.entity
		}
	}
	return m
}

// baseline holds the free twin against a from-scratch transform of its graph.
func (tw *twins) baseline(t testing.TB, step string) {
	t.Helper()
	store, spg, err := Transform(tw.free.g, tw.sg, tw.mode)
	if err != nil {
		t.Fatalf("%s: baseline transform: %v", step, err)
	}
	var nb, eb bytes.Buffer
	if err := store.WriteCSV(&nb, &eb); err != nil {
		t.Fatal(err)
	}
	gn, ge, gd := exports(t, tw.free)
	if !bytes.Equal(gn, nb.Bytes()) || !bytes.Equal(ge, eb.Bytes()) || gd != pgschema.WriteDDL(spg) {
		t.Fatalf("%s: the maintained exports differ from a full re-transform", step)
	}
}

func univ(local string) rdf.Term { return fixtures.Ex(local) }

func lit(s string) rdf.Term { return rdf.NewLiteral(s) }

func bobOf(store *pg.Store) pg.Node {
	n, _ := store.NodeByIRI(univ("bob").Value)
	return n
}

func tr(s, p string, o rdf.Term) rdf.Triple { return rdf.NewTriple(univ(s), univ(p), o) }

func typeOf(s, class string) rdf.Triple { return rdf.NewTriple(univ(s), rdf.A, univ(class)) }

// TestApplyDeltaInPlaceCorners: the deletion corners by name. Each row runs
// its batches through the twins; want is how the free twin must have served
// the last one ("in_place" or the fallback reason).
func TestApplyDeltaInPlaceCorners(t *testing.T) {
	nonParsimonious := NonParsimonious
	logic := tr("bob", "takesCourse", lit("Intro to Logic"))
	rows := []struct {
		name    string
		only    *Mode // nil: both modes
		batches []*rdf.Delta
		want    string
		check   func(t *testing.T, tw *twins, last *PGDelta)
	}{
		{
			name:    "delete then re-insert the same triple in one batch",
			batches: []*rdf.Delta{{Deletes: []rdf.Triple{logic}, Inserts: []rdf.Triple{logic}}},
			want:    "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				// The statement only changed its slot: the value node and the
				// edge go and come back, which nets to nothing.
				if got := string(last.Encode(nil)); got != "{}" {
					t.Fatalf("delta %s, want none", got)
				}
			},
		},
		{
			name:    "delete the last mention of a value node",
			batches: []*rdf.Delta{{Deletes: []rdf.Triple{logic}}},
			want:    "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				if len(last.Nodes) != 1 || last.Nodes[0].Op != OpDelete || len(last.Edges) != 1 {
					t.Fatalf("delta %+v, want one node and one edge deleted", last)
				}
			},
		},
		{
			name: "delete the first of two mentions: the node moves",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("alice", "takesCourse", lit("1999")), tr("alice", "dob", lit("Intro to Logic"))}},
				{Deletes: []rdf.Triple{logic}},
			},
			want: "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				if len(last.Nodes) != 0 || len(last.Edges) != 1 {
					t.Fatalf("delta %+v, want one edge deleted and no node change", last)
				}
			},
		},
		{
			name: "delete a value node's last mention and add a new mention in the same batch",
			batches: []*rdf.Delta{{
				Deletes: []rdf.Triple{logic},
				Inserts: []rdf.Triple{tr("alice", "dob", lit("Intro to Logic"))},
			}},
			want: "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				if len(last.Nodes) != 0 || len(last.Edges) != 2 {
					t.Fatalf("delta %+v, want the edge rewired and no node change", last)
				}
			},
		},
		{
			name: "key/value delete leaving one value: array to scalar",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("bob", "name", lit("Robert")), tr("bob", "name", lit("Bobby"))}},
				{Deletes: []rdf.Triple{tr("bob", "name", lit("Robert"))}},
				{Deletes: []rdf.Triple{tr("bob", "name", lit("Bob"))}},
			},
			want: "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				if v := bobOf(tw.free.t.store).Prop("name"); v != "Bobby" {
					t.Fatalf("name = %#v, want the scalar Bobby", v)
				}
			},
		},
		{
			name:    "key/value delete leaving none: the key goes",
			batches: []*rdf.Delta{{Deletes: []rdf.Triple{tr("bob", "name", lit("Bob"))}}},
			want:    "in_place",
			check: func(t *testing.T, tw *twins, last *PGDelta) {
				if bobOf(tw.free.t.store).Prop("name") != nil {
					t.Fatal("the name key outlived its only value")
				}
				if len(last.Nodes) != 1 || last.Nodes[0].Op != OpUpdate {
					t.Fatalf("delta %+v, want one node update", last)
				}
			},
		},
		{
			name: "new typed entity: spliced in before phase 2",
			batches: []*rdf.Delta{{Inserts: []rdf.Triple{
				tr("carol", "name", lit("Carol")), typeOf("carol", "Person"), typeOf("carol", "Student"),
				tr("carol", "advisedBy", univ("alice")), tr("bob", "advisedBy", univ("carol")),
			}}},
			want: "in_place",
		},
		{
			name: "new typed entity that is already an object elsewhere",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("bob", "advisedBy", univ("carol"))}},
				{Inserts: []rdf.Triple{typeOf("carol", "Person"), tr("carol", "name", lit("Carol"))}},
			},
			want: reasonRetyped,
		},
		{
			name:    "rdf:type added to a typed entity",
			batches: []*rdf.Delta{{Inserts: []rdf.Triple{typeOf("DB", "Person")}}},
			want:    reasonRetyped,
		},
		{
			name:    "rdf:type of a class the schema has no label for",
			batches: []*rdf.Delta{{Inserts: []rdf.Triple{typeOf("zoe", "Ghost")}}},
			want:    reasonPhase1Schema,
		},
		{
			name:    "rdf:type deleted",
			batches: []*rdf.Delta{{Deletes: []rdf.Triple{typeOf("bob", "GraduateStudent")}}},
			want:    reasonTypeDelete,
		},
		{
			name: "delete of the first trigger of a fallback edge route",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("bob", "email", lit("bob@example.org"))}},
				{Inserts: []rdf.Triple{tr("bob", "email", lit("rob@example.org"))}},
				{Deletes: []rdf.Triple{tr("bob", "email", lit("bob@example.org"))}},
			},
			want: reasonFirstTrigger,
		},
		{
			name: "delete of a later trigger of a fallback edge route",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("bob", "email", lit("bob@example.org"))}},
				{Inserts: []rdf.Triple{tr("bob", "email", lit("rob@example.org"))}},
				{Deletes: []rdf.Triple{tr("bob", "email", lit("rob@example.org"))}},
			},
			want: "in_place",
		},
		{
			name: "untyped subject: last statement deleted, nobody points at it",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("stranger", "email", lit("who@example.org")), tr("stranger", "knows", univ("alice"))}},
				{Deletes: []rdf.Triple{tr("stranger", "knows", univ("alice")), tr("stranger", "email", lit("who@example.org"))}},
			},
			// The first statement was the first use of the anonymous node type.
			want: reasonFirstTrigger,
		},
		{
			name: "untyped subject: first statement deleted, the node moves",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("s1", "email", lit("one@example.org"))}},
				{Inserts: []rdf.Triple{tr("s2", "email", lit("a@example.org")), tr("s2", "dob", lit("x")), tr("s1", "email", lit("two@example.org")), tr("s2", "email", lit("b@example.org"))}},
				{Deletes: []rdf.Triple{tr("s2", "email", lit("a@example.org"))}},
			},
			want: "in_place",
		},
		{
			name: "untyped subject: all statements deleted, gone",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("s1", "email", lit("one@example.org"))}},
				{Inserts: []rdf.Triple{tr("s2", "email", lit("a@example.org")), tr("s2", "email", lit("b@example.org"))}},
				{Deletes: []rdf.Triple{tr("s2", "email", lit("a@example.org")), tr("s2", "email", lit("b@example.org"))},
					Inserts: []rdf.Triple{tr("bob", "knows", univ("s2"))}},
			},
			want: "in_place",
		},
		{
			name: "untyped subject: first statement deleted while an earlier edge points at the entity",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("s1", "email", lit("one@example.org"))}},
				{Inserts: []rdf.Triple{tr("s2", "email", lit("a@example.org")), tr("s1", "knows", univ("s2")), tr("s2", "email", lit("b@example.org"))}},
				{Deletes: []rdf.Triple{tr("s2", "email", lit("a@example.org"))}},
			},
			want: reasonUntyped,
		},
		{
			name: "a resource that is a value in one triple and an entity in the next",
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{tr("bob", "knows", univ("zed")), tr("alice", "knows", univ("zed"))}},
				{Inserts: []rdf.Triple{tr("bob", "knows", univ("s3")), tr("s3", "email", lit("c@example.org")), tr("alice", "knows", univ("s3"))}},
				{Deletes: []rdf.Triple{tr("bob", "knows", univ("s3"))}},
				{Deletes: []rdf.Triple{tr("alice", "knows", univ("s3"))}},
			},
			want: "in_place",
		},
		{
			name: "annotation in the graph",
			only: &nonParsimonious,
			batches: []*rdf.Delta{
				{Inserts: []rdf.Triple{rdf.NewTriple(rdf.MustTripleTerm(tr("bob", "advisedBy", univ("alice"))), univ("since"), rdf.NewTypedLiteral("2020", rdf.XSDGYear))}},
				{Deletes: []rdf.Triple{logic}},
			},
			want: reasonAnnotation,
		},
	}
	for _, row := range rows {
		for _, mode := range []Mode{Parsimonious, NonParsimonious} {
			if row.only != nil && *row.only != mode {
				continue
			}
			t.Run(fmt.Sprintf("%s/%v", row.name, mode), func(t *testing.T) {
				tw := newTwins(t, fixtures.UniversityGraph(), fixtures.UniversityShapes(), mode)
				var last *PGDelta
				for i, d := range row.batches {
					last = tw.apply(t, d, fmt.Sprint("batch ", i))
					tw.baseline(t, fmt.Sprint("batch ", i))
				}
				path, reason := tw.free.LastPath()
				if got := path + reason; got != row.want && got != "rebuild"+row.want {
					t.Fatalf("served by %s %s, want %s", path, reason, row.want)
				}
				if row.check != nil && mode == Parsimonious {
					row.check(t, tw, last)
				}
			})
		}
	}
}

// TestApplyDeltaRejectedBatchLeavesNoTrace: a batch strict mode rejects after
// the graph was edited leaves graph, store, counters and annotation count as
// they were, on a state the in-place path has been editing.
func TestApplyDeltaRejectedBatchLeavesNoTrace(t *testing.T) {
	tw := newTwins(t, fixtures.UniversityGraph(), fixtures.UniversityShapes(), Parsimonious)
	tw.apply(t, &rdf.Delta{Deletes: []rdf.Triple{tr("bob", "takesCourse", lit("Intro to Logic"))}}, "warm-up")
	s := tw.free
	n0, e0, d0 := exports(t, s)
	g0 := s.g.Clone()
	fast, rebuilds, quoted, typed := s.fastApplies, s.rebuilds, s.quoted, s.typed
	ghost := rdf.MustTripleTerm(tr("bob", "advisedBy", univ("nobody")))
	bad := &rdf.Delta{
		Deletes: []rdf.Triple{tr("bob", "name", lit("Bob")), tr("alice", "worksFor", univ("CS"))},
		Inserts: []rdf.Triple{tr("bob", "name", lit("Rob")), rdf.NewTriple(ghost, univ("since"), rdf.NewTypedLiteral("2020", rdf.XSDGYear))},
	}
	if got := tw.apply(t, bad, "rejected"); got != nil {
		t.Fatal("the orphan annotation batch was accepted")
	}
	n1, e1, d1 := exports(t, s)
	if !bytes.Equal(n0, n1) || !bytes.Equal(e0, e1) || d0 != d1 || !s.g.Equal(g0) {
		t.Fatal("the rejected batch left a trace in the graph or the store")
	}
	if s.fastApplies != fast || s.rebuilds != rebuilds || s.quoted != quoted || s.typed != typed {
		t.Fatalf("counters moved: fast %d→%d rebuilds %d→%d quoted %d→%d typed %d→%d",
			fast, s.fastApplies, rebuilds, s.rebuilds, quoted, s.quoted, typed, s.typed)
	}
	tw.apply(t, &rdf.Delta{Inserts: []rdf.Triple{tr("bob", "name", lit("Rob"))}}, "after")
	if path, _ := s.LastPath(); path != "in_place" {
		t.Fatalf("the batch after the rejection was served by %s", path)
	}
	tw.baseline(t, "after")
}

// TestApplyDeltaInPlaceMatchesRebuild drives the twins over generated churn:
// datagen.EvolveChurn batches with their rdf:type deletes left in, the same
// with them taken out (the shape the benchmark's script has), and plain
// Evolve growth with its rdf:type inserts.
func TestApplyDeltaInPlaceMatchesRebuild(t *testing.T) {
	profiles := []struct {
		p     *datagen.Profile
		scale float64
	}{{datagen.DBpedia2022(), 0.00004}, {datagen.University(), 0.4}}
	for _, pr := range profiles {
		for _, mode := range []Mode{Parsimonious, NonParsimonious} {
			t.Run(fmt.Sprintf("%s/%v", pr.p.Name, mode), func(t *testing.T) {
				g := datagen.Generate(pr.p, pr.scale, 7)
				sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
				tw := newTwins(t, g, sg, mode)
				served := make(map[string]int)
				rounds := 24
				if testing.Short() {
					rounds = 9
				}
				for i := 0; i < rounds; i++ {
					live := tw.free.g
					var d *rdf.Delta
					switch i % 3 {
					case 0:
						d = &rdf.Delta{Inserts: datagen.Evolve(live, pr.p, 0.004, int64(i)).Triples()}
					default:
						d = datagen.EvolveChurn(live, pr.p, datagen.Churn{AddFrac: 0.003, DeleteFrac: 0.002, MutateFrac: 0.002}, int64(i))
						if i%3 == 1 {
							d.Deletes = withoutTypes(d.Deletes)
						}
					}
					step := fmt.Sprintf("round %d (%d deletes, %d inserts)", i, len(d.Deletes), len(d.Inserts))
					tw.apply(t, d, step)
					path, reason := tw.free.LastPath()
					served[path+" "+reason]++
					if i%4 == 3 {
						tw.baseline(t, step)
					}
				}
				tw.baseline(t, "end")
				if tw.free.fastApplies == 0 || tw.free.rebuilds == 0 {
					t.Fatalf("the script did not cover both paths: %d in place, %d rebuilt", tw.free.fastApplies, tw.free.rebuilds)
				}
				t.Logf("%d triples: %v", g.Len(), served)
			})
		}
	}
}

func withoutTypes(ts []rdf.Triple) []rdf.Triple {
	kept := ts[:0]
	for _, tr := range ts {
		if tr.P != rdf.A {
			kept = append(kept, tr)
		}
	}
	return kept
}

// randomBatch draws a small batch over a vocabulary narrow enough for its
// statements to collide: shared value nodes, resources that are subjects in
// one batch and objects in the next, typed, untyped and unknown alike.
func randomBatch(rng *rand.Rand, live *rdf.Graph) *rdf.Delta {
	subjects := []string{"bob", "alice", "DB", "CS", "u1", "u2", "u3", "n1", "n2"}
	preds := []string{"name", "dob", "takesCourse", "advisedBy", "email", "knows", "worksFor"}
	classes := []string{"Person", "Student", "Course", "Department", "Ghost"}
	literals := []rdf.Term{
		lit("a"), lit("b"), lit("Bob"), lit("Intro to Logic"),
		rdf.NewTypedLiteral("1999", rdf.XSDGYear), rdf.NewTypedLiteral("5", rdf.XSDInteger),
		rdf.NewTypedLiteral("05", rdf.XSDInteger), rdf.NewLangLiteral("x", "en"),
	}
	pick := func(from []string) string { return from[rng.Intn(len(from))] }
	d := &rdf.Delta{}
	all := live.Triples()
	for n := 1 + rng.Intn(6); n > 0; n-- {
		switch op := rng.Intn(20); {
		case op < 8 && len(all) > 0:
			if victim := all[rng.Intn(len(all))]; victim.P != rdf.A || rng.Intn(6) == 0 {
				d.Deletes = append(d.Deletes, victim)
			}
		case op < 10:
			d.Inserts = append(d.Inserts, typeOf(pick(subjects), pick(classes)))
		case op < 15:
			d.Inserts = append(d.Inserts, tr(pick(subjects), pick(preds), literals[rng.Intn(len(literals))]))
		default:
			d.Inserts = append(d.Inserts, tr(pick(subjects), pick(preds), univ(pick(subjects))))
		}
	}
	return d
}

func runRandomScript(t testing.TB, seed int64, steps int, served map[string]int) {
	rng := rand.New(rand.NewSource(seed))
	mode := Parsimonious
	if seed%2 != 0 {
		mode = NonParsimonious
	}
	tw := newTwins(t, fixtures.UniversityGraph(), fixtures.UniversityShapes(), mode)
	for i := 0; i < steps; i++ {
		d := randomBatch(rng, tw.free.g)
		step := fmt.Sprintf("seed %d step %d: -%v +%v", seed, i, d.Deletes, d.Inserts)
		if tw.apply(t, d, step) != nil && served != nil {
			path, reason := tw.free.LastPath()
			served[path+" "+reason]++
		}
		if i%5 == 4 {
			tw.baseline(t, step)
		}
	}
}

func TestApplyDeltaInPlaceRandomScripts(t *testing.T) {
	seeds := 300
	if testing.Short() {
		seeds = 40
	}
	served := make(map[string]int)
	for seed := int64(0); seed < int64(seeds); seed++ {
		runRandomScript(t, seed, 25, served)
	}
	for _, want := range []string{"in_place ", "rebuild " + reasonTypeDelete, "rebuild " + reasonRetyped,
		"rebuild " + reasonFirstTrigger, "rebuild " + reasonPhase1Schema, "rebuild " + reasonUntyped} {
		if served[want] == 0 {
			t.Errorf("no batch of the scripts was served by %q: %v", want, served)
		}
	}
	t.Logf("%v", served)
}

// FuzzApplyDeltaInPlace: a seed is a script; the twins must agree at every
// step of it.
func FuzzApplyDeltaInPlace(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(12))
	}
	f.Fuzz(func(t *testing.T, seed int64, steps uint8) {
		runRandomScript(t, seed, int(steps%40), nil)
	})
}

// TestForcedRebuildSpoolReplaysInPlace is the WAL contract between the two
// paths: the digests a state that rebuilt every batch recorded are the ones
// a state free to edit in place computes for the same batches.
func TestForcedRebuildSpoolReplaysInPlace(t *testing.T) {
	p := datagen.University()
	g := datagen.Generate(p, 0.3, 3)
	sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	forced, err := NewDeltaState(g.Clone(), sg, Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	forced.forceRebuild = true
	var batches []*rdf.Delta
	var digests []string
	for i := 0; i < 10; i++ {
		d := datagen.EvolveChurn(forced.g, p, datagen.Churn{AddFrac: 0.01, DeleteFrac: 0.004, MutateFrac: 0.004}, int64(i))
		if i%2 == 1 {
			d.Deletes = withoutTypes(d.Deletes)
		}
		pd, err := forced.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		dg, err := pd.Digest()
		if err != nil {
			t.Fatal(err)
		}
		batches, digests = append(batches, d), append(digests, dg)
	}
	free, err := NewDeltaState(g.Clone(), sg, Parsimonious)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range batches {
		pd, err := free.ApplyDelta(d)
		if err != nil {
			t.Fatal(err)
		}
		if dg, _ := pd.Digest(); dg != digests[i] {
			t.Fatalf("batch %d: digest %s, the forced-rebuild state recorded %s", i, dg, digests[i])
		}
	}
	if free.fastApplies == 0 {
		t.Fatal("no batch of the replay was applied in place")
	}
}
