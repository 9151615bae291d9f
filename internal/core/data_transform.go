package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/xsd"
)

// Always-on transform throughput meters and counters (obs.Default registry):
// PG elements produced by F_dt, fed once per Apply call, plus the lenient-
// mode degradation tally.
var (
	mTransformNodes   = obs.Default.Meter("core.transform.nodes")
	mTransformEdges   = obs.Default.Meter("core.transform.edges")
	cTransformKV      = obs.Default.Counter("core.transform.kv_props")
	cTransformDegrade = obs.Default.Counter("core.transform.degraded")
)

// GenericClass is the rdf:type assumed for shape-less entities under the
// lenient degradation policy: untyped subjects are labelled as instances of
// rdfs:Resource so their properties still land on a labelled node instead of
// being dropped.
const GenericClass = rdf.RDFSNS + "Resource"

// degradation records one statement the lenient policy could not realize
// faithfully: it was either skipped (unrepresentable) or coerced through the
// documented fallback (generic label, string-coerced value). The details are
// for this package's tests; callers see the tally (DegradedCount).
type degradation struct {
	reason string // which fallback applied or why the statement was skipped
	triple rdf.Triple
}

// maxRetainedDegradations caps the per-transformer detail list; the count
// keeps growing past it (DegradedCount) but details are dropped so dirty
// inputs cannot balloon memory.
const maxRetainedDegradations = 100

// Transformer implements the S3PG data transformation F_dt (Algorithm 1):
// a two-phase streaming conversion of RDF triples into a property graph
// conforming to the PG-Schema produced by F_st. The transformer retains its
// entity and value-node indexes across calls, so Apply can be invoked again
// on a delta graph to realize the monotone incremental transformation of
// §4.2.1 without recomputing anything.
type Transformer struct {
	mode    Mode
	mapping *Mapping
	store   *pg.Store

	// ids is the Ψ_ETD companion by id in dict, the first graph's dictionary
	// (home): ids never change, so one table serves every apply call, and a
	// term is hashed by no statement it occurs in.
	dict *rdf.Dict
	ids  []termNodes
	// valNode maps a value to its value node by tag, then lexical (a map
	// keyed by one string grows cheaply): what ids' value column reads
	// through, so distinct terms sharing a value key (an IRI whose text is
	// "_:x", blank node x) share the node. The ids sit in cells so that
	// renumbering the store rewrites them in one walk, hashing no key.
	valNode map[valTag]map[string]*pg.NodeID
	idSlab  []pg.NodeID
	// The names the router resolves, as pg.Syms, kept across apply calls:
	// a class's label, and the routing of a (subject label set, predicate)
	// pair, made on first use.
	classes map[rdf.TermID]pg.Sym
	routes  map[uint64]*routed
	lits    []litVal // the apply call's per-term literal values; nil parses on demand
	// dtValue holds each datatype IRI as the "dt" value of its value nodes:
	// boxed once, not once per node.
	dtValue map[string]pg.Value
	// keys are the record keys F_dt writes, interned in the store.
	keys struct{ iri, dt, lang, lex, res, value pg.Sym }
	// kvProps counts key/value-inlined literals for span accounting (plain
	// int: Apply is single-goroutine).
	kvProps int64

	// What a DeltaState needs to edit the store in place. typedNodes is how
	// many nodes phase 1 of the last apply call created. triggers holds the
	// slots of the statements whose routing extended the schema (the mapping's
	// revision moved): what they added — its name, its place in the DDL —
	// depends on their being where they are in the stream. frozen holds the
	// records of nodes below frozenBelow as they were before their first
	// write of a batch applied in place (freeze); frozenBelow is 0 otherwise.
	typedNodes  int
	triggers    map[int]struct{}
	frozen      map[pg.NodeID]pg.Node
	frozenBelow pg.NodeID

	// lenient enables the degradation policy: statements that strict mode
	// rejects are realized through documented fallbacks or skipped and
	// recorded instead of aborting the transformation.
	lenient       bool
	degraded      []degradation // the first maxRetainedDegradations
	degradedCount int64
}

// valKey identifies a value node: the exact lexical and what it is read as.
type valKey struct {
	lex string
	tag valTag
}

// valTag is a literal's datatype and language tag, or res for an untyped
// resource.
type valTag struct {
	dt, lang string
	res      bool
}

// valueKey is the valNode key of a term encoded as a value node.
func valueKey(o rdf.Term) valKey {
	if o.IsResource() {
		return valKey{lex: termIRI(o), tag: valTag{res: true}}
	}
	return valKey{lex: o.Value, tag: valTag{dt: o.DatatypeIRI(), lang: o.Lang}}
}

// valueNode returns the cell of the value node with key k, nil when none.
func (t *Transformer) valueNode(k valKey) *pg.NodeID { return t.valNode[k.tag][k.lex] }

// addValueNode records id as the value node with key k, in a cell of the id
// slab.
func (t *Transformer) addValueNode(k valKey, id pg.NodeID) {
	byLex := t.valNode[k.tag]
	if byLex == nil {
		byLex = make(map[string]*pg.NodeID)
		t.valNode[k.tag] = byLex
	}
	if len(t.idSlab) == 0 {
		t.idSlab = make([]pg.NodeID, 512)
	}
	cell := &t.idSlab[0]
	t.idSlab = t.idSlab[1:]
	*cell = id
	byLex[k.lex] = cell
}

// NewTransformer builds the PG-Schema for the shape schema via F_st and
// returns a transformer ready to convert instance data.
func NewTransformer(sg *shacl.Schema, mode Mode) (*Transformer, error) {
	spg, err := TransformSchema(sg, mode)
	if err != nil {
		return nil, err
	}
	return NewTransformerForSchema(spg, mode)
}

// NewTransformerForSchema returns a transformer for an existing PG-Schema.
func NewTransformerForSchema(spg *pgschema.Schema, mode Mode) (*Transformer, error) {
	m, err := BuildMapping(spg)
	if err != nil {
		return nil, err
	}
	t := &Transformer{
		mode:    mode,
		mapping: m,
		store:   pg.NewStore(),
		valNode: make(map[valTag]map[string]*pg.NodeID),
		dtValue: make(map[string]pg.Value),

		triggers: make(map[int]struct{}),
	}
	k, st := &t.keys, t.store
	k.iri, k.dt, k.lang = st.Intern("iri"), st.Intern("dt"), st.Intern("lang")
	k.lex, k.res, k.value = st.Intern("lex"), st.Intern("res"), st.Intern("value")
	return t, nil
}

// termNodes is what a term is in the store: the entity node it names and
// the value node it was encoded as, noNode when none.
type termNodes struct{ entity, value pg.NodeID }

// home returns g, or, when g's terms are in another dictionary than the first
// graph's, g re-added into a copy of that one, which no graph shares.
func (t *Transformer) home(g *rdf.Graph) *rdf.Graph {
	switch {
	case t.dict == nil:
		t.dict = g.Dict()
	case g.Dict() != t.dict:
		t.dict = t.dict.Clone()
		h := rdf.NewGraphWithDict(t.dict)
		h.AddAll(g)
		return h
	}
	return g
}

// freeze keeps node id's record as it is, before a write (pg.Store.Frozen),
// when a batch applied in place found the node and has not written it yet.
func (t *Transformer) freeze(id pg.NodeID) {
	if id >= t.frozenBelow {
		return
	}
	if _, done := t.frozen[id]; !done {
		if t.frozen == nil {
			t.frozen = make(map[pg.NodeID]pg.Node)
		}
		t.frozen[id] = t.store.Frozen(id)
	}
}

// entityOf returns the entity node of a term, noNode when it names none.
func (t *Transformer) entityOf(term rdf.Term) pg.NodeID {
	if id, ok := t.dict.Lookup(term); ok && int(id) < len(t.ids) {
		return t.ids[id].entity
	}
	return noNode
}

// SetLenient switches the degradation policy on or off. With it on, Apply
// keeps transforming dirty inputs: untyped subjects get the GenericClass
// label, literal rdf:type objects are string-coerced into ordinary property
// statements, and unrepresentable statements (typed or object-position
// quoted triples, malformed annotations) are skipped — each case recorded as
// a degradation and counted in the core.transform.degraded counter.
func (t *Transformer) SetLenient(on bool) { t.lenient = on }

// DegradedCount returns how many statements were degraded or skipped.
func (t *Transformer) DegradedCount() int64 { return t.degradedCount }

// degrade records one statement handled by the degradation policy.
func (t *Transformer) degrade(reason string, tr rdf.Triple) {
	t.degradedCount++
	cTransformDegrade.Inc()
	if len(t.degraded) < maxRetainedDegradations {
		t.degraded = append(t.degraded, degradation{reason, tr})
	}
}

// Store returns the property graph built so far.
func (t *Transformer) Store() *pg.Store { return t.store }

// Schema returns the PG-Schema (possibly extended by fallback routes).
func (t *Transformer) Schema() *pgschema.Schema { return t.mapping.Schema() }

// Apply converts the triples of g into the property graph. Calling it on an
// initial graph performs the full transformation; calling it again on a
// delta graph performs the monotone incremental update: existing nodes are
// reused and only elements for new triples are created.
func (t *Transformer) Apply(g *rdf.Graph) error {
	return t.ApplyParallel(context.Background(), g, 1, nil)
}

// ctxCheckInterval is how many triples each phase processes between context
// cancellation checks.
const ctxCheckInterval = 4096

// apply is Algorithm 1 over the graph's dictionary-encoded triples from slot
// from on, in admission order; g's dictionary is the transformer's. It is the
// one statement router every entry point runs: lits is nil when literal
// values are parsed on demand, or ApplyParallel's prefilled per-term table.
func (t *Transformer) apply(ctx context.Context, g *rdf.Graph, from int, lits []litVal, span *obs.Span) error {
	nodes0, edges0 := t.store.NumNodes(), t.store.NumEdges()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		mTransformNodes.Observe(int64(t.store.NumNodes()-nodes0), elapsed)
		mTransformEdges.Observe(int64(t.store.NumEdges()-edges0), elapsed)
	}()

	if n := t.dict.Len(); n > len(t.ids) {
		// slices.Grow amortises: a live graph's batches add a few terms each.
		t.ids = slices.Grow(t.ids, n-len(t.ids))
		for len(t.ids) < n {
			t.ids = append(t.ids, termNodes{noNode, noNode})
		}
	}
	t.lits = lits
	defer func() { t.lits = nil }()
	aID, hasA := t.dict.Lookup(rdf.A)

	// Phase 1 (Algorithm 1, lines 4–14): collect entity types and create
	// PG nodes with labels and the iri key. Under the lenient policy,
	// malformed typing statements degrade instead of aborting: literal
	// rdf:type objects are deferred to phase 2 as ordinary (string-coerced)
	// property statements, typed quoted triples are skipped.
	p1 := span.StartSpan("phase1.types")
	typeTriples, seen := int64(0), 0
	var err error
	var coerced []rdf.TermID // subject, object pairs
	if hasA {
		g.ForEachEncodedFrom(from, func(slot int, s, p, o rdf.TermID) bool {
			if p != aID {
				return true
			}
			if seen%ctxCheckInterval == 0 {
				if err = ctx.Err(); err != nil {
					return false
				}
			}
			seen++
			typeTriples++
			var sT, oT rdf.Term
			if t.ids[s].entity == noNode {
				if sT = t.dict.Term(s); sT.IsTripleTerm() {
					if t.lenient {
						t.degrade("skipped: quoted triples cannot be typed", t.triple(s, p, o))
						return true
					}
					err = fmt.Errorf("core: quoted triples cannot be typed: %v", t.triple(s, p, o))
					return false
				}
			}
			label, known := t.classes[o]
			if !known {
				if oT = t.dict.Term(o); !oT.IsIRI() {
					if t.lenient {
						t.degrade("coerced: rdf:type object is not an IRI, realized as a property statement", t.triple(s, p, o))
						coerced = append(coerced, s, o)
						return true
					}
					err = fmt.Errorf("core: rdf:type object %v is not an IRI", oT)
					return false
				}
			}
			id := t.entity(s, sT)
			if !known {
				name := t.mapping.LabelOfClass(oT.Value)
				if name == "" {
					name = t.mapping.EnsureClassLabel(oT.Value)
					t.triggers[slot] = struct{}{}
				}
				label = t.class(o, name)
			}
			t.store.AddLabelSym(id, label)
			return true
		})
	}
	t.typedNodes = t.store.NumNodes() - nodes0
	p1.Count("type_triples", typeTriples)
	p1.Count("nodes_created", int64(t.typedNodes))
	p1.End()
	if err != nil {
		return err
	}

	// Phase 2 (lines 15–31): realize every non-type triple as an edge, a
	// key/value attribute, or an edge to a literal value node. RDF-star
	// annotations (quoted-triple subjects) are deferred so the statements
	// they annotate exist first.
	p2 := span.StartSpan("phase2.properties")
	nodes1, kv1 := t.store.NumNodes(), t.kvProps
	var annotations []rdf.Triple
	seen = 0
	g.ForEachEncodedFrom(from, func(slot int, s, p, o rdf.TermID) bool {
		if seen%ctxCheckInterval == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		seen++
		if hasA && p == aID {
			return true
		}
		rev := t.mapping.rev
		var annotation bool
		if annotation, err = t.statement(s, p, o); annotation {
			annotations = append(annotations, t.triple(s, p, o))
		}
		if t.mapping.rev != rev {
			t.triggers[slot] = struct{}{}
		}
		return err == nil
	})
	if err == nil {
		// Deferred literal-typed statements from phase 1 (lenient only):
		// realized like any other property statement, so the information is
		// preserved as a string-coerced value node.
		for i := 0; i < len(coerced); i += 2 {
			t.statement(coerced[i], aID, coerced[i+1])
		}
	}
	cTransformKV.Add(t.kvProps - kv1)
	p2.Count("edges_created", int64(t.store.NumEdges()-edges0))
	p2.Count("value_nodes_created", int64(t.store.NumNodes()-nodes1))
	p2.Count("kv_props", t.kvProps-kv1)
	p2.End()
	if err != nil {
		return err
	}
	if len(annotations) > 0 {
		pa := span.StartSpan("phase2.annotations")
		pa.Count("annotations", int64(len(annotations)))
		defer pa.End()
		for _, tr := range annotations {
			if err := t.applyAnnotation(tr); err != nil {
				if t.lenient {
					t.degrade("skipped: "+err.Error(), tr)
					continue
				}
				return err
			}
		}
	}
	return nil
}

// applyAnnotation attaches an RDF-star annotation << s p o >> a v to the PG
// edge realizing the statement (s, p, o), as an edge property. Annotation
// values must be literals of a standard datatype in canonical form — the
// edge record is the PG-native representation of statement metadata and,
// like key/value node properties, cannot carry language tags or exotic
// lexicals.
func (t *Transformer) applyAnnotation(tr rdf.Triple) error {
	base, _ := tr.S.AsTriple()
	var hit pg.Edge
	hits := 0
	if sid := t.entityOf(base.S); sid != noNode {
		hit, hits, _, _ = t.edgeOf(sid, base)
	}
	if hits == 0 {
		cause := "missing from the data, or key/value-routed — use the non-parsimonious mode"
		if t.mode == NonParsimonious {
			cause = "missing from the data"
		}
		return fmt.Errorf("core: annotated statement %v is not realized as an edge (%s)", base, cause)
	}
	if !tr.O.IsLiteral() || tr.O.Lang != "" {
		return fmt.Errorf("core: annotation value %v must be a plain or typed literal", tr.O)
	}
	dt := tr.O.DatatypeIRI()
	if xsd.FromShortName(xsd.ShortName(dt)) != dt {
		return fmt.Errorf("core: annotation datatype %s is not supported", dt)
	}
	native, canonical := nativeValue(tr.O.Value, dt)
	if !canonical {
		return fmt.Errorf("core: annotation value %v has a non-canonical lexical form", tr.O)
	}
	key, err := t.mapping.EnsureAnnotation(hit.Label(), tr.P.Value, dt)
	if err != nil {
		return err
	}
	t.store.AppendEdgeProp(hit.ID, key, native)
	return nil
}

// edgeOf is the one answer to which edge realizes a statement of the node
// sid (Prop. 4.1): an edge from it, to the node its object has as an entity
// or as a value, with a label of its predicate. It returns the one with the
// highest id — the last applied, when the same statement arrived in two Apply
// calls — and how many there are, and the value node the object has (noNode
// when none) with its valNode key.
func (t *Transformer) edgeOf(sid pg.NodeID, tr rdf.Triple) (hit pg.Edge, hits int, value pg.NodeID, vk valKey) {
	entity := noNode
	if tr.O.IsResource() {
		entity = t.entityOf(tr.O)
	}
	value, vk = noNode, valueKey(tr.O)
	if cell := t.valueNode(vk); cell != nil {
		value = *cell
	}
	// The shorter side: a hub's out-list can be long, a common value's in-list too.
	lists := [2][]pg.EdgeID{t.store.Out(sid)}
	if a, b := t.store.In(entity), t.store.In(value); len(a)+len(b) < len(lists[0]) {
		lists = [2][]pg.EdgeID{a, b}
	}
	for _, list := range lists {
		for _, eid := range list {
			e := t.store.Edge(eid)
			if e.From != sid || (e.To != entity && e.To != value) {
				continue
			}
			if p, ok := t.mapping.PredOfEdgeLabel(e.Label()); ok && p == tr.P.Value {
				if hits == 0 || e.ID > hit.ID {
					hit = e
				}
				hits++
			}
		}
	}
	return hit, hits, value, vk
}

// extendTargets widens a fallback edge type to accept the target node's
// first label (schema evolution driven by uncovered data).
func (t *Transformer) extendTargets(edgeLabel string, target pg.NodeID) {
	labels := t.store.Node(target).Labels()
	if len(labels) > 0 {
		t.mapping.ExtendEdgeTargets(edgeLabel, labels[0])
	}
}

// edgeLabelFor resolves the edge label for a predicate: the route's name
// when one exists (KV routes share their key as the edge label for values
// that cannot be inlined), else a fallback edge route is registered. The
// second result reports whether the label belongs to a fallback route whose
// targets should grow with the data.
func (t *Transformer) edgeLabelFor(route *Route, sLabels []string, pred string) (string, bool) {
	if route != nil {
		if route.Kind == RouteKV {
			// Values escaping the KV encoding need the label → predicate
			// correspondence recorded in the schema for the inverse mapping.
			t.mapping.EnsureKVEscapeEdge(sLabels, route)
		}
		return route.Name, route.Fallback
	}
	label := ""
	if len(sLabels) > 0 {
		label = sLabels[0]
	}
	r := t.mapping.EnsureEdgeRoute(label, pred)
	return r.Name, true
}

// termIRI encodes a resource term as the iri property value.
func termIRI(e rdf.Term) string {
	if e.IsBlank() {
		return "_:" + e.Value
	}
	return e.Value
}

// noNode marks an absent entry in the TermID-indexed node caches.
const noNode = pg.NoNode

// litVal is the realization of one literal term: the typed value xsd parsing
// yields and whether its lexical form is canonical.
type litVal struct {
	native    pg.Value
	canonical bool
}

// routed is the routing of a (subject label set, predicate) pair as of
// mapping revision rev: the route, the key a KV route writes and, once a
// statement of the pair became an edge, the edge label edgeLabelFor gave.
// Anything that changes how a pair routes moves the revision, so an entry of
// the current revision is what resolving the pair again would give, with
// edgeLabelFor's side effects already had; an older entry is resolved again.
type routed struct {
	rev      uint64
	route    *Route
	key      pg.Sym
	hasEdge  bool
	fallback bool
	edge     pg.Sym
	edgeName string
}

// triple decodes a statement for an error, a degradation or an annotation.
func (t *Transformer) triple(s, p, o rdf.TermID) rdf.Triple {
	return rdf.NewTriple(t.dict.Term(s), t.dict.Term(p), t.dict.Term(o))
}

// statement routes one non-type triple (Algorithm 1, lines 15–31). It reports
// an RDF-star annotation (quoted-triple subject) back to the caller, which
// defers it; a statement strict mode rejects is an error, under the lenient
// policy a recorded degradation.
func (t *Transformer) statement(s, p, o rdf.TermID) (annotation bool, err error) {
	sid := t.ids[s].entity
	var sT rdf.Term
	if sid == noNode {
		if sT = t.dict.Term(s); sT.IsTripleTerm() {
			return true, nil
		}
	}
	// An object that is an entity is an IRI or a blank node, so it needs no
	// decode.
	var oT rdf.Term
	if t.ids[o].entity == noNode {
		if oT = t.dict.Term(o); oT.IsTripleTerm() {
			tr := t.triple(s, p, o)
			err := fmt.Errorf("core: quoted triples in object position are not supported: %v", tr)
			if t.lenient {
				t.degrade("skipped: "+err.Error(), tr)
				return false, nil
			}
			return false, err
		}
	}
	if sid == noNode {
		sid = t.entity(s, sT)
	}
	sn := t.store.Node(sid)
	if len(sn.Labels()) == 0 && t.lenient {
		// Degradation policy: a subject with no rdf:type (hence no shape)
		// gets the generic rdfs:Resource label so its properties attach to a
		// labelled node; routes fall back to data-extended edge types.
		t.degrade("generic label: subject has no rdf:type, labelled as rdfs:Resource", t.triple(s, p, o))
		t.store.AddLabel(sid, t.mapping.EnsureClassLabel(GenericClass))
		sn = t.store.Node(sid)
	}
	r := t.route(sn, p)

	var oid pg.NodeID
	if oid = t.ids[o].entity; oid != noNode {
		// Case 1 (lines 16–20): the object is a known entity → entity edge.
		// Read after the subject's entity exists, so a self-loop finds it.
	} else if oT.IsResource() {
		// An IRI or blank object never declared as an entity is encoded as a
		// resource value node so no information is dropped.
		oid = t.resourceValue(o, oT)
	} else {
		// Case 2 (lines 21–23): parsimonious key/value encoding, applicable
		// when the route says KV and the literal's datatype matches
		// canonically.
		dt := oT.DatatypeIRI()
		if route := r.route; route != nil && route.Kind == RouteKV && oT.Lang == "" && dt == route.Datatype {
			if lv := t.literal(o, oT.Value, dt); lv.canonical {
				t.freeze(sid)
				t.store.AppendPropSym(sid, r.key, lv.native)
				t.kvProps++
				return false, nil
			}
		}
		// Case 3 (lines 24–31): literal value node plus edge.
		oid = t.literalValue(o, oT.Value, dt, oT.Lang)
	}
	if !r.hasEdge {
		r.edgeName, r.fallback = t.edgeLabelFor(r.route, sn.Labels(), t.dict.Term(p).Value)
		r.edge, r.hasEdge = t.store.Intern(r.edgeName), true
	}
	t.store.AddEdgeSym(sid, oid, r.edge)
	if r.fallback {
		t.extendTargets(r.edgeName, oid)
	}
	return false, nil
}

// class records the label of class term o.
func (t *Transformer) class(o rdf.TermID, name string) pg.Sym {
	if t.classes == nil {
		t.classes = make(map[rdf.TermID]pg.Sym)
	}
	l := t.store.Intern(name)
	t.classes[o] = l
	return l
}

// route returns the routing of predicate p for the subject node sn, resolving
// it when the pair is new or the mapping has moved since.
func (t *Transformer) route(sn pg.Node, p rdf.TermID) *routed {
	m, key := t.mapping, uint64(sn.LabelSet())<<32|uint64(p)
	r := t.routes[key]
	if r != nil && r.rev == m.rev {
		return r
	}
	if r == nil {
		if t.routes == nil {
			t.routes = make(map[uint64]*routed)
		}
		r = new(routed)
		t.routes[key] = r
	}
	*r = routed{rev: m.rev, route: m.Route(sn.Labels(), t.dict.Term(p).Value)}
	if r.route != nil && r.route.Kind == RouteKV {
		r.key = t.store.Intern(r.route.Name)
	}
	return r
}

// entity returns the PG node for an entity, creating it with its iri key on
// first sight (Algorithm 1, lines 9–14).
func (t *Transformer) entity(s rdf.TermID, sT rdf.Term) pg.NodeID {
	if id := t.ids[s].entity; id != noNode {
		return id
	}
	props := [...]pg.KV{{Key: t.keys.iri, Value: termIRI(sT)}}
	id := t.store.AddNodeSym(nil, props[:]).ID
	t.ids[s].entity = id
	return id
}

// literal returns the typed value of literal term o.
func (t *Transformer) literal(o rdf.TermID, lex, dt string) litVal {
	if t.lits != nil {
		return t.lits[o]
	}
	native, canonical := nativeValue(lex, dt)
	return litVal{native, canonical}
}

// literalValue returns (deduplicated) the value node encoding a literal:
// label from the datatype, value as a typed scalar, plus dt/lang bookkeeping
// and the exact lexical when formatting would lose it.
func (t *Transformer) literalValue(o rdf.TermID, lex, dt, lang string) pg.NodeID {
	if id := t.ids[o].value; id != noNode {
		return id
	}
	key := valKey{lex: lex, tag: valTag{dt: dt, lang: lang}}
	var id pg.NodeID
	if cell := t.valueNode(key); cell != nil {
		id = *cell
	} else {
		label := t.store.Intern(t.mapping.EnsureValueLabel(dt))
		lv := t.literal(o, lex, dt)
		dtv, ok := t.dtValue[dt]
		if !ok {
			dtv = dt
			t.dtValue[dt] = dtv
		}
		// The record in key order: dt, lang, lex, value.
		props := [4]pg.KV{{Key: t.keys.dt, Value: dtv}}
		n := 1
		if lang != "" {
			props[n] = pg.KV{Key: t.keys.lang, Value: lang}
			n++
		}
		if !lv.canonical {
			props[n] = pg.KV{Key: t.keys.lex, Value: lex}
			n++
		}
		props[n] = pg.KV{Key: t.keys.value, Value: lv.native}
		id = t.store.AddNodeSym([]pg.Sym{label}, props[:n+1]).ID
		t.addValueNode(key, id)
	}
	t.ids[o].value = id
	return id
}

// resourceValue encodes an IRI/blank object that is not an entity.
func (t *Transformer) resourceValue(o rdf.TermID, oT rdf.Term) pg.NodeID {
	if id := t.ids[o].value; id != noNode {
		return id
	}
	key := valueKey(oT)
	var id pg.NodeID
	if cell := t.valueNode(key); cell != nil {
		id = *cell
	} else {
		label := t.store.Intern(t.mapping.EnsureValueLabel(rdf.XSDAnyURI))
		props := [...]pg.KV{{Key: t.keys.res, Value: true}, {Key: t.keys.value, Value: key.lex}}
		id = t.store.AddNodeSym([]pg.Sym{label}, props[:]).ID
		t.addValueNode(key, id)
	}
	t.ids[o].value = id
	return id
}

// nativeValue converts a lexical form into the typed PG value, reporting
// whether formatting the value back yields the exact lexical (canonical).
// Non-canonical values keep their lexical alongside so the inverse mapping
// is exact.
func nativeValue(lex, dt string) (pg.Value, bool) {
	v, err := xsd.Parse(lex, dt)
	if err != nil {
		return lex, false
	}
	switch v.Kind {
	case xsd.KindInt:
		native := v.I
		return native, pg.FormatValue(native) == lex
	case xsd.KindFloat:
		native := v.F
		return native, pg.FormatValue(native) == lex
	case xsd.KindBool:
		return v.B, pg.FormatValue(v.B) == lex
	case xsd.KindTime:
		// Times are stored as their lexical strings; always canonical.
		return lex, true
	default:
		return lex, true
	}
}

// Transform is a convenience: build the transformer, apply the graph, and
// return the property graph with its (possibly extended) schema.
func Transform(g *rdf.Graph, sg *shacl.Schema, mode Mode) (*pg.Store, *pgschema.Schema, error) {
	t, err := TransformWith(context.Background(), g, sg, mode, nil, TransformOptions{})
	if err != nil {
		return nil, nil, err
	}
	return t.Store(), t.Schema(), nil
}

// TransformOptions configures the resilience and performance aspects of a
// full pipeline run.
type TransformOptions struct {
	// Lenient activates the degradation policy (see Transformer.SetLenient).
	Lenient bool
	// Workers sets the data-transform parallelism (see ApplyParallel): values
	// above 1 parse literals on that many goroutines first. The output does
	// not depend on it.
	Workers int
}

// TransformWith runs the pipeline with cancellation and the chosen
// resilience options, returning the transformer so callers can inspect the
// store, the (possibly extended) schema, and the recorded degradations. F_st
// (schema transformation), the F_st↔F_dt correspondence-table build, and
// F_dt's phases each become a child span of span; a nil span traces nothing.
func TransformWith(ctx context.Context, g *rdf.Graph, sg *shacl.Schema, mode Mode, span *obs.Span, opts TransformOptions) (*Transformer, error) {
	fst := span.StartSpan("F_st")
	spg, err := TransformSchemaTraced(sg, mode, fst)
	fst.End()
	if err != nil {
		return nil, err
	}
	mb := span.StartSpan("mapping")
	t, err := NewTransformerForSchema(spg, mode)
	mb.End()
	if err != nil {
		return nil, err
	}
	t.SetLenient(opts.Lenient)
	fdt := span.StartSpan("F_dt")
	err = t.ApplyParallel(ctx, g, opts.Workers, fdt)
	fdt.Count("triples", int64(g.Len()))
	fdt.End()
	if err != nil {
		return nil, err
	}
	return t, nil
}
