package core

import (
	"context"
	"fmt"
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

// Degradation records one statement the lenient policy could not realize
// faithfully: it was either skipped (unrepresentable) or coerced through the
// documented fallback (generic label, string-coerced value).
type Degradation struct {
	// Reason says which fallback applied or why the statement was skipped.
	Reason string
	// Triple is the statement concerned.
	Triple rdf.Triple
}

// String renders the degradation for diagnostics.
func (d Degradation) String() string { return fmt.Sprintf("%s: %v", d.Reason, d.Triple) }

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

	nodeOf  map[rdf.Term]pg.NodeID // Ψ_ETD companion: entity → PG node
	valNode map[valKey]pg.NodeID   // literal/resource value → value node
	// edgeOf indexes statement → PG edge, enabling RDF-star annotations
	// (quoted-triple subjects) to attach to the statement's edge.
	edgeOf map[rdf.Term]pg.EdgeID

	// lastEntity short-circuits the nodeOf lookup for runs of triples with
	// the same subject — serializations group triples by subject, so this
	// removes a term-hash per triple on the hot path.
	lastEntity rdf.Term
	lastNode   pg.NodeID

	// kvProps counts key/value-inlined literals for span accounting (plain
	// int: Apply is single-goroutine).
	kvProps int64

	// lenient enables the degradation policy: statements that strict mode
	// rejects are realized through documented fallbacks or skipped and
	// recorded instead of aborting the transformation.
	lenient       bool
	degraded      []Degradation
	degradedCount int64
}

// valKey identifies a value node: the exact lexical, datatype, language tag,
// and whether it encodes an untyped resource rather than a literal.
type valKey struct {
	lex  string
	dt   string
	lang string
	res  bool
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

// NewTransformerForSchema returns a transformer for an existing PG-Schema
// (for example one parsed back from DDL).
func NewTransformerForSchema(spg *pgschema.Schema, mode Mode) (*Transformer, error) {
	m, err := BuildMapping(spg)
	if err != nil {
		return nil, err
	}
	return &Transformer{
		mode:    mode,
		mapping: m,
		store:   pg.NewStore(),
		nodeOf:  make(map[rdf.Term]pg.NodeID),
		valNode: make(map[valKey]pg.NodeID),
		edgeOf:  make(map[rdf.Term]pg.EdgeID),
	}, nil
}

// Mode returns the transformation mode.
func (t *Transformer) Mode() Mode { return t.mode }

// SetLenient switches the degradation policy on or off. With it on, Apply
// keeps transforming dirty inputs: untyped subjects get the GenericClass
// label, literal rdf:type objects are string-coerced into ordinary property
// statements, and unrepresentable statements (typed or object-position
// quoted triples, malformed annotations) are skipped — each case recorded as
// a Degradation and counted in the core.transform.degraded counter.
func (t *Transformer) SetLenient(on bool) { t.lenient = on }

// Lenient reports whether the degradation policy is active.
func (t *Transformer) Lenient() bool { return t.lenient }

// Degradations returns the recorded degradation details, capped at
// maxRetainedDegradations entries (DegradedCount keeps the full tally).
func (t *Transformer) Degradations() []Degradation { return t.degraded }

// DegradedCount returns how many statements were degraded or skipped.
func (t *Transformer) DegradedCount() int64 { return t.degradedCount }

// degrade records one statement handled by the degradation policy.
func (t *Transformer) degrade(reason string, tr rdf.Triple) {
	t.degradedCount++
	cTransformDegrade.Inc()
	if len(t.degraded) < maxRetainedDegradations {
		t.degraded = append(t.degraded, Degradation{Reason: reason, Triple: tr})
	}
}

// Store returns the property graph built so far.
func (t *Transformer) Store() *pg.Store { return t.store }

// Schema returns the PG-Schema (possibly extended by fallback routes).
func (t *Transformer) Schema() *pgschema.Schema { return t.mapping.Schema() }

// Mapping returns the F_st correspondence table.
func (t *Transformer) Mapping() *Mapping { return t.mapping }

// Apply converts the triples of g into the property graph. Calling it on an
// initial graph performs the full transformation; calling it again on a
// delta graph performs the monotone incremental update: existing nodes are
// reused and only elements for new triples are created.
func (t *Transformer) Apply(g *rdf.Graph) error {
	return t.ApplyTraced(g, nil)
}

// ApplyTraced is Apply recording Algorithm 1's two phases (and the deferred
// RDF-star annotation pass) as child spans with per-phase element counts.
// A nil span disables tracing at no cost; the Default-registry transform
// meters are always fed.
func (t *Transformer) ApplyTraced(g *rdf.Graph, span *obs.Span) error {
	return t.ApplyContext(context.Background(), g, span)
}

// ctxCheckInterval is how many triples each phase processes between context
// cancellation checks.
const ctxCheckInterval = 4096

// ApplyContext is ApplyTraced with cancellation: each phase checks ctx every
// ctxCheckInterval triples and aborts with ctx.Err() when it ends, leaving
// the store in a consistent (if partial) state.
func (t *Transformer) ApplyContext(ctx context.Context, g *rdf.Graph, span *obs.Span) error {
	nodes0, edges0 := t.store.NumNodes(), t.store.NumEdges()
	start := time.Now()
	defer func() {
		elapsed := time.Since(start)
		mTransformNodes.Observe(int64(t.store.NumNodes()-nodes0), elapsed)
		mTransformEdges.Observe(int64(t.store.NumEdges()-edges0), elapsed)
	}()

	// Phase 1 (Algorithm 1, lines 4–14): collect entity types and create
	// PG nodes with labels and the iri key. Under the lenient policy,
	// malformed typing statements degrade instead of aborting: literal
	// rdf:type objects are deferred to phase 2 as ordinary (string-coerced)
	// property statements, typed quoted triples are skipped.
	p1 := span.StartSpan("phase1.types")
	typeTriples, seen := int64(0), 0
	typePred := rdf.A
	var err error
	var coerced []rdf.Triple
	g.Match(nil, &typePred, nil, func(tr rdf.Triple) bool {
		if seen%ctxCheckInterval == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		seen++
		typeTriples++
		if tr.S.IsTripleTerm() {
			if t.lenient {
				t.degrade("skipped: quoted triples cannot be typed", tr)
				return true
			}
			err = fmt.Errorf("core: quoted triples cannot be typed: %v", tr)
			return false
		}
		if !tr.O.IsIRI() {
			if t.lenient {
				t.degrade("coerced: rdf:type object is not an IRI, realized as a property statement", tr)
				coerced = append(coerced, tr)
				return true
			}
			err = fmt.Errorf("core: rdf:type object %v is not an IRI", tr.O)
			return false
		}
		id := t.ensureEntityNode(tr.S)
		label := t.mapping.LabelOfClass(tr.O.Value)
		if label == "" {
			label = t.mapping.EnsureClassLabel(tr.O.Value)
		}
		t.store.AddLabel(id, label)
		return true
	})
	p1.Count("type_triples", typeTriples)
	p1.Count("nodes_created", int64(t.store.NumNodes()-nodes0))
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
	g.ForEach(func(tr rdf.Triple) bool {
		if seen%ctxCheckInterval == 0 {
			if err = ctx.Err(); err != nil {
				return false
			}
		}
		seen++
		if tr.P == rdf.A {
			return true
		}
		if tr.S.IsTripleTerm() {
			annotations = append(annotations, tr)
			return true
		}
		err = t.applyTriple(tr)
		if err != nil && t.lenient {
			t.degrade("skipped: "+err.Error(), tr)
			err = nil
		}
		return err == nil
	})
	if err == nil {
		// Deferred literal-typed statements from phase 1 (lenient only):
		// realized like any other property statement, so the information is
		// preserved as a string-coerced value node.
		for _, tr := range coerced {
			if aerr := t.applyTriple(tr); aerr != nil {
				t.degrade("skipped: "+aerr.Error(), tr)
			}
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

// applyTriple routes one non-type triple.
func (t *Transformer) applyTriple(tr rdf.Triple) error {
	if tr.O.IsTripleTerm() {
		return fmt.Errorf("core: quoted triples in object position are not supported: %v", tr)
	}
	sid := t.ensureEntityNode(tr.S)
	sLabels := t.store.Node(sid).Labels
	if len(sLabels) == 0 && t.lenient {
		// Degradation policy: a subject with no rdf:type (hence no shape)
		// gets the generic rdfs:Resource label so its properties attach to a
		// labelled node; routes fall back to data-extended edge types.
		t.degrade("generic label: subject has no rdf:type, labelled as rdfs:Resource", tr)
		t.store.AddLabel(sid, t.mapping.EnsureClassLabel(GenericClass))
		sLabels = t.store.Node(sid).Labels
	}
	route := t.mapping.Route(sLabels, tr.P.Value)

	// Case 1 (lines 16–20): the object is a known entity → entity edge.
	if tr.O.IsResource() {
		var oid pg.NodeID
		if known, ok := t.nodeOf[tr.O]; ok {
			oid = known
		} else {
			// An IRI or blank object never declared as an entity: encode it
			// as a resource value node so no information is dropped.
			oid = t.ensureResourceValueNode(tr.O)
		}
		label, fallback := t.edgeLabelFor(route, sLabels, tr.P.Value)
		e := t.store.AddEdge(sid, oid, label, nil)
		t.registerStatementEdge(tr, e.ID)
		if fallback {
			t.extendTargets(label, oid)
		}
		return nil
	}

	// The object is a literal.
	lex, dt, lang := tr.O.Value, tr.O.DatatypeIRI(), tr.O.Lang

	// Case 2 (lines 21–23): parsimonious key/value encoding, applicable when
	// the route says KV and the literal's datatype matches canonically.
	if route != nil && route.Kind == RouteKV && lang == "" && dt == route.Datatype {
		if native, canonical := nativeValue(lex, dt); canonical {
			t.store.AppendProp(sid, route.Name, native)
			t.kvProps++
			return nil
		}
	}

	// Case 3 (lines 24–31): literal value node plus edge.
	oid := t.ensureLiteralValueNode(lex, dt, lang)
	label, fallback := t.edgeLabelFor(route, sLabels, tr.P.Value)
	e := t.store.AddEdge(sid, oid, label, nil)
	t.registerStatementEdge(tr, e.ID)
	if fallback {
		t.extendTargets(label, oid)
	}
	return nil
}

// registerStatementEdge indexes the edge under its statement so RDF-star
// annotations can find it.
func (t *Transformer) registerStatementEdge(tr rdf.Triple, id pg.EdgeID) {
	key, err := rdf.NewTripleTerm(tr)
	if err != nil {
		return // exotic terms cannot be annotated; nothing to register
	}
	t.edgeOf[key] = id
}

// applyAnnotation attaches an RDF-star annotation << s p o >> a v to the PG
// edge realizing the statement (s, p, o), as an edge property. Annotation
// values must be literals of a standard datatype in canonical form — the
// edge record is the PG-native representation of statement metadata and,
// like key/value node properties, cannot carry language tags or exotic
// lexicals.
func (t *Transformer) applyAnnotation(tr rdf.Triple) error {
	eid, ok := t.edgeOf[tr.S]
	if !ok {
		base, _ := tr.S.AsTriple()
		return fmt.Errorf("core: annotated statement %v is not realized as an edge "+
			"(missing from the data, or key/value-routed — use the non-parsimonious mode)", base)
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
	key, err := t.mapping.EnsureAnnotation(t.store.Edge(eid).Label, tr.P.Value, dt)
	if err != nil {
		return err
	}
	t.store.AppendEdgeProp(eid, key, native)
	return nil
}

// extendTargets widens a fallback edge type to accept the target node's
// first label (schema evolution driven by uncovered data).
func (t *Transformer) extendTargets(edgeLabel string, target pg.NodeID) {
	labels := t.store.Node(target).Labels
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
	label := ""
	if len(sLabels) > 0 {
		label = sLabels[0]
	}
	if route != nil {
		if route.Kind == RouteKV {
			// Values escaping the KV encoding need the label → predicate
			// correspondence recorded in the schema for the inverse mapping.
			t.mapping.EnsureKVEscapeEdge(label, route)
		}
		return route.Name, route.Fallback
	}
	r := t.mapping.EnsureEdgeRoute(label, pred)
	return r.Name, true
}

// ensureEntityNode returns the PG node for an entity, creating it with its
// iri key on first sight (Algorithm 1, lines 9–14).
func (t *Transformer) ensureEntityNode(e rdf.Term) pg.NodeID {
	if e == t.lastEntity {
		return t.lastNode
	}
	id, ok := t.nodeOf[e]
	if !ok {
		n := t.store.AddNode(nil, map[string]pg.Value{"iri": termIRI(e)})
		id = n.ID
		t.nodeOf[e] = id
	}
	t.lastEntity, t.lastNode = e, id
	return id
}

// termIRI encodes a resource term as the iri property value.
func termIRI(e rdf.Term) string {
	if e.IsBlank() {
		return "_:" + e.Value
	}
	return e.Value
}

// ensureLiteralValueNode returns (deduplicated) the value node encoding a
// literal: label from the datatype, value as a typed scalar, plus dt/lang
// bookkeeping and the exact lexical when formatting would lose it.
func (t *Transformer) ensureLiteralValueNode(lex, dt, lang string) pg.NodeID {
	key := valKey{lex: lex, dt: dt, lang: lang}
	if id, ok := t.valNode[key]; ok {
		return id
	}
	label := t.mapping.EnsureValueLabel(dt)
	props := map[string]pg.Value{"dt": dt}
	native, canonical := nativeValue(lex, dt)
	props["value"] = native
	if !canonical {
		props["lex"] = lex
	}
	if lang != "" {
		props["lang"] = lang
	}
	n := t.store.AddNode([]string{label}, props)
	t.valNode[key] = n.ID
	return n.ID
}

// ensureResourceValueNode encodes an IRI/blank object that is not an entity.
func (t *Transformer) ensureResourceValueNode(o rdf.Term) pg.NodeID {
	key := valKey{lex: termIRI(o), res: true}
	if id, ok := t.valNode[key]; ok {
		return id
	}
	label := t.mapping.EnsureValueLabel(rdf.XSDAnyURI)
	n := t.store.AddNode([]string{label}, map[string]pg.Value{
		"value": termIRI(o),
		"res":   true,
	})
	t.valNode[key] = n.ID
	return n.ID
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
	return TransformTraced(g, sg, mode, nil)
}

// TransformTraced is Transform with the whole pipeline traced under span:
// F_st (schema transformation), the F_st↔F_dt correspondence-table build,
// and F_dt's phases each become child spans. A nil span runs the exact
// uninstrumented path.
func TransformTraced(g *rdf.Graph, sg *shacl.Schema, mode Mode, span *obs.Span) (*pg.Store, *pgschema.Schema, error) {
	t, err := TransformWith(context.Background(), g, sg, mode, span, TransformOptions{})
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
	// Workers sets the data-transform parallelism. Values <= 1 run the exact
	// sequential path; higher values run ApplyParallel, whose output is
	// byte-identical to the sequential transform.
	Workers int
}

// TransformWith runs the traced pipeline with cancellation and the chosen
// resilience options, returning the transformer so callers can inspect the
// store, the (possibly extended) schema, and the recorded degradations.
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
	if opts.Workers > 1 {
		err = t.ApplyParallel(ctx, g, opts.Workers, fdt)
	} else {
		err = t.ApplyContext(ctx, g, fdt)
	}
	fdt.Count("triples", int64(g.Len()))
	fdt.End()
	if err != nil {
		return nil, err
	}
	return t, nil
}
