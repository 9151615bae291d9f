package core

import (
	"fmt"
	"slices"

	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// RouteKind says how a predicate's triples are realized in the PG.
type RouteKind uint8

const (
	// RouteKV stores values as key/value attributes within the subject node
	// (Algorithm 1, lines 21–23).
	RouteKV RouteKind = iota + 1
	// RouteEdge creates edges, to entity nodes or to literal value nodes
	// (Algorithm 1, lines 16–20 and 24–31).
	RouteEdge
)

// Route is the realization decision for one (source label, predicate) pair.
type Route struct {
	Kind    RouteKind
	PredIRI string
	// Name is the property key (RouteKV) or the edge label (RouteEdge).
	Name string
	// Datatype is the expected literal datatype for RouteKV.
	Datatype string
	// Fallback marks routes invented for predicates the shapes do not
	// cover; their edge types grow targets as the data reveals them.
	Fallback bool
}

type routeKey struct {
	label string
	pred  string
}

// Mapping is the F_st correspondence table: how classes map to labels,
// datatypes to value-node labels, and predicates to keys or edge labels.
// It is a function of the PG-Schema alone (Prop. 4.1, Def. 3.2), which
// makes the inverse mapping M computable from PG and S_PG alone. One rule
// registers every type, read from S_PG by BuildMapping or just added by F_dt
// for data the shapes do not cover (the Ensure* methods), so the DDL of a
// schema the data extended rebuilds the mapping F_dt used.
//
// A node type maps its label to its class or datatype, and routes each of
// its effective properties to a key/value attribute. An edge type maps its
// label to its predicate and declares its properties as RDF-star annotation
// keys. What it routes depends on its kind, read from S_PG:
//   - shape-declared (a PG-Key exists for its source label and edge label):
//     its source and every descendant route the predicate to the edge;
//   - a KV escape edge (no PG-Key, and its source routes the predicate to a
//     key): it carries the values the key cannot hold and routes nothing;
//   - data-extended (any other key-less edge type): a Fallback route for its
//     source label only, whose targets grow as the data reveals them.
type Mapping struct {
	spg *pgschema.Schema

	classOfLabel map[string]string // entity label → class IRI
	labelOfClass map[string]string // class IRI → entity label
	dtOfValLabel map[string]string // value label → datatype IRI
	valLabelOfDT map[string]string // datatype IRI → value label
	predOfEdge   map[string]string // edge label → predicate IRI
	routes       map[routeKey]*Route
	kvByName     map[routeKey]*Route // (label, property key) → KV route
	annotPred    map[string]string   // edge property key → annotation predicate
	annotDT      map[string]string   // edge property key → annotation datatype

	names    *namer
	edgeSeen map[string]int
	// descendants lists by label the node types carrying it or inheriting it.
	descendants map[string][]*pgschema.NodeType
	// extended is the revision at which ExtendEdgeTargets last had each
	// (edge label, target label) pair: until rev moves, nothing is to add.
	extended map[[2]string]uint64

	// rev counts the extensions instance data has made (the Ensure* methods
	// and ExtendEdgeTargets, when they add something): the schema's DDL is
	// the same for as long as rev is, and a statement during whose routing
	// it moves is the first trigger of what was added.
	rev uint64
}

// BuildMapping derives the mapping from a PG-Schema produced by
// TransformSchema (or parsed back from its DDL, extended or not).
func BuildMapping(spg *pgschema.Schema) (*Mapping, error) {
	m := &Mapping{
		spg:          spg,
		classOfLabel: make(map[string]string),
		labelOfClass: make(map[string]string),
		dtOfValLabel: make(map[string]string),
		valLabelOfDT: make(map[string]string),
		predOfEdge:   make(map[string]string),
		routes:       make(map[routeKey]*Route),
		kvByName:     make(map[routeKey]*Route),
		annotPred:    make(map[string]string),
		annotDT:      make(map[string]string),
		names:        newNamer(),
		edgeSeen:     make(map[string]int),
		descendants:  make(map[string][]*pgschema.NodeType),
		extended:     make(map[[2]string]uint64),
	}
	for _, nt := range spg.NodeTypes() {
		if err := m.registerNode(nt); err != nil {
			return nil, err
		}
	}
	for _, et := range spg.EdgeTypes() {
		if err := m.registerEdge(et); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// registerNode is the node type half of the rule.
func (m *Mapping) registerNode(nt *pgschema.NodeType) error {
	// A label serving both as an entity label and a value label would make
	// node classification ambiguous; F_st's naming discipline prevents it,
	// so treat it as corruption.
	_, asClass := m.classOfLabel[nt.Label]
	if _, asValue := m.dtOfValLabel[nt.Label]; nt.Value && asClass || nt.ClassIRI != "" && asValue {
		return fmt.Errorf("core: label %q is both a class label and a value label", nt.Label)
	}
	if nt.Value {
		m.dtOfValLabel[nt.Label] = nt.Datatype
		if _, ok := m.valLabelOfDT[nt.Datatype]; !ok {
			m.valLabelOfDT[nt.Datatype] = nt.Label
		}
		m.names.Claim("value:"+nt.Datatype, nt.Label)
		return nil
	}
	if nt.ClassIRI != "" {
		if prev, ok := m.labelOfClass[nt.ClassIRI]; ok && prev != nt.Label {
			return fmt.Errorf("core: class %s mapped to two labels (%s, %s)", nt.ClassIRI, prev, nt.Label)
		}
		m.labelOfClass[nt.ClassIRI] = nt.Label
		m.classOfLabel[nt.Label] = nt.ClassIRI
		m.names.Claim(nt.ClassIRI, nt.Label)
	}
	for _, l := range m.spg.EffectiveLabels(nt.Name) {
		m.descendants[l] = append(m.descendants[l], nt)
	}
	for _, p := range m.spg.EffectiveProperties(nt.Name) {
		if p.IRI == "" {
			continue
		}
		r := &Route{Kind: RouteKV, PredIRI: p.IRI, Name: p.Key, Datatype: xsd.FromShortName(p.Type)}
		m.routes[routeKey{nt.Label, p.IRI}] = r
		m.kvByName[routeKey{nt.Label, p.Key}] = r
		m.names.Claim(p.IRI, p.Key)
	}
	return nil
}

// registerEdge is the edge type half of the rule; its three kinds are
// told apart from S_PG alone (see Mapping).
func (m *Mapping) registerEdge(et *pgschema.EdgeType) error {
	if et.IRI == "" {
		return nil
	}
	if prev, ok := m.predOfEdge[et.Label]; ok && prev != et.IRI {
		return fmt.Errorf("core: edge label %s mapped to two predicates (%s, %s)", et.Label, prev, et.IRI)
	}
	m.predOfEdge[et.Label] = et.IRI
	m.names.Claim(et.IRI, et.Label)
	m.edgeSeen[typeName(et.Label)]++
	for _, p := range et.Properties {
		m.registerAnnotation(p)
	}
	src := m.spg.NodeType(et.Source)
	if src == nil {
		return nil
	}
	r := &Route{Kind: RouteEdge, PredIRI: et.IRI, Name: et.Label}
	switch kv := m.routes[routeKey{src.Label, et.IRI}]; {
	case slices.ContainsFunc(m.spg.Keys, func(k *pgschema.Key) bool {
		return k.SourceLabel == src.Label && k.EdgeLabel == et.Label
	}):
		for _, nt := range m.descendants[src.Label] {
			m.routes[routeKey{nt.Label, et.IRI}] = r
		}
	case kv != nil && kv.Kind == RouteKV:
	default:
		r.Fallback = true
		m.routes[routeKey{src.Label, et.IRI}] = r
	}
	return nil
}

// registerAnnotation declares an edge record key as an RDF-star annotation.
func (m *Mapping) registerAnnotation(p *pgschema.Property) {
	if p.IRI == "" {
		return
	}
	m.annotPred[p.Key] = p.IRI
	m.annotDT[p.Key] = xsd.FromShortName(p.Type)
	m.names.Claim(p.IRI, p.Key)
}

// grew counts an extension of the schema the rule has registered. The
// Ensure* methods extend F_st output (or its DDL) with names no registered
// type holds, so a registration error there is a defect, not bad data.
func (m *Mapping) grew(err error) {
	if err != nil {
		panic(err)
	}
	m.rev++
}

// addNodeType extends the schema with a node type and registers it.
func (m *Mapping) addNodeType(nt *pgschema.NodeType) {
	m.spg.AddNodeType(nt)
	m.grew(m.registerNode(nt))
}

// addEdgeType extends the schema with a key-less edge type for pred from the
// node type of sourceLabel, and registers it: a data-extended route, or a KV
// escape edge when the source routes pred to a key.
func (m *Mapping) addEdgeType(sourceLabel, edgeLabel, pred string) {
	src := m.spg.NodeTypeByLabel(sourceLabel)
	if src == nil {
		// Only an untyped subject's empty label has no node type.
		src = &pgschema.NodeType{Name: typeName(sourceLabel), Label: sourceLabel}
		m.addNodeType(src)
	}
	name := typeName(edgeLabel)
	if n := m.edgeSeen[name]; n > 0 {
		name = fmt.Sprintf("%s_%d", name, n+1)
	}
	et := &pgschema.EdgeType{Name: name, Label: edgeLabel, IRI: pred, Source: src.Name}
	m.spg.AddEdgeType(et)
	m.grew(m.registerEdge(et))
}

// Annotation resolves an edge property key to its RDF-star annotation
// predicate and datatype.
func (m *Mapping) Annotation(key string) (pred, datatype string, ok bool) {
	pred, ok = m.annotPred[key]
	return pred, m.annotDT[key], ok
}

// EnsureAnnotation registers an RDF-star annotation predicate as an edge
// property key, declaring it on every edge type carrying the label.
func (m *Mapping) EnsureAnnotation(edgeLabel, pred, datatype string) (string, error) {
	key := m.names.free(pred)
	if existing, ok := m.annotPred[key]; ok && existing != pred {
		return "", fmt.Errorf("core: annotation key %q already bound to %s", key, existing)
	}
	if dt, ok := m.annotDT[key]; ok && dt != datatype {
		return "", fmt.Errorf("core: annotation %s carries mixed datatypes (%s vs %s)", pred, dt, datatype)
	}
	for _, et := range m.spg.EdgeTypesByLabel(edgeLabel) {
		if et.Prop(key) == nil {
			p := &pgschema.Property{Key: key, Type: xsd.ShortName(datatype), IRI: pred,
				Optional: true, Array: true, Min: 0, Max: pgschema.Unbounded}
			et.Properties = append(et.Properties, p)
			m.registerAnnotation(p)
			m.rev++
		}
	}
	return key, nil
}

// Schema returns the PG-Schema the mapping was built from (and extends).
func (m *Mapping) Schema() *pgschema.Schema { return m.spg }

// LabelOfClass returns the PG label for a class IRI ("" when unmapped).
func (m *Mapping) LabelOfClass(class string) string { return m.labelOfClass[class] }

// ClassOfLabel returns the class IRI for an entity label ("" when unmapped).
func (m *Mapping) ClassOfLabel(label string) string { return m.classOfLabel[label] }

// DatatypeOfValueLabel returns the datatype IRI of a value-node label.
func (m *Mapping) DatatypeOfValueLabel(label string) (string, bool) {
	dt, ok := m.dtOfValLabel[label]
	return dt, ok
}

// PredOfEdgeLabel returns the predicate IRI of an edge label.
func (m *Mapping) PredOfEdgeLabel(label string) (string, bool) {
	p, ok := m.predOfEdge[label]
	return p, ok
}

// Route resolves the realization of a predicate for a subject carrying the
// given labels, trying each label.
func (m *Mapping) Route(labels []string, pred string) *Route {
	for _, l := range labels {
		if r, ok := m.routes[routeKey{l, pred}]; ok {
			return r
		}
	}
	return nil
}

// KVRoute returns the KV route registered for (label, key), used by the
// inverse mapping to turn node properties back into triples.
func (m *Mapping) KVRoute(labels []string, key string) *Route {
	for _, l := range labels {
		if r, ok := m.kvByName[routeKey{l, key}]; ok {
			return r
		}
	}
	return nil
}

// EnsureClassLabel returns the label for a class, extending the schema with
// a bare node type when the class is not covered by any shape.
func (m *Mapping) EnsureClassLabel(class string) string {
	if l, ok := m.labelOfClass[class]; ok {
		return l
	}
	base := m.names.free(class)
	label := base
	for i := 2; m.spg.NodeType(typeName(label)) != nil || !m.names.freeFor(label, class); i++ {
		label = fmt.Sprintf("%s_%d", base, i)
	}
	m.addNodeType(&pgschema.NodeType{Name: typeName(label), Label: label, ClassIRI: class})
	return label
}

// EnsureValueLabel returns the value-node label for a datatype, extending
// the schema with a value node type on first use.
func (m *Mapping) EnsureValueLabel(datatype string) string {
	if l, ok := m.valLabelOfDT[datatype]; ok {
		return l
	}
	iri := "value:" + datatype
	label := m.names.free(iri)
	if short := xsd.ShortName(datatype); label == sanitizeName(rdf.LocalName(iri)) && m.names.freeFor(short, iri) {
		// Prefer the conventional short name when free.
		label = short
	}
	nt := &pgschema.NodeType{Name: typeName(label), Label: label, Value: true, Datatype: datatype}
	for i := 2; m.spg.NodeType(nt.Name) != nil; i++ {
		nt.Name = fmt.Sprintf("%s_%d", typeName(label), i)
	}
	m.addNodeType(nt)
	return label
}

// EnsureEdgeRoute returns (creating if needed) an edge route for a predicate
// on subjects with the given label; used for instance data not covered by
// the shapes. The created edge type starts with no targets; targets are
// added as encountered via ExtendEdgeTargets.
func (m *Mapping) EnsureEdgeRoute(label, pred string) *Route {
	if r, ok := m.routes[routeKey{label, pred}]; ok && r.Kind == RouteEdge {
		return r
	}
	m.addEdgeType(label, m.names.free(pred), pred)
	return m.routes[routeKey{label, pred}]
}

// EnsureKVEscapeEdge registers the edge realization of a KV-routed property
// for values that cannot be inlined (wrong datatype, language tag, IRI, or
// non-canonical lexical). The edge reuses the KV key as its label, and its
// edge type, sourced at the subject's label that routes the predicate to
// the key, keeps the label → predicate correspondence in the serialized
// schema: the §4.1.1 monotone response to a heterogeneous property.
func (m *Mapping) EnsureKVEscapeEdge(sourceLabels []string, route *Route) {
	if _, ok := m.predOfEdge[route.Name]; ok {
		return
	}
	for _, l := range sourceLabels {
		if m.routes[routeKey{l, route.PredIRI}] == route {
			m.addEdgeType(l, route.Name, route.PredIRI)
			return
		}
	}
}

// ExtendEdgeTargets makes sure every edge type with the label accepts the
// target type (schema evolution for fallback and non-conforming data).
func (m *Mapping) ExtendEdgeTargets(edgeLabel, targetLabel string) {
	pair := [2]string{edgeLabel, targetLabel}
	if rev, ok := m.extended[pair]; ok && rev == m.rev {
		return
	}
	defer func() { m.extended[pair] = m.rev }()
	target := m.spg.NodeTypeByLabel(targetLabel)
	if target == nil {
		return
	}
	for _, et := range m.spg.EdgeTypesByLabel(edgeLabel) {
		if !slices.Contains(et.Targets, target.Name) {
			et.Targets = append(et.Targets, target.Name)
			m.rev++
		}
	}
}
