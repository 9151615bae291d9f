package core

import (
	"fmt"

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
// It is derived entirely from the PG-Schema (BuildMapping), which is what
// makes the inverse mapping M computable from PG and S_PG alone.
//
// During data transformation the mapping may grow: predicates or classes in
// the instance data that the shapes do not cover are given fallback routes,
// extending both the mapping and the underlying PG-Schema (mirroring what a
// shape-extraction pass would have produced).
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
// TransformSchema (or parsed back from its DDL).
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
		extended:     make(map[[2]string]uint64),
	}
	for _, nt := range spg.NodeTypes() {
		if nt.Value {
			m.dtOfValLabel[nt.Label] = nt.Datatype
			if _, ok := m.valLabelOfDT[nt.Datatype]; !ok {
				m.valLabelOfDT[nt.Datatype] = nt.Label
			}
			m.names.Claim("value:"+nt.Datatype, nt.Label)
			continue
		}
		if nt.ClassIRI != "" {
			if prev, ok := m.labelOfClass[nt.ClassIRI]; ok && prev != nt.Label {
				return nil, fmt.Errorf("core: class %s mapped to two labels (%s, %s)", nt.ClassIRI, prev, nt.Label)
			}
			m.labelOfClass[nt.ClassIRI] = nt.Label
			m.classOfLabel[nt.Label] = nt.ClassIRI
			m.names.Claim(nt.ClassIRI, nt.Label)
		}
	}

	// Key/value routes: each node type's effective properties apply to
	// nodes carrying its label.
	for _, nt := range spg.NodeTypes() {
		if nt.Value {
			continue
		}
		for _, p := range spg.EffectiveProperties(nt.Name) {
			if p.IRI == "" {
				continue
			}
			r := &Route{
				Kind: RouteKV, PredIRI: p.IRI, Name: p.Key,
				Datatype: xsd.FromShortName(p.Type),
			}
			m.routes[routeKey{nt.Label, p.IRI}] = r
			m.kvByName[routeKey{nt.Label, p.Key}] = r
			m.names.Claim(p.IRI, p.Key)
		}
	}

	// Edge routes: an edge type sourced at type S applies to nodes of S and
	// of every type inheriting from S.
	descendants := make(map[string][]*pgschema.NodeType)
	for _, nt := range spg.NodeTypes() {
		if nt.Value {
			continue
		}
		seen := make(map[string]bool)
		var walk func(name string)
		walk = func(name string) {
			if seen[name] {
				return
			}
			seen[name] = true
			descendants[name] = append(descendants[name], nt)
			cur := spg.NodeType(name)
			if cur == nil {
				return
			}
			for _, parent := range cur.Extends {
				walk(parent)
			}
		}
		walk(nt.Name)
	}
	// A label serving both as an entity label and a value label would make
	// node classification ambiguous; F_st's naming discipline prevents it,
	// so treat it as corruption.
	for l := range m.dtOfValLabel {
		if _, clash := m.classOfLabel[l]; clash {
			return nil, fmt.Errorf("core: label %q is both a class label and a value label", l)
		}
	}

	for _, et := range spg.EdgeTypes() {
		if et.IRI == "" {
			continue
		}
		if prev, ok := m.predOfEdge[et.Label]; ok && prev != et.IRI {
			return nil, fmt.Errorf("core: edge label %s mapped to two predicates (%s, %s)", et.Label, prev, et.IRI)
		}
		m.predOfEdge[et.Label] = et.IRI
		m.names.Claim(et.IRI, et.Label)
		m.edgeSeen[typeName(et.Label)]++
		for _, nt := range descendants[et.Source] {
			m.routes[routeKey{nt.Label, et.IRI}] = &Route{
				Kind: RouteEdge, PredIRI: et.IRI, Name: et.Label,
			}
		}
		// Edge record keys are RDF-star annotation declarations.
		for _, p := range et.Properties {
			if p.IRI == "" {
				continue
			}
			m.annotPred[p.Key] = p.IRI
			m.annotDT[p.Key] = xsd.FromShortName(p.Type)
			m.names.Claim(p.IRI, p.Key)
		}
	}
	return m, nil
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
	key := m.names.Name(pred)
	if existing, ok := m.annotPred[key]; ok && existing != pred {
		return "", fmt.Errorf("core: annotation key %q already bound to %s", key, existing)
	}
	if dt, ok := m.annotDT[key]; ok && dt != datatype {
		return "", fmt.Errorf("core: annotation %s carries mixed datatypes (%s vs %s)", pred, dt, datatype)
	}
	m.annotPred[key] = pred
	m.annotDT[key] = datatype
	for _, et := range m.spg.EdgeTypesByLabel(edgeLabel) {
		if et.Prop(key) == nil {
			m.rev++
			et.Properties = append(et.Properties, &pgschema.Property{
				Key: key, Type: xsd.ShortName(datatype),
				Optional: true, Array: true, Min: 0, Max: pgschema.Unbounded,
				IRI: pred,
			})
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
	label := m.names.Name(class)
	// The label may collide with an existing type's label only if the namer
	// was seeded inconsistently; AddNodeType would replace, so guard.
	nt := &pgschema.NodeType{Name: typeName(label), Label: label, ClassIRI: class}
	for i := 2; m.spg.NodeType(nt.Name) != nil; i++ {
		label = fmt.Sprintf("%s_%d", m.names.Name(class), i)
		nt = &pgschema.NodeType{Name: typeName(label), Label: label, ClassIRI: class}
	}
	m.spg.AddNodeType(nt)
	m.labelOfClass[class] = label
	m.classOfLabel[label] = class
	m.rev++
	return label
}

// EnsureValueLabel returns the value-node label for a datatype, extending
// the schema with a value node type on first use.
func (m *Mapping) EnsureValueLabel(datatype string) string {
	if l, ok := m.valLabelOfDT[datatype]; ok {
		return l
	}
	label := m.names.Name("value:" + datatype)
	if label == sanitizeName(rdf.LocalName("value:"+datatype)) {
		// Prefer the conventional short name when free.
		short := xsd.ShortName(datatype)
		if _, taken := m.dtOfValLabel[short]; !taken {
			label = short
			m.names.Claim("value:"+datatype, label)
		}
	}
	nt := &pgschema.NodeType{Name: typeName(label), Label: label, Value: true, Datatype: datatype}
	for i := 2; m.spg.NodeType(nt.Name) != nil; i++ {
		nt.Name = fmt.Sprintf("%s_%d", typeName(label), i)
	}
	m.spg.AddNodeType(nt)
	m.dtOfValLabel[nt.Label] = datatype
	m.valLabelOfDT[datatype] = nt.Label
	m.rev++
	return nt.Label
}

// EnsureEdgeRoute returns (creating if needed) an edge route for a predicate
// on subjects with the given label; used for instance data not covered by
// the shapes. The created edge type starts with no targets; targets are
// added as encountered via ExtendEdgeTargets.
func (m *Mapping) EnsureEdgeRoute(label, pred string) *Route {
	if r, ok := m.routes[routeKey{label, pred}]; ok && r.Kind == RouteEdge {
		return r
	}
	edgeLabel := m.names.Name(pred)
	m.predOfEdge[edgeLabel] = pred
	src := m.spg.NodeTypeByLabel(label)
	if src == nil {
		// Label without a node type can only happen for fallback labels,
		// which EnsureClassLabel always declares; create defensively.
		src = &pgschema.NodeType{Name: typeName(label), Label: label}
		m.spg.AddNodeType(src)
	}
	base := typeName(edgeLabel)
	m.edgeSeen[base]++
	name := base
	if n := m.edgeSeen[base]; n > 1 {
		name = fmt.Sprintf("%s_%d", base, n)
	}
	m.spg.AddEdgeType(&pgschema.EdgeType{
		Name: name, Label: edgeLabel, IRI: pred, Source: src.Name,
	})
	r := &Route{Kind: RouteEdge, PredIRI: pred, Name: edgeLabel, Fallback: true}
	m.routes[routeKey{label, pred}] = r
	m.rev++
	return r
}

// EnsureKVEscapeEdge registers the edge realization of a KV-routed property
// for values that cannot be inlined (wrong datatype, language tag, or
// non-canonical lexical). The edge reuses the KV key as its label and an
// edge type is added so the label → predicate correspondence survives in the
// serialized schema — the §4.1.1 monotone response to a property turning out
// to be heterogeneous.
func (m *Mapping) EnsureKVEscapeEdge(sourceLabel string, route *Route) {
	if _, ok := m.predOfEdge[route.Name]; ok {
		return
	}
	m.predOfEdge[route.Name] = route.PredIRI
	m.rev++
	src := m.spg.NodeTypeByLabel(sourceLabel)
	if src == nil {
		return
	}
	base := typeName(route.Name)
	m.edgeSeen[base]++
	name := base
	if n := m.edgeSeen[base]; n > 1 {
		name = fmt.Sprintf("%s_%d", base, n)
	}
	m.spg.AddEdgeType(&pgschema.EdgeType{
		Name: name, Label: route.Name, IRI: route.PredIRI, Source: src.Name,
	})
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
		has := false
		for _, t := range et.Targets {
			if t == target.Name {
				has = true
				break
			}
		}
		if !has {
			et.Targets = append(et.Targets, target.Name)
			m.rev++
		}
	}
}
