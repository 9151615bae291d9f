package core

import (
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/xsd"
)

// Optimize addresses the paper's §7 open question — "the non-parsimonious
// transformation generates large PGs; an open question is how and when to
// optimize them" — by compacting a property graph after the fact: every
// edge label whose instances uniformly target literal value nodes of one
// standard datatype is rewritten into key/value properties on the source
// nodes, value nodes that become orphaned are dropped, and the schema's
// edge types and PG-Keys are replaced by the Table 1 property encoding.
//
// The conversion preserves information: InverseData over the optimized pair
// reconstructs exactly the same RDF graph. Value nodes carrying language
// tags, exact-lexical shadows, or resource markers are never inlined (the
// key/value encoding cannot represent them), so those labels are skipped.
func Optimize(store *pg.Store, spg *pgschema.Schema) (*pg.Store, *pgschema.Schema, error) {
	m, err := BuildMapping(spg)
	if err != nil {
		return nil, nil, err
	}

	// Phase 1: find convertible edge labels.
	type labelInfo struct {
		datatype    string
		convertible bool
		seen        bool
	}
	infos := make(map[string]*labelInfo)
	for ei := 0; ei < store.NumEdges(); ei++ {
		e := store.Edge(pg.EdgeID(ei))
		info := infos[e.Label()]
		if info == nil {
			info = &labelInfo{convertible: true}
			infos[e.Label()] = info
		}
		target := store.Node(e.To)
		if !info.convertible {
			continue
		}
		if e.NumProps() > 0 {
			// RDF-star annotations live on the edge; inlining would drop them.
			info.convertible = false
			continue
		}
		if !m.isValueNode(target) {
			info.convertible = false
			continue
		}
		if target.Prop("lang") != nil {
			info.convertible = false
			continue
		}
		if target.Prop("lex") != nil {
			info.convertible = false
			continue
		}
		if res, _ := target.Prop("res").(bool); res {
			info.convertible = false
			continue
		}
		dt, _ := target.Prop("dt").(string)
		if xsd.FromShortName(xsd.ShortName(dt)) != dt {
			info.convertible = false // datatype would not survive the round trip
			continue
		}
		if !info.seen {
			info.datatype = dt
			info.seen = true
		} else if info.datatype != dt {
			info.convertible = false
		}
	}
	convertible := func(label string) bool {
		info := infos[label]
		return info != nil && info.seen && info.convertible
	}

	// A label is only convertible if no source node type already declares a
	// property under the same key (possible in mixed parsimonious graphs).
	for _, nt := range spg.NodeTypes() {
		for _, p := range nt.Properties {
			if info := infos[p.Key]; info != nil {
				info.convertible = false
			}
		}
	}

	// Phase 2: rebuild the store without converted edges and without value
	// nodes that only converted edges reached.
	needed := make([]bool, store.NumNodes())
	for ni := 0; ni < store.NumNodes(); ni++ {
		n := store.Node(pg.NodeID(ni))
		if !m.isValueNode(n) {
			needed[n.ID] = true
		}
	}
	for ei := 0; ei < store.NumEdges(); ei++ {
		e := store.Edge(pg.EdgeID(ei))
		if !convertible(e.Label()) {
			needed[e.To] = true
			needed[e.From] = true
		}
	}

	out := pg.NewStore()
	remap := make([]pg.NodeID, store.NumNodes())
	for ni := 0; ni < store.NumNodes(); ni++ {
		n := store.Node(pg.NodeID(ni))
		if !needed[n.ID] {
			continue
		}
		remap[n.ID] = out.AddNode(n.Labels(), propMap(n.NumProps(), n.PropAt)).ID
	}
	for ei := 0; ei < store.NumEdges(); ei++ {
		e := store.Edge(pg.EdgeID(ei))
		if convertible(e.Label()) {
			value := store.Node(e.To).Prop("value")
			out.AppendProp(remap[e.From], e.Label(), value)
			continue
		}
		out.AddEdge(remap[e.From], remap[e.To], e.Label(), propMap(e.NumProps(), e.PropAt))
	}

	// Phase 3: rewrite the schema — converted edge types become Table 1
	// key/value properties on their source node types.
	newSchema, err := pgschema.ParseDDL(pgschema.WriteDDL(spg))
	if err != nil {
		return nil, nil, err
	}
	for _, et := range spg.EdgeTypes() {
		if !convertible(et.Label) {
			continue
		}
		src := newSchema.NodeType(et.Source)
		if src == nil {
			continue
		}
		dt := infos[et.Label].datatype
		prop := &pgschema.Property{
			Key:      et.Label,
			Type:     xsd.ShortName(dt),
			Optional: true,
			Array:    true,
			Min:      0,
			Max:      pgschema.Unbounded,
			IRI:      et.IRI,
		}
		// Tighten cardinality from the PG-Key when one exists.
		for _, k := range spg.Keys {
			if k.EdgeLabel != et.Label || k.SourceLabel != src.Label {
				continue
			}
			prop.Optional = k.Min == 0
			prop.Min = k.Min
			if k.Max == 1 {
				prop.Array = false
				prop.Max = 1
			} else {
				prop.Max = k.Max
			}
		}
		if src.Prop(prop.Key) == nil {
			src.Properties = append(src.Properties, prop)
		}
		newSchema.RemoveEdgeType(et.Name)
	}
	newSchema.RemoveKeys(func(k *pgschema.Key) bool { return convertible(k.EdgeLabel) })
	return out, newSchema, nil
}

// propMap collects a record's n properties as the map AddNode and AddEdge read.
func propMap(n int, at func(int) (string, pg.Value)) map[string]pg.Value {
	props := make(map[string]pg.Value, n)
	for i := 0; i < n; i++ {
		k, v := at(i)
		props[k] = v
	}
	return props
}
