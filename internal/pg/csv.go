package pg

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
)

// The CSV bulk format mirrors the pipeline the paper uses to load the
// transformed graphs into a PG DBMS (the enhanced Neo4JWriter emitting CSV
// for neo4j-admin import): one node file and one edge file. Property
// records are serialized with a compact tagged encoding so value types
// survive the round trip; this is the hot path of the Table 4 "loading"
// measurements, so the codec avoids any per-record allocation beyond the
// output itself.
//
// Record syntax (inside one CSV cell):
//
//	record  = entry *( RS entry )
//	entry   = key US value
//	value   = "s:" escaped | "i:" digits | "f:" float | "b:" bool
//	        | "a:" [ element *( GS element ) ]
//	element = value (scalars only; arrays do not nest)
//
// where US/RS/GS are the ASCII unit/record/group separators, escaped in
// string payloads.

const (
	sepEntry = '\x1e' // RS: between key/value entries
	sepKV    = '\x1f' // US: between key and value
	sepElem  = '\x1d' // GS: between array elements
)

var propEscaper = strings.NewReplacer(
	"\\", "\\\\", "\x1d", "\\g", "\x1e", "\\r", "\x1f", "\\u",
)

var propUnescaper = strings.NewReplacer(
	"\\\\", "\\", "\\g", "\x1d", "\\r", "\x1e", "\\u", "\x1f",
)

// appendEscaped appends a key or a string payload, escaping the separators.
func appendEscaped(dst []byte, s string) []byte {
	if strings.ContainsAny(s, "\\\x1d\x1e\x1f") {
		s = propEscaper.Replace(s)
	}
	return append(dst, s...)
}

func appendValue(dst []byte, v Value, nested bool) ([]byte, error) {
	switch x := v.(type) {
	case string:
		dst = appendEscaped(append(dst, "s:"...), x)
	case int64:
		dst = strconv.AppendInt(append(dst, "i:"...), x, 10)
	case float64:
		dst = strconv.AppendFloat(append(dst, "f:"...), x, 'g', -1, 64)
	case bool:
		dst = strconv.AppendBool(append(dst, "b:"...), x)
	case []Value:
		if nested {
			return dst, fmt.Errorf("pg: nested arrays are not supported")
		}
		dst = append(dst, "a:"...)
		for i, e := range x {
			if i > 0 {
				dst = append(dst, sepElem)
			}
			var err error
			if dst, err = appendValue(dst, e, true); err != nil {
				return dst, err
			}
		}
	default:
		return dst, fmt.Errorf("pg: unsupported property value type %T", v)
	}
	return dst, nil
}

func parseValue(s string, nested bool) (Value, error) {
	if len(s) < 2 || s[1] != ':' {
		return nil, fmt.Errorf("pg: malformed value %q", s)
	}
	payload := s[2:]
	switch s[0] {
	case 's':
		if strings.ContainsRune(payload, '\\') {
			return propUnescaper.Replace(payload), nil
		}
		return payload, nil
	case 'i':
		return strconv.ParseInt(payload, 10, 64)
	case 'f':
		return strconv.ParseFloat(payload, 64)
	case 'b':
		return strconv.ParseBool(payload)
	case 'a':
		if nested {
			return nil, fmt.Errorf("pg: nested arrays are not supported")
		}
		if payload == "" {
			return []Value{}, nil
		}
		parts := strings.Split(payload, string(sepElem))
		arr := make([]Value, len(parts))
		for i, p := range parts {
			v, err := parseValue(p, true)
			if err != nil {
				return nil, err
			}
			arr[i] = v
		}
		return arr, nil
	default:
		return nil, fmt.Errorf("pg: unknown value tag %q", s[0])
	}
}

// propEncoder serializes property records, one after another, through a byte
// buffer it keeps between records: an export allocates the encoded strings
// and nothing else per record. The zero value is ready to use; it is not safe
// for concurrent use.
type propEncoder struct{ buf []byte }

// encode walks the record in its own order, which is key order: exports are
// byte-deterministic — a rerun's outputs are bit-identical to the first
// run's, and repeated exports are diffable.
func (pe *propEncoder) encode(st *names, props []prop) (string, error) {
	if len(props) == 0 {
		return "", nil
	}
	buf := pe.buf[:0]
	for i, p := range props {
		if i > 0 {
			buf = append(buf, sepEntry)
		}
		key := st.names[p.key]
		buf = append(appendEscaped(buf, key), sepKV)
		var err error
		if buf, err = appendValue(buf, p.val, false); err != nil {
			return "", fmt.Errorf("property %q: %w", key, err)
		}
	}
	pe.buf = buf
	return string(buf), nil
}

// decodeProps parses a record cell into a record, in key order whatever the
// cell's; a key twice is an error.
func (st *names) decodeProps(cell string) ([]prop, error) {
	if cell == "" {
		return nil, nil
	}
	props := make([]prop, 0, strings.Count(cell, string(sepEntry))+1)
	for len(cell) > 0 {
		e := cell
		if i := strings.IndexByte(cell, sepEntry); i >= 0 {
			e, cell = cell[:i], cell[i+1:]
		} else {
			cell = ""
		}
		i := strings.IndexByte(e, sepKV)
		if i < 0 {
			return nil, fmt.Errorf("pg: malformed property entry %q", e)
		}
		key := e[:i]
		if strings.ContainsRune(key, '\\') {
			key = propUnescaper.Replace(key)
		}
		v, err := parseValue(e[i+1:], false)
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", key, err)
		}
		k := st.intern(key)
		at, found := st.search(props, k)
		if found {
			return nil, fmt.Errorf("property %q occurs twice", key)
		}
		props = slices.Insert(props, at, prop{k, v})
	}
	return props, nil
}

// WriteCSV exports the store: nodes as (id, labels, props) and edges as
// (id, from, to, label, props).
func (s *Store) WriteCSV(nodeW, edgeW io.Writer) error {
	var pe propEncoder
	rec := make([]string, 5)
	if err := writeRows(csv.NewWriter(nodeW), &pe, rec, 0, s.nodes.Len(), s.nodeRow); err != nil {
		return err
	}
	return writeRows(csv.NewWriter(edgeW), &pe, rec, 0, s.edges.Len(), s.edgeRow)
}

// writeRows writes rows [lo, hi) and flushes.
func writeRows(w *csv.Writer, pe *propEncoder, rec []string, lo, hi int, row func(*propEncoder, []string, int) ([]string, error)) error {
	for i := lo; i < hi; i++ {
		fields, err := row(pe, rec, i)
		if err != nil {
			return err
		}
		if err := w.Write(fields); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// nodeRow and edgeRow render one record as the fields of its CSV row.
func (s *Store) nodeRow(pe *propEncoder, rec []string, i int) ([]string, error) {
	n := s.nodes.At(i)
	set := &s.names.sets[n.set]
	if set.sep {
		return nil, fmt.Errorf("pg: node %d: a label in %q contains the separator ';'", i, set.names)
	}
	props, err := pe.encode(&s.names, n.props)
	if err != nil {
		return nil, fmt.Errorf("pg: node %d: %w", i, err)
	}
	rec[0] = strconv.Itoa(i)
	rec[1] = set.csv
	rec[2] = props
	return rec[:3], nil
}

func (s *Store) edgeRow(pe *propEncoder, rec []string, i int) ([]string, error) {
	e := s.edges.At(i)
	props, err := pe.encode(&s.names, e.props)
	if err != nil {
		return nil, fmt.Errorf("pg: edge %d: %w", i, err)
	}
	rec[0] = strconv.Itoa(i)
	rec[1] = strconv.FormatUint(uint64(e.from), 10)
	rec[2] = strconv.FormatUint(uint64(e.to), 10)
	rec[3] = s.names.names[e.label]
	rec[4] = props
	return rec[:5], nil
}

// LoadCSV bulk-imports a store previously exported with WriteCSV, rebuilding
// every index. This is the "loading" phase measured in Table 4. Input that
// WriteCSV cannot have written — an id out of sequence, an edge between
// nodes that are not there, a key twice in one record — is an error naming
// the file and the row.
func LoadCSV(nodeR, edgeR io.Reader) (*Store, error) {
	s := NewStore()
	st := &s.names
	sets := make(map[string]uint32) // labels cell → label set
	err := readRows(nodeR, "nodes", 3, func(rec []string) error {
		set, ok := sets[rec[1]]
		if !ok {
			for _, l := range strings.Split(rec[1], ";") {
				if l != "" {
					set = st.with(set, st.intern(l))
				}
			}
			sets[strings.Clone(rec[1])] = set
		}
		props, err := st.decodeProps(rec[2])
		if err == nil {
			s.addNode(set, props)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	err = readRows(edgeR, "edges", 5, func(rec []string) error {
		from, err := strconv.ParseUint(rec[1], 10, 32)
		if err != nil {
			return fmt.Errorf("bad from id %q", rec[1])
		}
		to, err := strconv.ParseUint(rec[2], 10, 32)
		if err != nil {
			return fmt.Errorf("bad to id %q", rec[2])
		}
		if n := uint64(s.NumNodes()); from >= n || to >= n {
			return fmt.Errorf("endpoint out of range: %d -> %d (have %d nodes)", from, to, n)
		}
		props, err := st.decodeProps(rec[4])
		if err == nil {
			s.addEdge(NodeID(from), NodeID(to), st.intern(rec[3]), props)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// readRows feeds the rows of one export file to row. The id column must count
// up from 0: ids are positions. Every error names the file and the row's id.
func readRows(r io.Reader, file string, fields int, row func(rec []string) error) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = fields
	cr.ReuseRecord = true
	var id [20]byte
	for i := int64(0); ; i++ {
		rec, err := cr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("pg: %s csv: %w", file, err)
		}
		if rec[0] != string(strconv.AppendInt(id[:0], i, 10)) {
			return fmt.Errorf("pg: %s csv: non-contiguous id %s (row %d)", file, rec[0], i)
		}
		if err := row(rec); err != nil {
			return fmt.Errorf("pg: %s csv id %s: %w", file, rec[0], err)
		}
	}
}

// Equal reports whether two stores are isomorphic under the identity mapping
// of creation order: same nodes (labels and records) and same edges in order.
// The transformation pipeline is deterministic, so order-sensitive equality
// is the right notion for its tests.
func (s *Store) Equal(o *Store) bool {
	if s.NumNodes() != o.NumNodes() || s.NumEdges() != o.NumEdges() {
		return false
	}
	for i := 0; i < s.nodes.Len(); i++ {
		n, m := s.Node(NodeID(i)), o.Node(NodeID(i))
		if !slices.Equal(n.Labels(), m.Labels()) || !propsEqual(n.record, m.record) {
			return false
		}
	}
	for i := 0; i < s.edges.Len(); i++ {
		e, f := s.Edge(EdgeID(i)), o.Edge(EdgeID(i))
		if e.From != f.From || e.To != f.To || e.Label() != f.Label() || !propsEqual(e.record, f.record) {
			return false
		}
	}
	return true
}

// propsEqual compares two records, each in key order, entry by entry.
func propsEqual(a, b record) bool {
	if len(a.props) != len(b.props) {
		return false
	}
	for i := range a.props {
		ka, va := a.PropAt(i)
		kb, vb := b.PropAt(i)
		if ka != kb || !ValueEqual(va, vb) {
			return false
		}
	}
	return true
}
