package pg

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
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

func parseValue(s string) (Value, error) {
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
		if payload == "" {
			return []Value{}, nil
		}
		parts := strings.Split(payload, string(sepElem))
		arr := make([]Value, len(parts))
		for i, p := range parts {
			v, err := parseValue(p)
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

// propEncoder serializes property records, one after another, through a key
// list and a byte buffer it keeps between records: an export allocates the
// encoded strings and nothing else per record. The zero value is ready to
// use; it is not safe for concurrent use.
type propEncoder struct {
	keys []string
	buf  []byte
}

func (pe *propEncoder) encode(props map[string]Value) (string, error) {
	if len(props) == 0 {
		return "", nil
	}
	// Keys are emitted in sorted order so exports are byte-deterministic:
	// the crash-resume equivalence guarantee (a resumed run's outputs are
	// bit-identical to an uninterrupted run's) depends on it, and it makes
	// repeated exports diffable.
	keys := pe.keys[:0]
	for k := range props {
		keys = append(keys, k)
	}
	if len(keys) > 1 {
		sort.Strings(keys)
	}
	pe.keys = keys
	buf := pe.buf[:0]
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, sepEntry)
		}
		buf = append(appendEscaped(buf, k), sepKV)
		var err error
		if buf, err = appendValue(buf, props[k], false); err != nil {
			return "", fmt.Errorf("property %q: %w", k, err)
		}
	}
	pe.buf = buf
	return string(buf), nil
}

func decodeProps(s string) (map[string]Value, error) {
	if s == "" {
		return map[string]Value{}, nil
	}
	entries := strings.Split(s, string(sepEntry))
	props := make(map[string]Value, len(entries))
	for _, e := range entries {
		i := strings.IndexByte(e, sepKV)
		if i < 0 {
			return nil, fmt.Errorf("pg: malformed property entry %q", e)
		}
		key := e[:i]
		if strings.ContainsRune(key, '\\') {
			key = propUnescaper.Replace(key)
		}
		v, err := parseValue(e[i+1:])
		if err != nil {
			return nil, fmt.Errorf("property %q: %w", key, err)
		}
		props[key] = v
	}
	return props, nil
}

// WriteCSV exports the store: nodes as (id, labels, props) and edges as
// (id, from, to, label, props).
func (s *Store) WriteCSV(nodeW, edgeW io.Writer) error {
	var pe propEncoder
	nw := csv.NewWriter(nodeW)
	rec := make([]string, 3)
	for i := 0; i < s.nodes.Len(); i++ {
		n := s.nodes.At(i)
		props, err := pe.encode(n.Props)
		if err != nil {
			return fmt.Errorf("pg: node %d: %w", n.ID, err)
		}
		rec[0] = strconv.FormatUint(uint64(n.ID), 10)
		rec[1] = strings.Join(n.Labels, ";")
		rec[2] = props
		if err := nw.Write(rec); err != nil {
			return err
		}
	}
	nw.Flush()
	if err := nw.Error(); err != nil {
		return err
	}

	ew := csv.NewWriter(edgeW)
	erec := make([]string, 5)
	for i := 0; i < s.edges.Len(); i++ {
		e := s.edges.At(i)
		props, err := pe.encode(e.Props)
		if err != nil {
			return fmt.Errorf("pg: edge %d: %w", e.ID, err)
		}
		erec[0] = strconv.FormatUint(uint64(e.ID), 10)
		erec[1] = strconv.FormatUint(uint64(e.From), 10)
		erec[2] = strconv.FormatUint(uint64(e.To), 10)
		erec[3] = e.Label
		erec[4] = props
		if err := ew.Write(erec); err != nil {
			return err
		}
	}
	ew.Flush()
	return ew.Error()
}

// LoadCSV bulk-imports a store previously exported with WriteCSV, rebuilding
// every index. This is the "loading" phase measured in Table 4.
func LoadCSV(nodeR, edgeR io.Reader) (*Store, error) {
	s := NewStore()
	nr := csv.NewReader(nodeR)
	nr.FieldsPerRecord = 3
	nr.ReuseRecord = true
	for {
		rec, err := nr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pg: nodes csv: %w", err)
		}
		props, err := decodeProps(rec[2])
		if err != nil {
			return nil, fmt.Errorf("pg: nodes csv id %s: %w", rec[0], err)
		}
		var labels []string
		if rec[1] != "" {
			labels = strings.Split(rec[1], ";")
		}
		n := s.AddNode(labels, props)
		if got := strconv.FormatUint(uint64(n.ID), 10); got != rec[0] {
			return nil, fmt.Errorf("pg: nodes csv: non-contiguous id %s (assigned %s)", rec[0], got)
		}
	}

	er := csv.NewReader(edgeR)
	er.FieldsPerRecord = 5
	er.ReuseRecord = true
	for {
		rec, err := er.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pg: edges csv: %w", err)
		}
		from, err := strconv.ParseUint(rec[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pg: edges csv: bad from id %q", rec[1])
		}
		to, err := strconv.ParseUint(rec[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("pg: edges csv: bad to id %q", rec[2])
		}
		props, err := decodeProps(rec[4])
		if err != nil {
			return nil, fmt.Errorf("pg: edges csv id %s: %w", rec[0], err)
		}
		s.AddEdge(NodeID(from), NodeID(to), rec[3], props)
	}
	return s, nil
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
		n, m := s.nodes.At(i), o.nodes.At(i)
		if len(n.Labels) != len(m.Labels) {
			return false
		}
		for j := range n.Labels {
			if n.Labels[j] != m.Labels[j] {
				return false
			}
		}
		if !propsEqual(n.Props, m.Props) {
			return false
		}
	}
	for i := 0; i < s.edges.Len(); i++ {
		e, f := s.edges.At(i), o.edges.At(i)
		if e.From != f.From || e.To != f.To || e.Label != f.Label || !propsEqual(e.Props, f.Props) {
			return false
		}
	}
	return true
}

func propsEqual(a, b map[string]Value) bool {
	if len(a) != len(b) {
		return false
	}
	for k, va := range a {
		vb, ok := b[k]
		if !ok || !ValueEqual(va, vb) {
			return false
		}
	}
	return true
}
