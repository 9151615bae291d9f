package pg

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
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

var propUnescaper = strings.NewReplacer(
	"\\\\", "\\", "\\g", "\x1d", "\\r", "\x1e", "\\u", "\x1f",
)

// cellByte is what the row encoder does with a byte: 0 copies it, quoteByte
// copies it and makes encoding/csv quote the field, and any other value is
// the letter the cell codec escapes it with, after a backslash (the inverse
// of propUnescaper).
var cellByte = [256]byte{
	'\\': '\\', sepElem: 'g', sepEntry: 'r', sepKV: 'u',
	',': quoteByte, '"': quoteByte, '\r': quoteByte, '\n': quoteByte,
}

const quoteByte = 1

// appendEscaped appends a key or a string payload, escaping the separators,
// and reports whether it holds a byte that makes the CSV field quoted: one
// pass does both.
func appendEscaped(dst []byte, s string) ([]byte, bool) {
	quote := false
	for {
		i := 0
		for i < len(s) && cellByte[s[i]] == 0 {
			i++
		}
		dst = append(dst, s[:i]...)
		if i == len(s) {
			return dst, quote
		}
		if e := cellByte[s[i]]; e == quoteByte {
			dst, quote = append(dst, s[i]), true
		} else {
			dst = append(dst, '\\', e)
		}
		s = s[i+1:]
	}
}

// appendValue appends a tagged value; quote is appendEscaped's, for its
// strings.
func appendValue(dst []byte, v Value, nested bool) (out []byte, quote bool, err error) {
	switch x := v.(type) {
	case string:
		dst, quote = appendEscaped(append(dst, "s:"...), x)
	case int64:
		dst = strconv.AppendInt(append(dst, "i:"...), x, 10)
	case float64:
		dst = strconv.AppendFloat(append(dst, "f:"...), x, 'g', -1, 64)
	case bool:
		dst = strconv.AppendBool(append(dst, "b:"...), x)
	case []Value:
		if nested {
			return dst, false, fmt.Errorf("pg: nested arrays are not supported")
		}
		dst = append(dst, "a:"...)
		for i, e := range x {
			if i > 0 {
				dst = append(dst, sepElem)
			}
			var q bool
			if dst, q, err = appendValue(dst, e, true); err != nil {
				return dst, false, err
			}
			quote = quote || q
		}
	default:
		return dst, false, fmt.Errorf("pg: unsupported property value type %T", v)
	}
	return dst, quote, nil
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

// appendProps appends a record as its cell, walking it in its own order,
// which is key order: exports are byte-deterministic — a rerun's outputs are
// bit-identical to the first run's, and repeated exports are diffable. quote
// reports a byte that makes the CSV field quoted.
func (st *names) appendProps(dst []byte, props []prop) (out []byte, quote bool, err error) {
	for i, p := range props {
		if i > 0 {
			dst = append(dst, sepEntry)
		}
		key := st.names[p.key]
		var qk, qv bool
		dst, qk = appendEscaped(dst, key)
		if dst, qv, err = appendValue(append(dst, sepKV), p.val, false); err != nil {
			return dst, false, fmt.Errorf("property %q: %w", key, err)
		}
		quote = quote || qk || qv
	}
	return dst, quote, nil
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

// WriteCSV exports the store: nodes as (id, labels, props) to nodeW and
// edges as (id, from, to, label, props) to edgeW, each file in rows of
// encoding/csv's syntax. A nil writer's file is not rendered. An encoding
// error stops the export at the failing row, with every row before it
// written; the edges file is not begun when the nodes file fails.
func (s *Store) WriteCSV(nodeW, edgeW io.Writer) error { return s.writeCSV(nodeW, edgeW, 1) }

// writeCSV is the export on up to workers goroutines (WriteCSVParallel).
func (s *Store) writeCSV(nodeW, edgeW io.Writer, workers int) error {
	if nodeW != nil {
		if err := writeRowsParallel(nodeW, s.nodes.Len(), workers, s.appendNodeRow); err != nil {
			return err
		}
	}
	if edgeW != nil {
		return writeRowsParallel(edgeW, s.edges.Len(), workers, s.appendEdgeRow)
	}
	return nil
}

// csvBlockRows is how many rows the export renders into its buffer before it
// writes them: one Write per block, whatever the file size.
const csvBlockRows = 512

// rowFunc appends row i of a file to dst; on an error it returns dst as it
// was.
type rowFunc func(dst []byte, i int) ([]byte, error)

// writeRows writes rows [0, n) block by block through one buffer.
func writeRows(w io.Writer, n int, row rowFunc) error {
	var buf []byte
	for lo := 0; lo < n; lo += csvBlockRows {
		var err error
		buf, err = renderBlock(buf[:0], lo, min(lo+csvBlockRows, n), row)
		if err = writeBlock(w, buf, err); err != nil {
			return err
		}
	}
	return nil
}

// renderBlock appends rows [lo, hi) to dst, stopping at the first that
// fails.
func renderBlock(dst []byte, lo, hi int, row rowFunc) ([]byte, error) {
	for i := lo; i < hi; i++ {
		var err error
		if dst, err = row(dst, i); err != nil {
			return dst, err
		}
	}
	return dst, nil
}

// writeBlock writes what a block rendered — up to its failing row, if any —
// and returns the write's error, else the render's.
func writeBlock(w io.Writer, b []byte, renderErr error) error {
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return renderErr
}

// appendNodeRow and appendEdgeRow append one record's CSV row.
func (s *Store) appendNodeRow(dst []byte, i int) ([]byte, error) {
	n := s.nodes.At(i)
	set := &s.names.sets[n.set]
	if set.sep {
		return dst, fmt.Errorf("pg: node %d: a label in %q contains the separator ';'", i, set.names)
	}
	row := len(dst)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = appendField(append(dst, ','), set.csv)
	dst, err := s.names.appendPropsField(append(dst, ','), n.props)
	if err != nil {
		return dst[:row], fmt.Errorf("pg: node %d: %w", i, err)
	}
	return append(dst, '\n'), nil
}

func (s *Store) appendEdgeRow(dst []byte, i int) ([]byte, error) {
	e := s.edges.At(i)
	row := len(dst)
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = strconv.AppendUint(append(dst, ','), uint64(e.from), 10)
	dst = strconv.AppendUint(append(dst, ','), uint64(e.to), 10)
	dst = appendField(append(dst, ','), s.names.names[e.label])
	dst, err := s.names.appendPropsField(append(dst, ','), e.props)
	if err != nil {
		return dst[:row], fmt.Errorf("pg: edge %d: %w", i, err)
	}
	return append(dst, '\n'), nil
}

// appendField appends a label cell as encoding/csv writes it.
func appendField(dst []byte, s string) []byte {
	quote := false
	for i := 0; i < len(s) && !quote; i++ {
		quote = cellByte[s[i]] == quoteByte
	}
	start := len(dst)
	return quoteField(append(dst, s...), start, quote)
}

// appendPropsField appends a record cell as encoding/csv writes it.
func (st *names) appendPropsField(dst []byte, props []prop) ([]byte, error) {
	start := len(dst)
	dst, quote, err := st.appendProps(dst, props)
	if err != nil {
		return dst, err
	}
	return quoteField(dst, start, quote), nil
}

// quoteField quotes the field dst[start:] where encoding/csv's Writer would:
// when quote says it holds a ',', '"', '\r' or '\n', when it is `\.`, or when
// its first rune is a space (unicode.IsSpace). A quoted field has its '"'
// doubled and its other bytes as they are (the Writer's UseCRLF is off).
func quoteField(dst []byte, start int, quote bool) []byte {
	f := dst[start:]
	if !quote {
		if len(f) == 0 {
			return dst
		}
		if r := rune(f[0]); r >= utf8.RuneSelf {
			r, _ = utf8.DecodeRune(f)
			quote = unicode.IsSpace(r)
		} else {
			quote = asciiSpace[r] || string(f) == `\.`
		}
		if !quote {
			return dst
		}
	}
	q := bytes.Count(f, []byte{'"'})
	end := len(dst)
	dst = slices.Grow(dst, q+2)[:end+q+2]
	// Right to left, so that no byte is overwritten before it is moved.
	j := len(dst) - 1
	dst[j] = '"'
	for i := end - 1; i >= start; i-- {
		j--
		dst[j] = dst[i]
		if dst[i] == '"' {
			j--
			dst[j] = '"'
		}
	}
	dst[start] = '"'
	return dst
}

// asciiSpace is unicode.IsSpace below utf8.RuneSelf.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

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
