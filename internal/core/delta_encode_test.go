package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// encodeStrings are the strings the change-record encoder must escape as
// encoding/json does: the HTML-sensitive bytes, the two line separators
// (U+2028, U+2029), control bytes, DEL, invalid UTF-8, and the empty string
// that omitempty drops.
var encodeStrings = []string{
	"", "create", "e:http://example.org/a -[knows]-> e:http://example.org/b",
	"<a href=\"x\">&amp;</a>", "line\xe2\x80\xa8sep\xe2\x80\xa9arator", "\x00\x01\x1f\x7f\b\f\n\r\t",
	"bad \xff\xfe utf8 \xc3", `quote" back\slash /`, "日本語 🜚",
}

// pgDeltaOf builds a delta from fuzzed parts: n nodes and m edges whose
// fields cycle through strs, with some label lists empty or nil and some
// props empty, so every omitempty case is hit.
func pgDeltaOf(lsn uint64, n, m int, count int, strs []string) *PGDelta {
	at := func(i int) string { return strs[i%len(strs)] }
	d := &PGDelta{LSN: lsn, SchemaDDL: at(n + m)}
	for i := 0; i < n; i++ {
		nc := NodeChange{Op: at(i), Key: at(i + 1), Props: at(i + 2)}
		switch i % 3 {
		case 1:
			nc.Labels = []string{}
		case 2:
			nc.Labels = []string{at(i + 3), at(i + 4)}
		}
		d.Nodes = append(d.Nodes, nc)
	}
	for i := 0; i < m; i++ {
		d.Edges = append(d.Edges, EdgeChange{Op: at(i), From: at(i + 1), Label: at(i + 2), To: at(i + 3),
			Props: at(i + 4), Count: count - i})
	}
	if n == 1 {
		d.Nodes = d.Nodes[:0] // empty, not nil: omitted all the same
	}
	return d
}

// checkPGDeltaEncode holds Encode to json.Marshal on d, onto an empty and a
// non-empty buffer.
func checkPGDeltaEncode(t *testing.T, d *PGDelta) {
	t.Helper()
	want, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Encode(nil); !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from json.Marshal\n  Encode: %s\nMarshal: %s", got, want)
	}
	if got := d.Encode([]byte("xy")); !bytes.Equal(got, append([]byte("xy"), want...)) {
		t.Fatal("Encode onto a non-empty buffer differs")
	}
}

func TestPGDeltaEncodeMatchesMarshal(t *testing.T) {
	checkPGDeltaEncode(t, &PGDelta{})
	for n := 0; n < 4; n++ {
		for m := 0; m < 3; m++ {
			for i := range encodeStrings {
				strs := append(append([]string(nil), encodeStrings[i:]...), encodeStrings[:i]...)
				checkPGDeltaEncode(t, pgDeltaOf(uint64(i*n), n, m, i-2, strs))
			}
		}
	}
	// Deltas filled through reflection set every field, a field added to
	// PGDelta, NodeChange or EdgeChange after Encode was written included:
	// Encode must not drop it.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		v, ok := quick.Value(reflect.TypeOf(PGDelta{}), rng)
		if !ok {
			t.Fatal("quick.Value cannot fill a PGDelta")
		}
		d := v.Interface().(PGDelta)
		checkPGDeltaEncode(t, &d)
	}
}

// FuzzPGDeltaEncode holds the append encoder to json.Marshal over deltas
// built from arbitrary strings and counts.
func FuzzPGDeltaEncode(f *testing.F) {
	for i, s := range encodeStrings {
		f.Add(uint64(i), uint8(i%4), uint8(i%3), int64(i-3), s, encodeStrings[(i+1)%len(encodeStrings)])
	}
	f.Fuzz(func(t *testing.T, lsn uint64, n, m uint8, count int64, a, b string) {
		checkPGDeltaEncode(t, pgDeltaOf(lsn, int(n%8), int(m%8), int(count), []string{a, b, "", a + b}))
	})
}
