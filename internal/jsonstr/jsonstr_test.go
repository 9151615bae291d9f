package jsonstr

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// traps are the bytes the word test must stop at, and the multi-byte
// sequences after which the scan must pick up again: each escaped ASCII
// byte, the bounds of the control range, DEL (which stays literal), a 2-, 3-
// and 4-byte rune, the two line separators JSON escapes, a lone continuation
// byte and a truncated 3-byte sequence.
var traps = []string{
	`"`, `\`, "<", ">", "&",
	"\x00", "\x1f", "\x7f",
	"é", "日", "🜚", "\u2028", "\u2029",
	"\x80", "\xe2\x80",
}

// TestAppendMatchesEncodingJSON holds Append to json.Marshal on plain runs of
// 0 to 24 bytes with one trap at every offset: before, inside and after each
// eight-byte word the scan reads.
func TestAppendMatchesEncodingJSON(t *testing.T) {
	const run = "http://example.org/r_0-9~"
	for _, trap := range traps {
		for n := 0; n <= 24; n++ {
			for off := 0; off <= n; off++ {
				s := run[:off] + trap + run[off:n]
				want, err := json.Marshal(s)
				if err != nil {
					t.Fatal(err)
				}
				if got := Append([]byte("x"), s); !bytes.Equal(got[1:], want) || got[0] != 'x' {
					t.Fatalf("%q: Append gives %s, encoding/json %s", s, got, want)
				}
			}
		}
	}
}

// BenchmarkAppendEscaped is the escape scan alone on the strings a /query
// body is made of: an IRI, a long plain literal, and text that is mostly
// multi-byte runes.
func BenchmarkAppendEscaped(b *testing.B) {
	for _, c := range []struct{ name, s string }{
		{"iri", "http://dbpedia.org/resource/Berlin_Brandenburg_Airport"},
		{"long", strings.Repeat("The quick brown fox jumps over the lazy dog. ", 24)},
		{"runes", strings.Repeat("日本語のテキスト ", 32)},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := make([]byte, 0, 4*len(c.s))
			b.SetBytes(int64(len(c.s)))
			for i := 0; i < b.N; i++ {
				dst = AppendEscaped(dst[:0], c.s)
			}
		})
	}
}
