package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

// Body is the /query body as a client decodes it, and the one statement of
// its schema: AppendJSON writes these fields in this order, and its tests
// hold it to what encoding/json makes of a Body. Nothing on the serving path
// encodes through it.
type Body struct {
	Graph     string   `json:"graph,omitempty"`
	Job       string   `json:"job,omitempty"`
	Lang      string   `json:"lang"`
	LSN       uint64   `json:"lsn"`
	Cache     string   `json:"cache"`
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Truncated bool     `json:"truncated,omitempty"`
}

// AppendJSON appends the response as the /query body: byte for byte what
// encoding/json's Encoder with SetIndent("", "  ") writes for the Body of
// this response — its HTML-safe string escaping, its float formatting and
// its trailing newline included — but straight from the typed answer: no
// [][]any, no reflection, no second pass to indent. A value JSON cannot
// carry (NaN, ±Inf) is the same error encoding/json reports.
func (r *Response) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, '{')
	if r.Graph != "" {
		dst = append(appendString(append(dst, "\n  \"graph\": "...), r.Graph), ',')
	}
	if r.Job != "" {
		dst = append(appendString(append(dst, "\n  \"job\": "...), r.Job), ',')
	}
	dst = appendString(append(dst, "\n  \"lang\": "...), r.Lang)
	dst = strconv.AppendUint(append(dst, ",\n  \"lsn\": "...), r.LSN, 10)
	dst = appendString(append(dst, ",\n  \"cache\": "...), r.Cache)
	dst = append(dst, ",\n  \"columns\": "...)
	if r.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Columns {
			dst = appendString(appendBreak(dst, i, 2), c)
		}
		dst = appendClose(dst, len(r.Columns), 1)
	}
	dst = append(dst, ",\n  \"rows\": ["...)
	n, w := r.Len(), len(r.Columns)
	for i := 0; i < n; i++ {
		dst = append(appendBreak(dst, i, 2), '[')
		for j := 0; j < w; j++ {
			dst = appendBreak(dst, j, 3)
			if r.cypher == nil {
				kind, value := r.sparql.View(i, j)
				dst = appendTerm(dst, kind, value)
				continue
			}
			var err error
			if dst, err = appendValue(dst, r.cypher.Row(i)[j], 3); err != nil {
				return dst, err
			}
		}
		dst = appendClose(dst, w, 2)
	}
	dst = appendClose(dst, n, 1)
	if r.Truncated {
		dst = append(dst, ",\n  \"truncated\": true"...)
	}
	return append(dst, "\n}\n"...), nil
}

const spaces = "                " // eight levels of indentation

// appendBreak starts array element i at the given depth: a comma after the
// previous element, then a new line indented to depth.
func appendBreak(dst []byte, i, depth int) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	dst = append(dst, '\n')
	for ; depth > 8; depth -= 8 {
		dst = append(dst, spaces...)
	}
	return append(dst, spaces[:2*depth]...)
}

// appendClose ends an array of n elements whose bracket sits at depth; the
// empty array stays on one line.
func appendClose(dst []byte, n, depth int) []byte {
	if n > 0 {
		dst = appendBreak(dst, 0, depth)
	}
	return append(dst, ']')
}

// appendTerm writes a SPARQL cell from its term's kind and value: the
// canonical string tr(µ), kind for kind what sparql.CanonicalTerm returns.
func appendTerm(dst []byte, kind rdf.Kind, value string) []byte {
	switch kind {
	case rdf.IRI, rdf.Literal:
		return appendString(dst, value)
	case rdf.Blank:
		return append(appendEscaped(append(dst, `"_:`...), value), '"')
	default:
		// An unbound variable, and a quoted triple: its Value is the
		// dictionary's internal key, which never leaves the process.
		return append(dst, `""`...)
	}
}

// appendValue writes a property value at the given depth (of the line it
// starts on); lists nest one element per line like every other array.
func appendValue(dst []byte, v pg.Value, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, "null"...), nil
	case string:
		return appendString(dst, x), nil
	case int64:
		return strconv.AppendInt(dst, x, 10), nil
	case bool:
		return strconv.AppendBool(dst, x), nil
	case float64:
		return appendFloat(dst, x)
	case []pg.Value:
		dst = append(dst, '[')
		for i, e := range x {
			var err error
			if dst, err = appendValue(appendBreak(dst, i, depth+1), e, depth+1); err != nil {
				return dst, err
			}
		}
		return appendClose(dst, len(x), depth), nil
	default:
		// Not a type a store holds; whatever it is, encoding/json decides.
		b, err := json.Marshal(v)
		if err != nil {
			return dst, err
		}
		var out bytes.Buffer
		if err := json.Indent(&out, b, strings.Repeat("  ", depth), "  "); err != nil {
			return dst, err
		}
		return append(dst, out.Bytes()...), nil
	}
}

// appendFloat formats like encoding/json (ES6 number-to-string): %f unless
// the exponent is below -6 or at least 21, then %e with the exponent's
// leading zero dropped.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs, format := math.Abs(f), byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hex = "0123456789abcdef"

// plain marks the bytes appendString copies as they are: ASCII from space
// up, except the quote, the backslash and the three HTML-sensitive bytes.
var plain = func() (t [256]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return
}()

// appendString quotes s like encoding/json with HTML escaping on.
func appendString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// appendEscaped is the inside of a JSON string: the control characters,
// '"', '\\', '<', '>', '&', U+2028 and U+2029 are escaped, invalid UTF-8
// becomes U+FFFD. A run of plain bytes is found eight bytes at a time, its
// last few through the table, and copied with one append.
func appendEscaped(dst []byte, s string) []byte {
	start, i := 0, 0
	for {
		for i+8 <= len(s) && plainWord(load64(s[i:])) {
			i += 8
		}
		for i < len(s) && plain[s[i]] {
			i++
		}
		if i == len(s) {
			break
		}
		b := s[i]
		if b < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		for i < len(s) && s[i] >= utf8.RuneSelf { // a run of runes past ASCII
			c, size := utf8.DecodeRuneInString(s[i:])
			switch {
			case c == utf8.RuneError && size == 1:
				dst = append(append(dst, s[start:i]...), `\ufffd`...)
				start = i + size
			case c == '\u2028' || c == '\u2029':
				dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hex[c&0xF])
				start = i + size
			}
			i += size
		}
	}
	return append(dst, s[start:]...)
}

// load64 returns the first eight bytes of s as a little-endian word; the
// compiler makes it one load.
func load64(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// plainWord reports whether all eight bytes of w are plain: none below 0x20
// or from 0x80 up, and none of '"', '\\', '<', '>', '&'. Each test is the
// classic "has a zero byte" trick, (x - 0x01…) &^ x & 0x80…, which can set
// a spurious flag only above a byte that truly matched, so the answer for
// the word is exact. '"' (0x22) and '&' (0x26) differ in bit 2 alone, as do
// '<' (0x3c) and '>' (0x3e) in bit 1, so setting that bit makes each pair
// one comparison. The test is one straight-line expression, kept out of the
// append loop as a function of its own; the compiler inlines it.
func plainWord(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quot := (w | ones*0x04) ^ ones*0x26  // '"' or '&'
	angle := (w | ones*0x02) ^ ones*0x3e // '<' or '>'
	slash := w ^ ones*'\\'
	t := (w - ones*0x20) &^ w // below 0x20
	t |= (quot - ones) &^ quot
	t |= (angle - ones) &^ angle
	t |= (slash - ones) &^ slash
	return (t|w)&highs == 0
}
