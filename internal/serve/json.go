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
				dst = appendTerm(dst, r.sparql.Term(i, j))
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

// appendTerm writes a SPARQL cell: the term's canonical string tr(µ), kind
// for kind what sparql.CanonicalTerm returns.
func appendTerm(dst []byte, t rdf.Term) []byte {
	switch t.Kind {
	case rdf.IRI, rdf.Literal:
		return appendString(dst, t.Value)
	case rdf.Blank:
		return append(appendEscaped(append(dst, `"_:`...), t.Value), '"')
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
// becomes U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if plain[b] {
			i++
			continue
		}
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
	return append(dst, s[start:]...)
}
