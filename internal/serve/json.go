package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/jsonstr"
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
		dst = append(jsonstr.Append(append(dst, "\n  \"graph\": "...), r.Graph), ',')
	}
	if r.Job != "" {
		dst = append(jsonstr.Append(append(dst, "\n  \"job\": "...), r.Job), ',')
	}
	dst = jsonstr.Append(append(dst, "\n  \"lang\": "...), r.Lang)
	dst = strconv.AppendUint(append(dst, ",\n  \"lsn\": "...), r.LSN, 10)
	dst = jsonstr.Append(append(dst, ",\n  \"cache\": "...), r.Cache)
	dst = append(dst, ",\n  \"columns\": "...)
	if r.Columns == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, c := range r.Columns {
			dst = jsonstr.Append(appendBreak(dst, i, 2), c)
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
		return jsonstr.Append(dst, value)
	case rdf.Blank:
		return append(jsonstr.AppendEscaped(append(dst, `"_:`...), value), '"')
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
		return jsonstr.Append(dst, x), nil
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
