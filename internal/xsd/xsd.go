// Package xsd implements the XML Schema datatype handling S3PG relies on:
// lexical validation, value parsing, value-space comparison, and the lossy
// coercion rules that the reimplemented baselines (NeoSemantics, rdf2pg)
// apply to heterogeneous property values.
package xsd

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"github.com/s3pg/s3pg/internal/rdf"
)

// ValueKind classifies the value space a datatype maps into.
type ValueKind uint8

// Value spaces supported by the engine.
const (
	KindString ValueKind = iota + 1
	KindInt
	KindFloat
	KindBool
	KindTime
)

// String returns a human-readable name for the value kind.
func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "integer"
	case KindFloat:
		return "float"
	case KindBool:
		return "boolean"
	case KindTime:
		return "time"
	default:
		return fmt.Sprintf("ValueKind(%d)", uint8(k))
	}
}

// Value is a parsed literal value.
type Value struct {
	Kind ValueKind
	Str  string
	I    int64
	F    float64
	B    bool
	T    time.Time
}

// KindOf returns the value space of a datatype IRI. Unknown datatypes map to
// the string space (they validate trivially and compare lexically), matching
// how RDF stores treat unrecognized datatypes.
func KindOf(datatype string) ValueKind {
	switch datatype {
	case "", rdf.XSDString, rdf.RDFLangString, rdf.XSDAnyURI:
		return KindString
	case rdf.XSDInteger, rdf.XSDInt, rdf.XSDLong:
		return KindInt
	case rdf.XSDDecimal, rdf.XSDDouble, rdf.XSDFloat:
		return KindFloat
	case rdf.XSDBoolean:
		return KindBool
	case rdf.XSDDate, rdf.XSDDateTime, rdf.XSDGYear:
		return KindTime
	default:
		return KindString
	}
}

// Parse parses a lexical form against a datatype IRI and returns its value.
func Parse(lexical, datatype string) (Value, error) {
	switch KindOf(datatype) {
	case KindInt:
		i, err := strconv.ParseInt(strings.TrimSpace(lexical), 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("xsd: %q is not a valid %s: %v", lexical, datatype, err)
		}
		return Value{Kind: KindInt, I: i}, nil
	case KindFloat:
		f, err := strconv.ParseFloat(strings.TrimSpace(lexical), 64)
		if err != nil {
			return Value{}, fmt.Errorf("xsd: %q is not a valid %s: %v", lexical, datatype, err)
		}
		return Value{Kind: KindFloat, F: f}, nil
	case KindBool:
		switch strings.TrimSpace(lexical) {
		case "true", "1":
			return Value{Kind: KindBool, B: true}, nil
		case "false", "0":
			return Value{Kind: KindBool, B: false}, nil
		}
		return Value{}, fmt.Errorf("xsd: %q is not a valid boolean", lexical)
	case KindTime:
		t, err := parseTime(strings.TrimSpace(lexical), datatype)
		if err != nil {
			return Value{}, err
		}
		return Value{Kind: KindTime, T: t}, nil
	default:
		return Value{Kind: KindString, Str: lexical}, nil
	}
}

func parseTime(lexical, datatype string) (time.Time, error) {
	var layouts []string
	switch datatype {
	case rdf.XSDDate:
		layouts = []string{"2006-01-02", "2006-01-02Z07:00"}
	case rdf.XSDDateTime:
		layouts = []string{"2006-01-02T15:04:05Z07:00", "2006-01-02T15:04:05"}
	case rdf.XSDGYear:
		layouts = []string{"2006"}
	}
	for _, l := range layouts {
		if t, err := time.Parse(l, lexical); err == nil {
			return t, nil
		}
	}
	return time.Time{}, fmt.Errorf("xsd: %q is not a valid %s", lexical, datatype)
}

// Valid reports whether a lexical form is valid for a datatype IRI.
func Valid(lexical, datatype string) bool {
	_, err := Parse(lexical, datatype)
	return err == nil
}

// Compare compares two values and returns -1, 0, or +1. Numeric values
// compare across int/float with promotion. Comparing values in unrelated
// value spaces returns an error (SPARQL type-error semantics).
func Compare(a, b Value) (int, error) {
	if a.Kind == KindInt && b.Kind == KindFloat {
		a = Value{Kind: KindFloat, F: float64(a.I)}
	}
	if a.Kind == KindFloat && b.Kind == KindInt {
		b = Value{Kind: KindFloat, F: float64(b.I)}
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("xsd: cannot compare %s with %s", a.Kind, b.Kind)
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.Str, b.Str), nil
	case KindInt:
		switch {
		case a.I < b.I:
			return -1, nil
		case a.I > b.I:
			return 1, nil
		}
		return 0, nil
	case KindFloat:
		switch {
		case a.F < b.F:
			return -1, nil
		case a.F > b.F:
			return 1, nil
		}
		return 0, nil
	case KindBool:
		switch {
		case !a.B && b.B:
			return -1, nil
		case a.B && !b.B:
			return 1, nil
		}
		return 0, nil
	case KindTime:
		switch {
		case a.T.Before(b.T):
			return -1, nil
		case a.T.After(b.T):
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("xsd: uncomparable kind %s", a.Kind)
}

// Coerce attempts to convert a lexical form from one datatype to another,
// returning the converted lexical form and whether the conversion succeeded.
// These are the rules the baseline transformations use when forcing
// heterogeneous property values into a homogeneous array type:
//
//   - any value coerces to string (lexical form is kept);
//   - numeric lexicals coerce between numeric types when exact;
//   - everything else fails, and the baselines drop the value.
func Coerce(lexical, from, to string) (string, bool) {
	if from == to || KindOf(from) == KindOf(to) && KindOf(from) != KindTime {
		// Same value space (and not a time type with differing layouts):
		// must still be lexically valid for the target.
		if Valid(lexical, to) {
			return lexical, true
		}
		return "", false
	}
	switch KindOf(to) {
	case KindString:
		return lexical, true
	case KindInt:
		v, err := Parse(lexical, from)
		if err != nil {
			return "", false
		}
		switch v.Kind {
		case KindInt:
			return strconv.FormatInt(v.I, 10), true
		case KindFloat:
			if v.F == float64(int64(v.F)) {
				return strconv.FormatInt(int64(v.F), 10), true
			}
		case KindString:
			if i, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64); err == nil {
				return strconv.FormatInt(i, 10), true
			}
		}
		return "", false
	case KindFloat:
		v, err := Parse(lexical, from)
		if err != nil {
			return "", false
		}
		switch v.Kind {
		case KindInt:
			return strconv.FormatFloat(float64(v.I), 'g', -1, 64), true
		case KindFloat:
			return lexical, true
		case KindString:
			if f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64); err == nil {
				return strconv.FormatFloat(f, 'g', -1, 64), true
			}
		}
		return "", false
	case KindBool:
		if Valid(lexical, rdf.XSDBoolean) {
			return lexical, true
		}
		return "", false
	case KindTime:
		if Valid(lexical, to) {
			return lexical, true
		}
		return "", false
	}
	return "", false
}

// ShortName returns a concise label for a datatype IRI (e.g. "STRING",
// "INTEGER", "DATE"), used as value-node labels in the transformed PG and
// as content-type names in PG-Schema.
func ShortName(datatype string) string {
	switch datatype {
	case "", rdf.XSDString:
		return "STRING"
	case rdf.RDFLangString:
		return "LANGSTRING"
	case rdf.XSDBoolean:
		return "BOOLEAN"
	case rdf.XSDInteger:
		return "INTEGER"
	case rdf.XSDInt:
		return "INT"
	case rdf.XSDLong:
		return "LONG"
	case rdf.XSDDecimal:
		return "DECIMAL"
	case rdf.XSDDouble:
		return "DOUBLE"
	case rdf.XSDFloat:
		return "FLOAT"
	case rdf.XSDDate:
		return "DATE"
	case rdf.XSDDateTime:
		return "DATETIME"
	case rdf.XSDGYear:
		return "YEAR"
	case rdf.XSDAnyURI:
		return "URI"
	default:
		// Fall back to the IRI local name, upper-cased.
		if i := strings.LastIndexAny(datatype, "#/"); i >= 0 && i+1 < len(datatype) {
			return strings.ToUpper(datatype[i+1:])
		}
		return strings.ToUpper(datatype)
	}
}

// FromShortName is the inverse of ShortName for the standard datatypes.
// Unknown names return the empty string.
func FromShortName(name string) string {
	switch strings.ToUpper(name) {
	case "STRING":
		return rdf.XSDString
	case "LANGSTRING":
		return rdf.RDFLangString
	case "BOOLEAN":
		return rdf.XSDBoolean
	case "INTEGER":
		return rdf.XSDInteger
	case "INT":
		return rdf.XSDInt
	case "LONG":
		return rdf.XSDLong
	case "DECIMAL":
		return rdf.XSDDecimal
	case "DOUBLE":
		return rdf.XSDDouble
	case "FLOAT":
		return rdf.XSDFloat
	case "DATE":
		return rdf.XSDDate
	case "DATETIME":
		return rdf.XSDDateTime
	case "YEAR", "GYEAR":
		return rdf.XSDGYear
	case "URI", "ANYURI":
		return rdf.XSDAnyURI
	default:
		return ""
	}
}
