// Package rdf implements the RDF 1.1 data model used throughout S3PG:
// IRIs, blank nodes, typed and language-tagged literals, triples, and a
// dictionary-encoded in-memory graph with pattern-match indexes.
//
// The model follows Definition 2.1 of the paper: an RDF graph is a finite
// set of <s, p, o> triples with s ∈ I ∪ B, p ∈ I, o ∈ I ∪ B ∪ L.
package rdf

import (
	"fmt"
	"strings"
)

// Kind discriminates the three classes of RDF terms.
type Kind uint8

// The term kinds of the RDF abstract syntax, plus RDF-star quoted triples.
const (
	IRI Kind = iota + 1
	Blank
	Literal
	// TripleTerm is an RDF-star quoted triple (<< s p o >>), usable in
	// subject and object positions to annotate statements.
	TripleTerm
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case IRI:
		return "IRI"
	case Blank:
		return "Blank"
	case Literal:
		return "Literal"
	case TripleTerm:
		return "TripleTerm"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Term is a single RDF term. Terms are plain comparable values: two terms
// are the same RDF term iff the structs are ==. The zero Term is invalid.
//
// For IRIs, Value holds the absolute IRI. For blank nodes, Value holds the
// local label (without the "_:" prefix). For literals, Value holds the
// lexical form, Datatype the datatype IRI (empty means xsd:string per RDF
// 1.1), and Lang the optional BCP-47 language tag (which forces the datatype
// rdf:langString).
type Term struct {
	Kind     Kind
	Value    string
	Datatype string
	Lang     string
}

// TermBytes is a term read straight out of a buffer its caller owns: a
// Term's fields as byte slices, in the form the Term constructors give them
// (an xsd:string datatype empty, a language tag in lower case). It is what
// Graph.InternBytes encodes. The graph keeps no reference to the slices; a term
// its dictionary has not seen is copied, one it has seen costs nothing.
type TermBytes struct {
	Kind                  Kind
	Value, Datatype, Lang []byte
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label (no "_:" prefix).
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain literal, which per RDF 1.1 has datatype
// xsd:string. The datatype field is left empty as the canonical encoding of
// xsd:string so that plain and explicitly-typed string literals compare equal.
func NewLiteral(lexical string) Term { return Term{Kind: Literal, Value: lexical} }

// NewTypedLiteral returns a literal with an explicit datatype IRI.
// An xsd:string datatype is normalized to the empty encoding.
func NewTypedLiteral(lexical, datatype string) Term {
	if datatype == XSDString {
		datatype = ""
	}
	return Term{Kind: Literal, Value: lexical, Datatype: datatype}
}

// NewLangLiteral returns a language-tagged literal (datatype rdf:langString).
func NewLangLiteral(lexical, lang string) Term {
	return Term{Kind: Literal, Value: lexical, Lang: strings.ToLower(lang)}
}

// IsIRI reports whether the term is an IRI.
func (t Term) IsIRI() bool { return t.Kind == IRI }

// IsBlank reports whether the term is a blank node.
func (t Term) IsBlank() bool { return t.Kind == Blank }

// IsLiteral reports whether the term is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// IsResource reports whether the term may appear in subject position
// (an IRI or a blank node).
func (t Term) IsResource() bool { return t.Kind == IRI || t.Kind == Blank }

// IsTripleTerm reports whether the term is an RDF-star quoted triple.
func (t Term) IsTripleTerm() bool { return t.Kind == TripleTerm }

// IsZero reports whether the term is the invalid zero value.
func (t Term) IsZero() bool { return t.Kind == 0 }

// DatatypeIRI returns the effective datatype IRI of a literal: the explicit
// datatype, rdf:langString for language-tagged literals, and xsd:string for
// plain literals. It returns "" for non-literals.
func (t Term) DatatypeIRI() string {
	if t.Kind != Literal {
		return ""
	}
	if t.Lang != "" {
		return RDFLangString
	}
	if t.Datatype == "" {
		return XSDString
	}
	return t.Datatype
}

// String renders the term in N-Triples syntax. An IRI and a blank node,
// the common terms, cost one allocation.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	}
	return string(t.AppendTo(make([]byte, 0, termSize(&t))))
}

// AppendTo appends the term in N-Triples syntax, the bytes String returns,
// to dst.
func (t Term) AppendTo(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case Blank:
		return append(append(dst, "_:"...), t.Value...)
	case Literal:
		dst = append(appendLiteralEscaped(append(dst, '"'), t.Value), '"')
		if t.Lang != "" {
			dst = append(append(dst, '@'), t.Lang...)
		} else if t.Datatype != "" {
			dst = append(append(append(dst, "^^<"...), t.Datatype...), '>')
		}
		return dst
	case TripleTerm:
		if q, ok := t.AsTriple(); ok {
			dst = q.S.AppendTo(append(dst, "<< "...))
			dst = q.P.AppendTo(append(dst, ' '))
			return append(q.O.AppendTo(append(dst, ' ')), " >>"...)
		}
		return append(dst, "<< malformed >>"...)
	default:
		return append(dst, "<invalid term>"...)
	}
}

// termSize bounds the length of the term's N-Triples form when it is an
// IRI, a blank node or a literal without escapes: room enough to append it
// without growing.
func termSize(t *Term) int { return len(t.Value) + len(t.Datatype) + len(t.Lang) + 6 }

// literalSpecials are the bytes EscapeLiteral escapes.
const literalSpecials = "\"\\\n\r\t"

// EscapeLiteral escapes a lexical form for embedding in a double-quoted
// N-Triples / Turtle literal.
func EscapeLiteral(s string) string {
	if !strings.ContainsAny(s, literalSpecials) {
		return s
	}
	return string(appendLiteralEscaped(make([]byte, 0, len(s)+8), s))
}

// appendLiteralEscaped appends s with EscapeLiteral's escapes. It works
// byte-wise: every escaped character is ASCII, so multi-byte sequences —
// including invalid UTF-8 — pass through unchanged and serialization
// round-trips the lexical form exactly.
func appendLiteralEscaped(dst []byte, s string) []byte {
	for {
		i := strings.IndexAny(s, literalSpecials)
		if i < 0 {
			return append(dst, s...)
		}
		dst = append(dst, s[:i]...)
		switch s[i] {
		case '\n':
			dst = append(dst, '\\', 'n')
		case '\r':
			dst = append(dst, '\\', 'r')
		case '\t':
			dst = append(dst, '\\', 't')
		default: // '"', '\\'
			dst = append(dst, '\\', s[i])
		}
		s = s[i+1:]
	}
}

// Triple is a single RDF statement.
type Triple struct {
	S, P, O Term
}

// NewTriple builds a triple from its three terms.
func NewTriple(s, p, o Term) Triple { return Triple{S: s, P: p, O: o} }

// String renders the triple as an N-Triples statement (without newline).
func (t Triple) String() string {
	return string(t.AppendTo(make([]byte, 0, termSize(&t.S)+termSize(&t.P)+termSize(&t.O)+4)))
}

// AppendTo appends the statement String returns to dst.
func (t Triple) AppendTo(dst []byte) []byte {
	dst = t.P.AppendTo(append(t.S.AppendTo(dst), ' '))
	return append(t.O.AppendTo(append(dst, ' ')), " ."...)
}

// Valid reports whether the triple is well formed per Definition 2.1,
// extended with RDF-star: the subject is a resource or quoted triple, the
// predicate an IRI, the object any term.
func (t Triple) Valid() bool { return validKinds(t.S.Kind, t.P.Kind, t.O.Kind) }

func validKinds(s, p, o Kind) bool {
	return (s == IRI || s == Blank || s == TripleTerm) && p == IRI && o != 0
}
