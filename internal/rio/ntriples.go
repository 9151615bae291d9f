// Package rio implements RDF serialization I/O: a fast streaming N-Triples
// reader and writer for instance data, and a Turtle reader and writer rich
// enough for SHACL shape documents (prefixes, 'a', ';' and ',' abbreviations,
// blank node property lists, and RDF collections).
package rio

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
)

// Ingestion throughput meters (obs.Default registry). Readers batch one
// Observe call per document, so the per-triple cost is a local increment.
var (
	ntMeter  = obs.Default.Meter("rio.ntriples.triples")
	ttlMeter = obs.Default.Meter("rio.turtle.triples")
)

// TripleHandler receives each parsed triple. Returning an error aborts the
// parse and is propagated to the caller.
type TripleHandler func(rdf.Triple) error

// ctxCheckInterval is how many lines/statements the readers process between
// context cancellation checks: frequent enough that cancellation is prompt,
// rare enough that the per-statement cost is unmeasurable.
const ctxCheckInterval = 4096

// ReadNTriplesWith parses an N-Triples document from r, streaming each triple
// to fn without building a graph, so arbitrarily large files can be processed.
// Empty lines and comments are skipped. In strict mode (the zero Options) the
// first malformed line aborts with a *ParseError; in lenient mode malformed
// lines are skipped, reported to opts.OnError, counted in the
// rio.ntriples.skipped counter, and the parse hard-stops with
// ErrTooManyErrors once opts.MaxErrors is exceeded. There is no upper bound
// on line length.
func ReadNTriplesWith(ctx context.Context, r io.Reader, opts Options, fn TripleHandler) error {
	return scanAll(ctx, NewNTriplesScanner(r, opts), fn)
}

func scanAll(ctx context.Context, sc *NTriplesScanner, fn TripleHandler) error {
	for {
		if sc.Line()%ctxCheckInterval == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t, ok, err := sc.Scan()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		if err := fn(t); err != nil {
			return err
		}
	}
}

// inputSize reports the length in bytes of the document r delivers, when r is
// a reader that knows: a regular file, a section of one, or an in-memory
// reader.
func inputSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	case interface{ Size() int64 }:
		return v.Size(), true
	case interface{ Len() int }:
		return int64(v.Len()), true
	}
	return 0, false
}

// ParseNTriplesLine parses one N-Triples statement (without trailing newline).
// Parse failures are returned as a *ParseError carrying the column and the
// offending input (the line number is unknown at this level and left zero).
func ParseNTriplesLine(line string) (rdf.Triple, error) {
	var p ntParser[string]
	var st ntStatement[string]
	if perr := p.parse(line, &st); perr != nil {
		return rdf.Triple{}, perr
	}
	return st.triple(), nil
}

// maxQuotedDepth bounds RDF-star quoted-triple nesting so that hostile
// inputs like "<<<<<<…" fail with a ParseError instead of overflowing the
// stack.
const maxQuotedDepth = 64

// bytestring is what the N-Triples parser reads a line as: a string, for the
// readers that hand out rdf.Terms (the terms are substrings of it), or the
// bytes of a read buffer, for the loader that admits statements into a graph
// without making a string per line.
type bytestring interface{ string | []byte }

// ntTerm is one parsed term, laid out as rdf.Term (S = string) or
// rdf.TermBytes (S = []byte): each field a part of the line, or of the
// parser's scratch buffer where the line's bytes are not the term's — a
// lexical form with escapes, a language tag with upper case. An xsd:string
// datatype is already empty.
type ntTerm[S bytestring] struct {
	Kind                  rdf.Kind
	Value, Datatype, Lang S
}

// ntStatement is a parsed statement: subject, predicate, object. The parser
// fills one in place; it is too big to pass around by value.
type ntStatement[S bytestring] [3]ntTerm[S]

// term returns the rdf.Term; for a string line it shares the line's bytes.
func (t *ntTerm[S]) term() rdf.Term {
	return rdf.Term{Kind: t.Kind, Value: string(t.Value), Datatype: string(t.Datatype), Lang: string(t.Lang)}
}

func (st *ntStatement[S]) triple() rdf.Triple {
	return rdf.NewTriple(st[0].term(), st[1].term(), st[2].term())
}

// internStatement resolves a statement parsed from a read buffer to its ids
// in g's dictionary (Graph.InternBytes), for the loader's log stage to
// admit.
func internStatement(g *rdf.Graph, st *ntStatement[[]byte]) rdf.EncTriple {
	return g.InternBytes((*rdf.TermBytes)(&st[0]), (*rdf.TermBytes)(&st[1]), (*rdf.TermBytes)(&st[2]))
}

// ntParser is the N-Triples line grammar, the only one in the package: every
// reader and loader parses through it.
type ntParser[S bytestring] struct {
	in    S
	pos   int
	depth int
	// scratch holds what the terms need beside the line's bytes. parse never
	// overwrites what is in it, so terms of earlier lines stay valid until the
	// owner truncates it.
	scratch []byte
}

// parse parses line, a statement with surrounding space trimmed (not blank,
// not a comment), into st.
func (p *ntParser[S]) parse(line S, st *ntStatement[S]) *ParseError {
	p.in, p.pos, p.depth = line, 0, 0
	for i, what := range [...]string{"subject", "predicate", "object"} {
		if err := p.term(&st[i]); err != nil {
			return p.fail(p.pos, what+": "+err.Error())
		}
	}
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != '.' {
		return p.fail(p.pos, "expected terminating '.'")
	}
	p.pos++
	p.skipSpace()
	if p.pos < len(p.in) && p.in[p.pos] != '#' {
		return p.fail(p.pos, "unexpected text after the terminating '.'")
	}
	// Subject: IRI, blank node or quoted triple; predicate: IRI (rdf.Triple.Valid).
	if st[0].Kind == rdf.Literal || st[1].Kind != rdf.IRI {
		return p.fail(0, "malformed triple (term kinds violate RDF positions)")
	}
	return nil
}

func (p *ntParser[S]) fail(pos int, reason string) *ParseError {
	return &ParseError{Col: pos + 1, Input: string(p.in), Reason: reason}
}

func (p *ntParser[S]) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

// reserve makes room in scratch for what the line from byte i on decodes
// to — never more bytes than it has — so that a line grows it once at most.
func (p *ntParser[S]) reserve(i int) {
	if n := len(p.scratch) + len(p.in) - i; n > cap(p.scratch) {
		grown := make([]byte, len(p.scratch), max(n, 2*cap(p.scratch)))
		copy(grown, p.scratch)
		p.scratch = grown
	}
}

// decoded returns scratch[from:] as a term field.
func (p *ntParser[S]) decoded(from int) S {
	return S(p.scratch[from:len(p.scratch):len(p.scratch)])
}

// term parses the next term into t.
func (p *ntParser[S]) term(t *ntTerm[S]) error {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return fmt.Errorf("unexpected end of line")
	}
	switch p.in[p.pos] {
	case '<':
		if p.pos+1 < len(p.in) && p.in[p.pos+1] == '<' {
			return p.quoted(t)
		}
		end := indexByte(p.in[p.pos:], '>')
		if end < 0 {
			return fmt.Errorf("unterminated IRI")
		}
		*t = ntTerm[S]{Kind: rdf.IRI, Value: p.in[p.pos+1 : p.pos+end]}
		p.pos += end + 1
		return nil
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		i := start
		for i < len(p.in) && !isNTDelim(p.in[i]) {
			i++
		}
		if i == start {
			return fmt.Errorf("empty blank node label")
		}
		*t = ntTerm[S]{Kind: rdf.Blank, Value: p.in[start:i]}
		p.pos = i
		return nil
	case '"':
		return p.literal(t)
	default:
		return fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

// quoted parses an RDF-star quoted triple, << s p o >>, into a term whose
// value is rdf.NewTripleTerm's encoding.
func (p *ntParser[S]) quoted(t *ntTerm[S]) error {
	p.depth++
	defer func() { p.depth-- }()
	if p.depth > maxQuotedDepth {
		return fmt.Errorf("quoted triples nested deeper than %d", maxQuotedDepth)
	}
	p.pos += 2
	var comps [3]rdf.Term
	for i := range comps {
		if err := p.term(t); err != nil {
			return fmt.Errorf("quoted triple component %d: %w", i+1, err)
		}
		comps[i] = t.term()
	}
	p.skipSpace()
	if p.pos+1 >= len(p.in) || p.in[p.pos] != '>' || p.in[p.pos+1] != '>' {
		return fmt.Errorf("unterminated quoted triple")
	}
	p.pos += 2
	tt, err := rdf.NewTripleTerm(rdf.NewTriple(comps[0], comps[1], comps[2]))
	if err != nil {
		return err
	}
	*t = ntTerm[S]{Kind: rdf.TripleTerm, Value: S(tt.Value)}
	return nil
}

func isNTDelim(c byte) bool { return c == ' ' || c == '\t' || c == '.' || c == '<' }

func (p *ntParser[S]) literal(t *ntTerm[S]) error {
	// p.in[p.pos] == '"'. The lexical form is the line's bytes up to the
	// closing quote unless it has escapes; then it is decoded into scratch
	// (from mark on). q is the next '"' at or after i (len(p.in) if none);
	// it moves only when an escape consumed it, so no byte is searched twice.
	i, mark, q := p.pos+1, -1, -1
	for {
		if q < i {
			if q = indexByte(p.in[i:], '"'); q >= 0 {
				q += i
			} else {
				q = len(p.in)
			}
		}
		e := indexByte(p.in[i:q], '\\')
		if e < 0 {
			if q == len(p.in) {
				return fmt.Errorf("unterminated literal")
			}
			if mark >= 0 {
				p.scratch = append(p.scratch, p.in[i:q]...)
			}
			i = q
			break
		}
		if mark < 0 {
			p.reserve(i)
			mark = len(p.scratch)
		}
		p.scratch = append(p.scratch, p.in[i:i+e]...)
		i += e
		if i+1 >= len(p.in) {
			return fmt.Errorf("dangling escape")
		}
		r, n, err := decodeEscape(p.in[i:])
		if err != nil {
			return err
		}
		p.scratch = utf8.AppendRune(p.scratch, r)
		i += n
	}
	*t = ntTerm[S]{Kind: rdf.Literal, Value: p.in[p.pos+1 : i]}
	if mark >= 0 {
		t.Value = p.decoded(mark)
	}
	i++ // closing quote
	// Optional language tag or datatype.
	if i < len(p.in) && p.in[i] == '@' {
		start := i + 1
		for i++; i < len(p.in) && (isAlphaNum(p.in[i]) || p.in[i] == '-'); i++ {
		}
		if i == start {
			return fmt.Errorf("empty language tag")
		}
		t.Lang = p.in[start:i]
		if hasUpper(t.Lang) {
			p.reserve(start)
			mark := len(p.scratch)
			p.scratch = append(p.scratch, t.Lang...)
			for j := mark; j < len(p.scratch); j++ {
				p.scratch[j] |= 0x20 // lower case; digits and '-' have the bit already
			}
			t.Lang = p.decoded(mark)
		}
		p.pos = i
		return nil
	}
	if i+1 < len(p.in) && p.in[i] == '^' && p.in[i+1] == '^' {
		i += 2
		if i >= len(p.in) || p.in[i] != '<' {
			return fmt.Errorf("expected datatype IRI")
		}
		end := indexByte(p.in[i:], '>')
		if end < 0 {
			return fmt.Errorf("unterminated datatype IRI")
		}
		if dt := p.in[i+1 : i+end]; string(dt) != rdf.XSDString {
			t.Datatype = dt
		}
		p.pos = i + end + 1
		return nil
	}
	p.pos = i
	return nil
}

func indexByte[S bytestring](s S, c byte) int {
	if v, ok := any(s).(string); ok {
		return strings.IndexByte(v, c)
	}
	return bytes.IndexByte(any(s).([]byte), c)
}

func hasUpper[S bytestring](s S) bool {
	for i := 0; i < len(s); i++ {
		if 'A' <= s[i] && s[i] <= 'Z' {
			return true
		}
	}
	return false
}

// decodeEscape decodes the backslash escape at the start of s, returning the
// character and the number of input bytes consumed. A \u or \U escape must
// name a Unicode scalar value: a surrogate or a code point past U+10FFFF has
// no UTF-8 form to decode to.
func decodeEscape[S bytestring](s S) (rune, int, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("input ends inside an escape")
	}
	switch s[1] {
	case 't':
		return '\t', 2, nil
	case 'n':
		return '\n', 2, nil
	case 'r':
		return '\r', 2, nil
	case 'b':
		return '\b', 2, nil
	case 'f':
		return '\f', 2, nil
	case '"', '\'':
		return rune(s[1]), 2, nil
	case '\\':
		return '\\', 2, nil
	case 'u', 'U':
		n := 6
		if s[1] == 'U' {
			n = 10
		}
		if len(s) < n {
			return 0, 0, fmt.Errorf("short \\%c escape", s[1])
		}
		r, err := strconv.ParseUint(string(s[2:n]), 16, 32)
		if err != nil {
			return 0, 0, fmt.Errorf("bad \\%c escape: %v", s[1], err)
		}
		if !utf8.ValidRune(rune(r)) {
			return 0, 0, fmt.Errorf("\\%c escape %s is not a Unicode scalar value", s[1], string(s[2:n]))
		}
		return rune(r), n, nil
	default:
		return 0, 0, fmt.Errorf("unknown escape \\%c", s[1])
	}
}

func isAlphaNum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// WriteNTriples serializes the graph to w in N-Triples format.
func WriteNTriples(w io.Writer, g *rdf.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var err error
	var line []byte
	g.ForEach(func(t rdf.Triple) bool {
		line = append(t.AppendTo(line[:0]), '\n')
		_, err = bw.Write(line)
		return err == nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
