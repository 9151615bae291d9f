// Package rio implements RDF serialization I/O: a fast streaming N-Triples
// reader and writer for instance data, and a Turtle reader and writer rich
// enough for SHACL shape documents (prefixes, 'a', ';' and ',' abbreviations,
// blank node property lists, and RDF collections).
package rio

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"

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
// ErrTooManyErrors once opts.MaxErrors is exceeded.
// Lines are read through a bufio.Reader, so there is no upper bound on line
// length (bufio.Scanner's token limit does not apply).
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

// LoadNTriples parses an N-Triples document into a new graph.
func LoadNTriples(r io.Reader) (*rdf.Graph, error) {
	return LoadNTriplesWith(context.Background(), r, Options{})
}

// hintAfter is how many statements LoadNTriplesWith reads before it sizes the
// graph: enough for a stable bytes-per-statement figure, few enough that the
// graph has hardly grown yet.
const hintAfter = 1024

// LoadNTriplesWith is LoadNTriples with cancellation and fault-tolerance
// control (see ReadNTriplesWith). When r can tell how long the document is
// (inputSize), the graph is sized once, hintAfter statements in, for the
// statements the remaining bytes should hold at the bytes-per-statement seen
// so far.
func LoadNTriplesWith(ctx context.Context, r io.Reader, opts Options) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	size, sized := inputSize(r)
	sc := NewNTriplesScanner(r, opts)
	err := scanAll(ctx, sc, func(t rdf.Triple) error {
		g.Add(t)
		if sized && sc.Triples() == hintAfter {
			g.Grow(int((size - sc.Offset()) * hintAfter / sc.Offset()))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
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
	t, perr := parseNTriplesLine(line)
	if perr != nil {
		return rdf.Triple{}, perr
	}
	return t, nil
}

func parseNTriplesLine(line string) (rdf.Triple, *ParseError) {
	p := &ntParser{in: line}
	fail := func(what string, err error) *ParseError {
		return &ParseError{Col: p.pos + 1, Input: line, Reason: what + ": " + err.Error()}
	}
	s, err := p.term()
	if err != nil {
		return rdf.Triple{}, fail("subject", err)
	}
	pr, err := p.term()
	if err != nil {
		return rdf.Triple{}, fail("predicate", err)
	}
	o, err := p.term()
	if err != nil {
		return rdf.Triple{}, fail("object", err)
	}
	p.skipSpace()
	if p.pos >= len(p.in) || p.in[p.pos] != '.' {
		return rdf.Triple{}, &ParseError{Col: p.pos + 1, Input: line, Reason: "expected terminating '.'"}
	}
	t := rdf.NewTriple(s, pr, o)
	if !t.Valid() {
		return rdf.Triple{}, &ParseError{Col: 1, Input: line, Reason: "malformed triple (term kinds violate RDF positions)"}
	}
	return t, nil
}

// maxQuotedDepth bounds RDF-star quoted-triple nesting so that hostile
// inputs like "<<<<<<…" fail with a ParseError instead of overflowing the
// stack.
const maxQuotedDepth = 64

type ntParser struct {
	in    string
	pos   int
	depth int
}

func (p *ntParser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *ntParser) term() (rdf.Term, error) {
	p.skipSpace()
	if p.pos >= len(p.in) {
		return rdf.Term{}, fmt.Errorf("unexpected end of line")
	}
	switch p.in[p.pos] {
	case '<':
		// RDF-star quoted triple: << s p o >>.
		if p.pos+1 < len(p.in) && p.in[p.pos+1] == '<' {
			p.depth++
			defer func() { p.depth-- }()
			if p.depth > maxQuotedDepth {
				return rdf.Term{}, fmt.Errorf("quoted triples nested deeper than %d", maxQuotedDepth)
			}
			p.pos += 2
			var comps [3]rdf.Term
			for i := range comps {
				c, err := p.term()
				if err != nil {
					return rdf.Term{}, fmt.Errorf("quoted triple component %d: %w", i+1, err)
				}
				comps[i] = c
			}
			p.skipSpace()
			if !strings.HasPrefix(p.in[p.pos:], ">>") {
				return rdf.Term{}, fmt.Errorf("unterminated quoted triple")
			}
			p.pos += 2
			return rdf.NewTripleTerm(rdf.NewTriple(comps[0], comps[1], comps[2]))
		}
		end := strings.IndexByte(p.in[p.pos:], '>')
		if end < 0 {
			return rdf.Term{}, fmt.Errorf("unterminated IRI")
		}
		iri := p.in[p.pos+1 : p.pos+end]
		p.pos += end + 1
		return rdf.NewIRI(iri), nil
	case '_':
		if p.pos+1 >= len(p.in) || p.in[p.pos+1] != ':' {
			return rdf.Term{}, fmt.Errorf("malformed blank node")
		}
		start := p.pos + 2
		i := start
		for i < len(p.in) && !isNTDelim(p.in[i]) {
			i++
		}
		label := p.in[start:i]
		if label == "" {
			return rdf.Term{}, fmt.Errorf("empty blank node label")
		}
		p.pos = i
		return rdf.NewBlank(label), nil
	case '"':
		return p.literal()
	default:
		return rdf.Term{}, fmt.Errorf("unexpected character %q", p.in[p.pos])
	}
}

func isNTDelim(c byte) bool { return c == ' ' || c == '\t' || c == '.' || c == '<' }

func (p *ntParser) literal() (rdf.Term, error) {
	// p.in[p.pos] == '"'
	i := p.pos + 1
	var b strings.Builder
	for {
		if i >= len(p.in) {
			return rdf.Term{}, fmt.Errorf("unterminated literal")
		}
		c := p.in[i]
		if c == '"' {
			break
		}
		if c == '\\' {
			if i+1 >= len(p.in) {
				return rdf.Term{}, fmt.Errorf("dangling escape")
			}
			esc, n, err := decodeEscape(p.in[i:])
			if err != nil {
				return rdf.Term{}, err
			}
			b.WriteString(esc)
			i += n
			continue
		}
		b.WriteByte(c)
		i++
	}
	lex := b.String()
	i++ // closing quote
	// Optional language tag or datatype.
	if i < len(p.in) && p.in[i] == '@' {
		start := i + 1
		for i++; i < len(p.in) && (isAlphaNum(p.in[i]) || p.in[i] == '-'); i++ {
		}
		lang := p.in[start:i]
		p.pos = i
		return rdf.NewLangLiteral(lex, lang), nil
	}
	if i+1 < len(p.in) && p.in[i] == '^' && p.in[i+1] == '^' {
		i += 2
		if i >= len(p.in) || p.in[i] != '<' {
			return rdf.Term{}, fmt.Errorf("expected datatype IRI")
		}
		end := strings.IndexByte(p.in[i:], '>')
		if end < 0 {
			return rdf.Term{}, fmt.Errorf("unterminated datatype IRI")
		}
		dt := p.in[i+1 : i+end]
		p.pos = i + end + 1
		return rdf.NewTypedLiteral(lex, dt), nil
	}
	p.pos = i
	return rdf.NewLiteral(lex), nil
}

// decodeEscape decodes a backslash escape at the start of s, returning the
// decoded string and the number of input bytes consumed.
func decodeEscape(s string) (string, int, error) {
	if len(s) < 2 {
		return "", 0, fmt.Errorf("input ends inside an escape")
	}
	switch s[1] {
	case 't':
		return "\t", 2, nil
	case 'n':
		return "\n", 2, nil
	case 'r':
		return "\r", 2, nil
	case '"':
		return `"`, 2, nil
	case '\\':
		return `\`, 2, nil
	case 'u':
		if len(s) < 6 {
			return "", 0, fmt.Errorf("short \\u escape")
		}
		n, err := strconv.ParseUint(s[2:6], 16, 32)
		if err != nil {
			return "", 0, fmt.Errorf("bad \\u escape: %v", err)
		}
		return string(rune(n)), 6, nil
	case 'U':
		if len(s) < 10 {
			return "", 0, fmt.Errorf("short \\U escape")
		}
		n, err := strconv.ParseUint(s[2:10], 16, 32)
		if err != nil {
			return "", 0, fmt.Errorf("bad \\U escape: %v", err)
		}
		return string(rune(n)), 10, nil
	default:
		return "", 0, fmt.Errorf("unknown escape \\%c", s[1])
	}
}

func isAlphaNum(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// WriteNTriples serializes the graph to w in N-Triples format.
func WriteNTriples(w io.Writer, g *rdf.Graph) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var err error
	g.ForEach(func(t rdf.Triple) bool {
		if _, werr := bw.WriteString(t.String()); werr != nil {
			err = werr
			return false
		}
		if werr := bw.WriteByte('\n'); werr != nil {
			err = werr
			return false
		}
		return true
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
