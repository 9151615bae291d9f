package sparql

import (
	"context"
	"fmt"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// MaxUpdateBytes bounds a single update request. The cap exists for the
// parser itself (the service layer applies its own body limits first): a
// pathological request cannot make the tokenizer allocate unboundedly.
const MaxUpdateBytes = 64 << 20

// ParseUpdate parses a SPARQL Update request in the supported subset —
// `INSERT DATA { … }` and `DELETE DATA { … }` operations, optionally
// preceded by PREFIX/BASE declarations and separated by ';' — into one
// typed rdf.Delta batch. SPARQL executes the ';'-separated operations
// sequentially, so the last operation naming a triple decides whether it
// ends up present or absent; the returned Delta records that net effect
// (the triple lands in Inserts or Deletes, never both). Because deleting
// an absent triple and inserting a present one are both no-ops under set
// semantics, applying the net Delta (deletes, then inserts) leaves the
// graph exactly where the sequential execution would.
//
// The quad blocks use the Turtle subset of the data block grammar
// (prefixed names, literals, collections, RDF-star quoted triples); GRAPH
// blocks, WHERE-pattern forms (INSERT/DELETE … WHERE, DELETE WHERE), and
// LOAD/CLEAR/DROP are out of scope and rejected with a parse error.
// Blank nodes are forbidden in DELETE DATA, per the SPARQL grammar.
func ParseUpdate(src string) (*rdf.Delta, error) {
	if len(src) > MaxUpdateBytes {
		return nil, fmt.Errorf("sparql: update request exceeds %d bytes", MaxUpdateBytes)
	}
	u := &updateParser{src: src, readBlock: readTurtleBlock}
	return u.parse()
}

// readTurtleBlock parses a data block (its preamble prepended) with the
// Turtle parser, streaming each statement to emit.
func readTurtleBlock(src string, emit func(rdf.Triple)) error {
	return rio.ReadTurtleWith(context.Background(), src, rio.Options{}, emit)
}

type updateParser struct {
	src string
	pos int
	// preamble accumulates the PREFIX/BASE declarations seen so far, verbatim;
	// they are replayed ahead of every data block (the Turtle parser accepts
	// the SPARQL spelling natively). Per the SPARQL grammar a declaration may
	// also appear between operations and scopes to the rest of the request.
	preamble strings.Builder
	// readBlock parses one data block, emitting its statements in order.
	readBlock func(src string, emit func(rdf.Triple)) error
}

func (u *updateParser) errf(format string, args ...any) error {
	start := u.pos - 20
	if start < 0 {
		start = 0
	}
	end := u.pos + 20
	if end > len(u.src) {
		end = len(u.src)
	}
	return fmt.Errorf("sparql: update: %s (near %q)", fmt.Sprintf(format, args...), u.src[start:end])
}

// ws skips whitespace and '#' comments.
func (u *updateParser) ws() {
	for u.pos < len(u.src) {
		c := u.src[u.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			u.pos++
		case c == '#':
			for u.pos < len(u.src) && u.src[u.pos] != '\n' {
				u.pos++
			}
		default:
			return
		}
	}
}

// keyword consumes kw case-insensitively when it appears at the cursor as a
// whole word.
func (u *updateParser) keyword(kw string) bool {
	if u.pos+len(kw) > len(u.src) {
		return false
	}
	if !strings.EqualFold(u.src[u.pos:u.pos+len(kw)], kw) {
		return false
	}
	if end := u.pos + len(kw); end < len(u.src) {
		if c := u.src[end]; c == '_' || c == ':' ||
			'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' {
			return false
		}
	}
	u.pos += len(kw)
	return true
}

func (u *updateParser) parse() (*rdf.Delta, error) {
	// The sequential operations fold into a last-op-wins table keyed by each
	// triple's N-Triples form; the table keeps first appearances in order, so
	// the resulting Delta is deterministic for a given request.
	type netOp struct {
		triple rdf.Triple
		insert bool
	}
	var (
		net   []netOp
		index = make(map[string]int)
		key   []byte
	)
	record := func(t rdf.Triple, insert bool) {
		key = t.AppendTo(key[:0])
		if i, ok := index[string(key)]; ok {
			net[i].insert = insert
			return
		}
		index[string(key)] = len(net)
		net = append(net, netOp{triple: t, insert: insert})
	}
	ops := 0
	for {
		u.ws()
		if u.pos >= len(u.src) {
			break
		}
		switch {
		case u.keyword("PREFIX"):
			if err := u.declaration("PREFIX", true); err != nil {
				return nil, err
			}
		case u.keyword("BASE"):
			if err := u.declaration("BASE", false); err != nil {
				return nil, err
			}
		case u.keyword("INSERT"):
			if err := u.dataBlock("INSERT", func(t rdf.Triple) { record(t, true) }); err != nil {
				return nil, err
			}
			ops++
			if err := u.operationSeparator(); err != nil {
				return nil, err
			}
		case u.keyword("DELETE"):
			var blank rdf.Triple // the block's first statement with a blank node
			if err := u.dataBlock("DELETE", func(t rdf.Triple) {
				if blank.S.IsZero() && hasBlank(t) {
					blank = t
				}
				record(t, false)
			}); err != nil {
				return nil, err
			}
			if !blank.S.IsZero() {
				return nil, fmt.Errorf("sparql: update: blank nodes are not allowed in DELETE DATA: %v", blank)
			}
			ops++
			if err := u.operationSeparator(); err != nil {
				return nil, err
			}
		default:
			return nil, u.errf("expected PREFIX, BASE, INSERT DATA or DELETE DATA")
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("sparql: update: no INSERT DATA / DELETE DATA operation")
	}
	delta := &rdf.Delta{}
	for _, op := range net {
		if op.insert {
			delta.Inserts = append(delta.Inserts, op.triple)
		} else {
			delta.Deletes = append(delta.Deletes, op.triple)
		}
	}
	return delta, nil
}

// declaration consumes the remainder of a PREFIX/BASE declaration (the
// keyword is already consumed) and records it verbatim for the block parses.
func (u *updateParser) declaration(kw string, withName bool) error {
	start := u.pos
	u.ws()
	if withName {
		for u.pos < len(u.src) && u.src[u.pos] != ':' {
			if c := u.src[u.pos]; c == ' ' && strings.TrimSpace(u.src[start:u.pos]) != "" {
				return u.errf("malformed %s name", kw)
			} else if c == '<' || c == '\n' {
				return u.errf("malformed %s declaration", kw)
			}
			u.pos++
		}
		if u.pos >= len(u.src) {
			return u.errf("unterminated %s declaration", kw)
		}
		u.pos++ // ':'
	}
	u.ws()
	if u.pos >= len(u.src) || u.src[u.pos] != '<' {
		return u.errf("%s expects an IRI reference", kw)
	}
	end := strings.IndexByte(u.src[u.pos:], '>')
	if end < 0 {
		return u.errf("unterminated IRI in %s declaration", kw)
	}
	u.pos += end + 1
	u.preamble.WriteString(kw)
	u.preamble.WriteString(u.src[start:u.pos])
	u.preamble.WriteByte('\n')
	return nil
}

// dataBlock consumes "DATA { … }" after INSERT/DELETE and parses the block
// body as Turtle under the accumulated preamble, handing each statement to
// emit in document order.
func (u *updateParser) dataBlock(verb string, emit func(rdf.Triple)) error {
	u.ws()
	if !u.keyword("DATA") {
		return u.errf("%s must be followed by DATA (pattern-based updates are not supported)", verb)
	}
	u.ws()
	if u.pos >= len(u.src) || u.src[u.pos] != '{' {
		return u.errf("%s DATA expects '{'", verb)
	}
	u.pos++
	if mark := u.pos; func() bool { u.ws(); return u.keyword("GRAPH") }() {
		// blockBody would reject the nested brace anyway; give the common
		// named-graph form a precise error instead of a generic one.
		return fmt.Errorf("sparql: update: GRAPH blocks are not supported (the service owns one default graph)")
	} else {
		u.pos = mark
	}
	body, err := u.blockBody()
	if err != nil {
		return err
	}
	if err := u.readBlock(u.preamble.String()+body, emit); err != nil {
		return fmt.Errorf("sparql: update: %s DATA block: %w", verb, err)
	}
	return nil
}

// blockBody consumes up to the matching '}' (the cursor sits just past the
// opening brace) and returns the body. String literals in both quote styles
// (short and long), IRI references, and comments are skipped opaquely so a
// '}' inside them does not close the block.
func (u *updateParser) blockBody() (string, error) {
	start := u.pos
	for u.pos < len(u.src) {
		switch c := u.src[u.pos]; c {
		case '}':
			body := u.src[start:u.pos]
			u.pos++
			return body, nil
		case '{':
			return "", u.errf("nested '{' inside a data block")
		case '"', '\'':
			if err := u.skipString(c); err != nil {
				return "", err
			}
		case '<':
			// IRI reference: skip to '>' on the same line. "<<" (quoted
			// triple) is plain syntax with no embeddable '}' and needs no
			// special casing beyond not treating it as an IRI.
			if u.pos+1 < len(u.src) && u.src[u.pos+1] == '<' {
				u.pos += 2
				continue
			}
			end := strings.IndexByte(u.src[u.pos:], '>')
			if end < 0 {
				return "", u.errf("unterminated IRI in data block")
			}
			u.pos += end + 1
		case '#':
			for u.pos < len(u.src) && u.src[u.pos] != '\n' {
				u.pos++
			}
		default:
			u.pos++
		}
	}
	return "", u.errf("unterminated data block (missing '}')")
}

// skipString advances past a short or long string literal opened by quote.
func (u *updateParser) skipString(quote byte) error {
	long := strings.HasPrefix(u.src[u.pos:], strings.Repeat(string(quote), 3))
	if long {
		u.pos += 3
		end := strings.Index(u.src[u.pos:], strings.Repeat(string(quote), 3))
		if end < 0 {
			return u.errf("unterminated long string in data block")
		}
		u.pos += end + 3
		return nil
	}
	u.pos++
	for u.pos < len(u.src) {
		switch u.src[u.pos] {
		case '\\':
			u.pos += 2
		case quote:
			u.pos++
			return nil
		case '\n':
			return u.errf("newline in short string in data block")
		default:
			u.pos++
		}
	}
	return u.errf("unterminated string in data block")
}

// operationSeparator enforces the grammar between operations: either a ';'
// (a trailing one before end of input is allowed) or a clean end of input.
func (u *updateParser) operationSeparator() error {
	u.ws()
	if u.pos >= len(u.src) {
		return nil
	}
	if u.src[u.pos] != ';' {
		return u.errf("expected ';' between update operations")
	}
	u.pos++
	return nil
}

// hasBlank reports whether any position of the triple (descending into
// quoted triples) is a blank node.
func hasBlank(t rdf.Triple) bool {
	for _, term := range []rdf.Term{t.S, t.O} {
		if term.IsBlank() {
			return true
		}
		if inner, ok := term.AsTriple(); ok && hasBlank(inner) {
			return true
		}
	}
	return false
}
