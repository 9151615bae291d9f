package sparql

import (
	"fmt"
	"maps"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// MaxUpdateBytes bounds a single update request. The cap exists for the
// parser itself (the service layer applies its own body limits first): a
// pathological request cannot make the tokenizer allocate unboundedly.
const MaxUpdateBytes = 64 << 20

// maxPresize caps the statements ParseUpdate sizes its tables for up front;
// a larger request grows them as it goes.
const maxPresize = 1 << 12

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
// A data block is a TriplesTemplate read in place by rio.Cursor: Turtle's
// triples (prefixed names, literals, collections, RDF-star quoted triples)
// separated by '.', the last '.' optional. GRAPH blocks, WHERE-pattern
// forms (INSERT/DELETE … WHERE, DELETE WHERE), and LOAD/CLEAR/DROP are out
// of scope and rejected with a parse error, which names the request's own
// line and column. Blank nodes are forbidden in DELETE DATA, per the SPARQL
// grammar.
func ParseUpdate(src string) (*rdf.Delta, error) {
	if len(src) > MaxUpdateBytes {
		return nil, fmt.Errorf("sparql: update request exceeds %d bytes", MaxUpdateBytes)
	}
	return newUpdateParser(src).parse()
}

type updateParser struct {
	rio.Cursor
	// readBlock reads a data block's statements, the cursor past its '{',
	// handing them to emit in order: triplesTemplate streams them, and the
	// tests' oracle collects each block into a graph first.
	readBlock func(u *updateParser, emit func(rdf.Triple)) error
}

func newUpdateParser(src string) *updateParser {
	return &updateParser{
		Cursor:    rio.Cursor{Src: src, Prefixes: map[string]string{}},
		readBlock: (*updateParser).triplesTemplate,
	}
}

func (u *updateParser) parse() (_ *rdf.Delta, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("sparql: update: %w", err)
		}
	}()
	// The sequential operations fold into a last-op-wins table keyed by the
	// triple itself: every field of its three terms, the identity the graph's
	// dictionary gives a term. The table keeps first appearances in order, so
	// the resulting Delta is deterministic for a given request. It is sized
	// by the body's lines: a client's body is mostly a statement a line.
	hint := min(strings.Count(u.Src, "\n")+1, maxPresize)
	var (
		stmts  = make([]rdf.Triple, 0, hint)
		insert = make([]bool, 0, hint)
		index  = make(map[rdf.Triple]int, hint)
	)
	record := func(t rdf.Triple, ins bool) {
		if i, ok := index[t]; ok {
			insert[i] = ins
			return
		}
		index[t] = len(stmts)
		stmts, insert = append(stmts, t), append(insert, ins)
	}
	ops := 0
	for {
		u.SkipWS()
		if u.Pos >= len(u.Src) {
			break
		}
		if u.Peek() != '@' { // Turtle's spelling, not SPARQL's
			if ok, err := u.Directive(); err != nil {
				return nil, err
			} else if ok {
				continue
			}
		}
		switch {
		case u.Keyword("INSERT"):
			if err := u.dataBlock("INSERT", func(t rdf.Triple) { record(t, true) }); err != nil {
				return nil, err
			}
		case u.Keyword("DELETE"):
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
				return nil, fmt.Errorf("blank nodes are not allowed in DELETE DATA: %v", blank)
			}
		default:
			return nil, u.Errorf("expected PREFIX, BASE, INSERT DATA or DELETE DATA")
		}
		ops++
		if err := u.operationSeparator(); err != nil {
			return nil, err
		}
	}
	if ops == 0 {
		return nil, fmt.Errorf("no INSERT DATA / DELETE DATA operation")
	}
	// Inserts keep their order in place at the front of stmts, deletes go
	// to a slice of their own: a grow batch's statements become its Inserts
	// without a copy.
	delta := &rdf.Delta{}
	n := 0
	for i, t := range stmts {
		if insert[i] {
			stmts[n] = t
			n++
		} else {
			if delta.Deletes == nil {
				delta.Deletes = make([]rdf.Triple, 0, len(stmts)-i)
			}
			delta.Deletes = append(delta.Deletes, t)
		}
	}
	if n > 0 {
		delta.Inserts = stmts[:n:n]
	}
	return delta, nil
}

// dataBlock consumes "DATA { … }" after INSERT/DELETE, handing each
// statement of the block to emit in document order.
func (u *updateParser) dataBlock(verb string, emit func(rdf.Triple)) error {
	u.SkipWS()
	if !u.Keyword("DATA") {
		return u.Errorf("%s must be followed by DATA (pattern-based updates are not supported)", verb)
	}
	u.SkipWS()
	if !u.Eat('{') {
		return u.Errorf("%s DATA expects '{'", verb)
	}
	u.SkipWS()
	if start := u.Pos; u.Keyword("GRAPH") {
		u.Pos = start
		return u.Errorf("GRAPH blocks are not supported (the service owns one default graph)")
	}
	if err := u.readBlock(u, emit); err != nil {
		return fmt.Errorf("%s DATA block: %w", verb, err)
	}
	return nil
}

// triplesTemplate reads a block's statements up to and past its '}'. It
// reads them with a cursor of its own, so that each block numbers its
// anonymous blank nodes from 1 and a PREFIX or BASE inside a block holds for
// that block only.
func (u *updateParser) triplesTemplate(emit func(rdf.Triple)) error {
	blk := rio.Cursor{Src: u.Src, Pos: u.Pos, Prefixes: u.Prefixes, Base: u.Base}
	defer func() { u.Pos = blk.Pos }()
	own := false // whether blk.Prefixes is the block's own copy
	for {
		blk.SkipWS()
		switch {
		case blk.Pos >= len(blk.Src):
			return blk.Errorf("unterminated data block (missing '}')")
		case blk.Eat('}'):
			return nil
		}
		if probe := (rio.Cursor{Src: blk.Src, Pos: blk.Pos}); !own &&
			(probe.Eat('@') || probe.Keyword("PREFIX")) {
			blk.Prefixes, own = maps.Clone(blk.Prefixes), true
		}
		if ok, err := blk.Directive(); err != nil {
			return err
		} else if ok {
			continue
		}
		if err := blk.Triples(emit); err != nil {
			return err
		}
		blk.SkipWS()
		if b := blk.Peek(); !blk.Eat('.') && b != '}' && blk.Pos < len(blk.Src) {
			return blk.Errorf("expected '.' or '}' after a statement")
		}
	}
}

// operationSeparator enforces the grammar between operations: either a ';'
// (a trailing one before end of input is allowed) or a clean end of input.
func (u *updateParser) operationSeparator() error {
	u.SkipWS()
	if u.Pos < len(u.Src) && !u.Eat(';') {
		return u.Errorf("expected ';' between update operations")
	}
	return nil
}

// hasBlank reports whether any position of the triple (descending into
// quoted triples) is a blank node.
func hasBlank(t rdf.Triple) bool { return blankIn(t.S) || blankIn(t.O) }

// blankIn reports whether the term is a blank node or a quoted triple that
// holds one.
func blankIn(t rdf.Term) bool {
	if t.Kind != rdf.TripleTerm {
		return t.IsBlank()
	}
	inner, ok := t.AsTriple()
	return ok && hasBlank(inner)
}
