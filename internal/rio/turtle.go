package rio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/rdf"
)

// ParseTurtle parses a Turtle document into a new graph.
func ParseTurtle(src string) (*rdf.Graph, error) {
	return ParseTurtleWith(context.Background(), src, Options{})
}

// ParseTurtleWith is ParseTurtle with cancellation and fault-tolerance
// control. In strict mode (the zero Options) the first malformed statement
// aborts with a *ParseError; in lenient mode the parser reports the error to
// opts.OnError, re-synchronizes at the next top-level '.' terminator, and
// keeps parsing — triples already added from the failed statement's prefix
// stand. Parsing hard-stops with ErrTooManyErrors once opts.MaxErrors
// malformed statements have been skipped.
func ParseTurtleWith(ctx context.Context, src string, opts Options) (*rdf.Graph, error) {
	start := time.Now()
	g := rdf.NewGraph()
	p := &ttlParser{
		Cursor: Cursor{Src: src, Prefixes: map[string]string{}},
		ctx:    ctx,
		opts:   opts,
		sink:   errorSink{opts: &opts, counter: ttlSkipped},
	}
	err := p.parse(g)
	ttlMeter.Observe(p.triples, time.Since(start))
	if err != nil {
		return nil, err
	}
	return g, nil
}

type ttlParser struct {
	Cursor
	ctx     context.Context
	opts    Options
	sink    errorSink
	stmts   int
	triples int64 // triples read, duplicates included
}

// parse reads the document into g.
func (p *ttlParser) parse(g *rdf.Graph) error {
	add := func(t rdf.Triple) {
		g.Add(t)
		p.triples++
	}
	for {
		if p.stmts%64 == 0 {
			if err := p.ctx.Err(); err != nil {
				return err
			}
		}
		p.stmts++
		p.SkipWS()
		if p.Pos >= len(p.Src) {
			return nil
		}
		if err := p.statement(add); err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				return err // not a parse error
			}
			if !p.opts.Lenient {
				return fmt.Errorf("rio: turtle: %w", err)
			}
			p.recoverStatement()
			if err := p.sink.record(*pe); err != nil {
				return err
			}
		}
	}
}

// recoverStatement advances past the remainder of a malformed statement:
// it scans for the next top-level '.' terminator, skipping over quoted
// strings, IRI references, and comments so '.' characters inside them do not
// end recovery early. Reaching end of input also terminates recovery.
func (p *ttlParser) recoverStatement() {
	for p.Pos < len(p.Src) {
		switch c := p.Src[p.Pos]; c {
		case '#':
			for p.Pos < len(p.Src) && p.Src[p.Pos] != '\n' {
				p.Pos++
			}
		case '"', '\'':
			p.skipQuoted(c)
		case '<':
			for p.Pos++; p.Pos < len(p.Src) && p.Src[p.Pos] != '>' && p.Src[p.Pos] != '\n'; p.Pos++ {
			}
		case '.':
			p.Pos++
			return
		default:
			p.Pos++
		}
	}
}

// skipQuoted moves the cursor past a (possibly long) quoted string during
// recovery, tolerating unterminated strings by stopping at end of input.
func (p *ttlParser) skipQuoted(q byte) {
	long := strings.Repeat(string(q), 3)
	if strings.HasPrefix(p.Src[p.Pos:], long) {
		p.Pos += 3
		if end := strings.Index(p.Src[p.Pos:], long); end >= 0 {
			p.Pos += end + 3
		} else {
			p.Pos = len(p.Src)
		}
		return
	}
	for p.Pos++; p.Pos < len(p.Src); {
		switch c := p.Src[p.Pos]; {
		case c == '\\' && p.Pos+1 < len(p.Src):
			p.Pos += 2
		case c == q:
			p.Pos++
			return
		case c == '\n':
			// Short strings cannot span lines; treat as end of the string.
			return
		default:
			p.Pos++
		}
	}
}

// statement reads a declaration, or triples and the '.' that ends them.
func (p *ttlParser) statement(emit func(rdf.Triple)) error {
	if ok, err := p.Directive(); ok || err != nil {
		return err
	}
	if err := p.Triples(emit); err != nil {
		return err
	}
	p.SkipWS()
	if !p.Eat('.') {
		var r rune
		if p.Pos < len(p.Src) {
			r, _ = utf8.DecodeRuneInString(p.Src[p.Pos:])
		}
		return p.Errorf("expected '.' to end statement, found %q", r)
	}
	return nil
}
