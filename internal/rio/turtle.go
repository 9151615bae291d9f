package rio

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
	"unicode"
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
	g := rdf.NewGraph()
	if err := ReadTurtleWith(ctx, src, opts, func(t rdf.Triple) { g.Add(t) }); err != nil {
		return nil, err
	}
	return g, nil
}

// ReadTurtleWith parses a Turtle document, streaming each triple to emit in
// document order without building a graph; a duplicate is emitted as often
// as it occurs. Options apply as in ParseTurtleWith. On an error, emit may
// already have seen the triples before it.
func ReadTurtleWith(ctx context.Context, src string, opts Options, emit func(rdf.Triple)) error {
	start := time.Now()
	p := &ttlParser{
		ctx:      ctx,
		opts:     opts,
		sink:     errorSink{opts: &opts, counter: ttlSkipped},
		src:      src,
		prefixes: map[string]string{},
		emitTo:   emit,
	}
	err := p.parse()
	ttlMeter.Observe(p.triples, time.Since(start))
	return err
}

// maxTurtleDepth bounds blank-node property list, collection, and quoted
// triple nesting so that hostile inputs ("[[[[…", "((((…") fail with a
// ParseError instead of overflowing the stack.
const maxTurtleDepth = 128

type ttlParser struct {
	ctx      context.Context
	opts     Options
	sink     errorSink
	src      string
	pos      int
	line     int
	depth    int
	stmts    int
	prefixes map[string]string
	base     string
	blankSeq int
	emitTo   func(rdf.Triple)
	triples  int64 // triples emitted, duplicates included
}

// emit hands one parsed triple to the caller.
func (p *ttlParser) emit(t rdf.Triple) {
	p.emitTo(t)
	p.triples++
}

// errf builds a parse error as a wrapped *ParseError carrying line, column,
// and an input snippet, so lenient mode can tell parse failures apart from
// cancellation errors.
func (p *ttlParser) errf(format string, args ...any) error {
	col := p.pos - strings.LastIndexByte(p.src[:min(p.pos, len(p.src))], '\n')
	return fmt.Errorf("rio: turtle: %w", &ParseError{
		Line:   p.line + 1,
		Col:    col,
		Input:  p.snippet(),
		Reason: fmt.Sprintf(format, args...),
	})
}

// enter guards recursive productions against pathological nesting.
func (p *ttlParser) enter() error {
	p.depth++
	if p.depth > maxTurtleDepth {
		return p.errf("nesting deeper than %d levels", maxTurtleDepth)
	}
	return nil
}

func (p *ttlParser) leave() { p.depth-- }

func (p *ttlParser) parse() error {
	for {
		if p.stmts%64 == 0 {
			if err := p.ctx.Err(); err != nil {
				return err
			}
		}
		p.stmts++
		p.skipWS()
		if p.pos >= len(p.src) {
			return nil
		}
		if err := p.statement(); err != nil {
			var pe *ParseError
			if !p.opts.Lenient || !errors.As(err, &pe) {
				return err // strict mode, or not a parse error
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
	for p.pos < len(p.src) {
		switch c := p.src[p.pos]; c {
		case '\n':
			p.line++
			p.pos++
		case '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		case '"', '\'':
			p.skipQuoted(c)
		case '<':
			for p.pos++; p.pos < len(p.src) && p.src[p.pos] != '>' && p.src[p.pos] != '\n'; p.pos++ {
			}
		case '.':
			p.pos++
			return
		default:
			p.pos++
		}
	}
}

// skipQuoted moves the cursor past a (possibly long) quoted string during
// recovery, tolerating unterminated strings by stopping at end of input.
func (p *ttlParser) skipQuoted(q byte) {
	long := strings.Repeat(string(q), 3)
	if strings.HasPrefix(p.src[p.pos:], long) {
		p.pos += 3
		if end := strings.Index(p.src[p.pos:], long); end >= 0 {
			p.line += strings.Count(p.src[p.pos:p.pos+end], "\n")
			p.pos += end + 3
		} else {
			p.line += strings.Count(p.src[p.pos:], "\n")
			p.pos = len(p.src)
		}
		return
	}
	for p.pos++; p.pos < len(p.src); {
		switch c := p.src[p.pos]; {
		case c == '\\' && p.pos+1 < len(p.src):
			p.pos += 2
		case c == q:
			p.pos++
			return
		case c == '\n':
			// Short strings cannot span lines; treat as end of the string.
			return
		default:
			p.pos++
		}
	}
}

func (p *ttlParser) statement() error {
	if p.hasKeyword("@prefix") || p.hasKeyword("PREFIX") {
		sparqlStyle := p.peekByte() == 'P'
		p.consumeWord()
		p.skipWS()
		ns, err := p.pnameNS()
		if err != nil {
			return err
		}
		p.skipWS()
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		p.prefixes[ns] = iri
		if !sparqlStyle {
			p.skipWS()
			if !p.eat('.') {
				return p.errf("expected '.' after @prefix")
			}
		}
		return nil
	}
	if p.hasKeyword("@base") || p.hasKeyword("BASE") {
		sparqlStyle := p.peekByte() == 'B'
		p.consumeWord()
		p.skipWS()
		iri, err := p.iriRef()
		if err != nil {
			return err
		}
		p.base = iri
		if !sparqlStyle {
			p.skipWS()
			if !p.eat('.') {
				return p.errf("expected '.' after @base")
			}
		}
		return nil
	}
	subj, err := p.subject()
	if err != nil {
		return err
	}
	p.skipWS()
	// A bare blank node property list may be a statement on its own.
	if subj.IsBlank() && p.peekByte() == '.' {
		p.eat('.')
		return nil
	}
	if err := p.predicateObjectList(subj); err != nil {
		return err
	}
	p.skipWS()
	if !p.eat('.') {
		return p.errf("expected '.' to end statement, found %q", p.peekRune())
	}
	return nil
}

func (p *ttlParser) predicateObjectList(subj rdf.Term) error {
	for {
		p.skipWS()
		pred, err := p.verb()
		if err != nil {
			return err
		}
		if err := p.objectList(subj, pred); err != nil {
			return err
		}
		p.skipWS()
		if !p.eat(';') {
			return nil
		}
		p.skipWS()
		// Trailing ';' before '.' or ']' is legal.
		if c := p.peekByte(); c == '.' || c == ']' || c == 0 {
			return nil
		}
	}
}

func (p *ttlParser) objectList(subj, pred rdf.Term) error {
	for {
		p.skipWS()
		obj, err := p.object()
		if err != nil {
			return err
		}
		p.emit(rdf.NewTriple(subj, pred, obj))
		p.skipWS()
		if !p.eat(',') {
			return nil
		}
	}
}

func (p *ttlParser) verb() (rdf.Term, error) {
	if p.peekByte() == 'a' && p.pos+1 < len(p.src) && isWSByte(p.src[p.pos+1]) {
		p.pos++
		return rdf.A, nil
	}
	return p.iri()
}

func (p *ttlParser) subject() (rdf.Term, error) {
	p.skipWS()
	switch c := p.peekByte(); {
	case c == '<' && strings.HasPrefix(p.src[p.pos:], "<<"):
		return p.quotedTriple()
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		return p.blankLabel()
	case c == '[':
		return p.blankPropertyList()
	case c == '(':
		return p.collection()
	default:
		return p.iri()
	}
}

func (p *ttlParser) object() (rdf.Term, error) {
	switch c := p.peekByte(); {
	case c == '<' && strings.HasPrefix(p.src[p.pos:], "<<"):
		return p.quotedTriple()
	case c == '<':
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case c == '_':
		return p.blankLabel()
	case c == '[':
		return p.blankPropertyList()
	case c == '(':
		return p.collection()
	case c == '"' || c == '\'':
		return p.stringLiteral()
	case c == '+' || c == '-' || c >= '0' && c <= '9':
		return p.numericLiteral()
	case p.hasKeyword("true"):
		p.consumeWord()
		return rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil
	case p.hasKeyword("false"):
		p.consumeWord()
		return rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil
	default:
		return p.iri()
	}
}

// quotedTriple parses an RDF-star << s p o >> term.
func (p *ttlParser) quotedTriple() (rdf.Term, error) {
	if err := p.enter(); err != nil {
		return rdf.Term{}, err
	}
	defer p.leave()
	p.pos += 2 // <<
	var comps [3]rdf.Term
	for i := range comps {
		p.skipWS()
		var c rdf.Term
		var err error
		if i == 1 {
			c, err = p.verb()
		} else {
			c, err = p.object()
		}
		if err != nil {
			return rdf.Term{}, err
		}
		comps[i] = c
	}
	p.skipWS()
	if !strings.HasPrefix(p.src[p.pos:], ">>") {
		return rdf.Term{}, p.errf("expected '>>' closing quoted triple")
	}
	p.pos += 2
	tt, err := rdf.NewTripleTerm(rdf.NewTriple(comps[0], comps[1], comps[2]))
	if err != nil {
		return rdf.Term{}, p.errf("%v", err)
	}
	return tt, nil
}

func (p *ttlParser) blankPropertyList() (rdf.Term, error) {
	if err := p.enter(); err != nil {
		return rdf.Term{}, err
	}
	defer p.leave()
	p.eat('[')
	p.blankSeq++
	node := rdf.NewBlank(fmt.Sprintf("genid%d", p.blankSeq))
	p.skipWS()
	if p.eat(']') {
		return node, nil
	}
	if err := p.predicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	p.skipWS()
	if !p.eat(']') {
		return rdf.Term{}, p.errf("expected ']' to close blank node property list")
	}
	return node, nil
}

func (p *ttlParser) collection() (rdf.Term, error) {
	if err := p.enter(); err != nil {
		return rdf.Term{}, err
	}
	defer p.leave()
	p.eat('(')
	first, rest, nilT := rdf.NewIRI(rdf.RDFFirst), rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil)
	var items []rdf.Term
	for {
		p.skipWS()
		if p.eat(')') {
			break
		}
		if p.pos >= len(p.src) {
			return rdf.Term{}, p.errf("unterminated collection")
		}
		it, err := p.object()
		if err != nil {
			return rdf.Term{}, err
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nilT, nil
	}
	head := rdf.Term{}
	var prev rdf.Term
	for i, it := range items {
		p.blankSeq++
		cell := rdf.NewBlank(fmt.Sprintf("genid%d", p.blankSeq))
		if i == 0 {
			head = cell
		} else {
			p.emit(rdf.NewTriple(prev, rest, cell))
		}
		p.emit(rdf.NewTriple(cell, first, it))
		prev = cell
	}
	p.emit(rdf.NewTriple(prev, rest, nilT))
	return head, nil
}

func (p *ttlParser) blankLabel() (rdf.Term, error) {
	if !strings.HasPrefix(p.src[p.pos:], "_:") {
		return rdf.Term{}, p.errf("malformed blank node")
	}
	p.pos += 2
	start := p.pos
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		if isAlphaNum(c) || c == '_' || c == '-' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(p.src[start:p.pos]), nil
}

func (p *ttlParser) stringLiteral() (rdf.Term, error) {
	quote := p.src[p.pos]
	long := strings.HasPrefix(p.src[p.pos:], strings.Repeat(string(quote), 3))
	var lex string
	if long {
		p.pos += 3
		end := strings.Index(p.src[p.pos:], strings.Repeat(string(quote), 3))
		if end < 0 {
			return rdf.Term{}, p.errf("unterminated long string")
		}
		lex = p.src[p.pos : p.pos+end]
		p.line += strings.Count(lex, "\n")
		p.pos += end + 3
	} else {
		p.pos++
		var b strings.Builder
		for {
			if p.pos >= len(p.src) {
				return rdf.Term{}, p.errf("unterminated string")
			}
			c := p.src[p.pos]
			if c == quote {
				p.pos++
				break
			}
			if c == '\n' {
				return rdf.Term{}, p.errf("newline in short string")
			}
			if c == '\\' {
				r, n, err := decodeEscape(p.src[p.pos:])
				if err != nil {
					return rdf.Term{}, p.errf("%v", err)
				}
				b.WriteRune(r)
				p.pos += n
				continue
			}
			b.WriteByte(c)
			p.pos++
		}
		lex = b.String()
	}
	// Suffix: @lang or ^^datatype.
	if p.peekByte() == '@' {
		p.pos++
		start := p.pos
		for p.pos < len(p.src) && (isAlphaNum(p.src[p.pos]) || p.src[p.pos] == '-') {
			p.pos++
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, p.src[start:p.pos]), nil
	}
	if strings.HasPrefix(p.src[p.pos:], "^^") {
		p.pos += 2
		dt, err := p.iri()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

func (p *ttlParser) numericLiteral() (rdf.Term, error) {
	start := p.pos
	if c := p.peekByte(); c == '+' || c == '-' {
		p.pos++
	}
	hasDot, hasExp := false, false
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c >= '0' && c <= '9':
			p.pos++
		case c == '.' && !hasDot && !hasExp && p.pos+1 < len(p.src) && p.src[p.pos+1] >= '0' && p.src[p.pos+1] <= '9':
			hasDot = true
			p.pos++
		case (c == 'e' || c == 'E') && !hasExp:
			hasExp = true
			p.pos++
			if n := p.peekByte(); n == '+' || n == '-' {
				p.pos++
			}
		default:
			goto done
		}
	}
done:
	lex := p.src[start:p.pos]
	if lex == "" || lex == "+" || lex == "-" {
		return rdf.Term{}, p.errf("malformed number")
	}
	switch {
	case hasExp:
		return rdf.NewTypedLiteral(lex, rdf.XSDDouble), nil
	case hasDot:
		return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	}
}

func (p *ttlParser) iri() (rdf.Term, error) {
	if p.peekByte() == '<' {
		iri, err := p.iriRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	}
	// Prefixed name: PN_PREFIX? ':' PN_LOCAL
	start := p.pos
	for p.pos < len(p.src) && isPNChar(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		return rdf.Term{}, p.errf("expected IRI or prefixed name at %q", p.snippet())
	}
	prefix := p.src[start:p.pos]
	p.pos++ // ':'
	localStart := p.pos
	for p.pos < len(p.src) {
		c := rune(p.src[p.pos])
		if isPNChar(c) || c == '.' && p.pos+1 < len(p.src) && isPNChar(rune(p.src[p.pos+1])) {
			p.pos++
			continue
		}
		if c == '\\' && p.pos+1 < len(p.src) { // PN_LOCAL escapes like \,
			p.pos += 2
			continue
		}
		break
	}
	local := strings.NewReplacer(`\,`, ",", `\;`, ";", `\(`, "(", `\)`, ")", `\.`, ".", `\-`, "-").
		Replace(p.src[localStart:p.pos])
	ns, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errf("undeclared prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

func (p *ttlParser) iriRef() (string, error) {
	if p.peekByte() != '<' {
		return "", p.errf("expected '<'")
	}
	end := strings.IndexByte(p.src[p.pos:], '>')
	if end < 0 {
		return "", p.errf("unterminated IRI")
	}
	iri := p.src[p.pos+1 : p.pos+end]
	p.pos += end + 1
	if p.base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = p.base + iri
	}
	return iri, nil
}

func (p *ttlParser) pnameNS() (string, error) {
	start := p.pos
	for p.pos < len(p.src) && isPNChar(rune(p.src[p.pos])) {
		p.pos++
	}
	if p.pos >= len(p.src) || p.src[p.pos] != ':' {
		return "", p.errf("expected prefix name")
	}
	ns := p.src[start:p.pos]
	p.pos++
	return ns, nil
}

func isPNChar(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-'
}

func (p *ttlParser) skipWS() {
	for p.pos < len(p.src) {
		c := p.src[p.pos]
		switch {
		case c == '\n':
			p.line++
			p.pos++
		case c == ' ' || c == '\t' || c == '\r':
			p.pos++
		case c == '#':
			for p.pos < len(p.src) && p.src[p.pos] != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

func (p *ttlParser) peekByte() byte {
	if p.pos >= len(p.src) {
		return 0
	}
	return p.src[p.pos]
}

func (p *ttlParser) peekRune() rune {
	if p.pos >= len(p.src) {
		return 0
	}
	r, _ := utf8.DecodeRuneInString(p.src[p.pos:])
	return r
}

func (p *ttlParser) eat(c byte) bool {
	if p.peekByte() == c {
		p.pos++
		return true
	}
	return false
}

// hasKeyword reports whether the input at the cursor starts with the word
// followed by a non-word character.
func (p *ttlParser) hasKeyword(w string) bool {
	if !strings.HasPrefix(p.src[p.pos:], w) {
		return false
	}
	rest := p.src[p.pos+len(w):]
	return rest == "" || !isAlphaNum(rest[0])
}

func (p *ttlParser) consumeWord() {
	for p.pos < len(p.src) && !isWSByte(p.src[p.pos]) {
		p.pos++
	}
}

func (p *ttlParser) snippet() string {
	end := p.pos + 20
	if end > len(p.src) {
		end = len(p.src)
	}
	return p.src[p.pos:end]
}

func isWSByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
