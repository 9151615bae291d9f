package rio

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/rdf"
)

// Cursor reads Turtle syntax from Src at byte offset Pos: RDF terms (IRI
// references resolved against Base, prefixed names expanded through
// Prefixes, strings in their four forms with escapes, language tags and
// datatypes, numbers, booleans, blank node labels, RDF-star quoted triples),
// triples with Turtle's abbreviations, and PREFIX/BASE declarations.
// SPARQL's term syntax is Turtle's, so the Turtle reader and both SPARQL
// parsers read terms through a Cursor; the N-Triples line parser, the
// loader's hot path, stays separate. Errors are *ParseError values whose
// line and column are those of Pos in Src.
type Cursor struct {
	Src string
	Pos int
	// Prefixes maps prefix names to namespace IRIs; a declaration writes
	// into it, so it must not be nil when one is read.
	Prefixes map[string]string
	Base     string

	emit     func(rdf.Triple) // Triples' sink, which [ … ] and ( … ) also feed
	depth    int
	blankSeq int
	// Src[:lineAt] holds line newlines: Errorf resumes the count there.
	lineAt, line int
}

// maxTurtleDepth bounds blank-node property list, collection, and quoted
// triple nesting so that hostile inputs ("[[[[…", "((((…") fail with a
// ParseError instead of overflowing the stack.
const maxTurtleDepth = 128

// localEscapes are the characters PN_LOCAL may escape with a backslash.
const localEscapes = "_~.-!$&'()*+,;=/?#@%"

// Errorf returns a *ParseError at the cursor.
func (c *Cursor) Errorf(format string, args ...any) error {
	pos := min(c.Pos, len(c.Src))
	if pos < c.lineAt {
		c.lineAt, c.line = 0, 0
	}
	c.line += strings.Count(c.Src[c.lineAt:pos], "\n")
	c.lineAt = pos
	return &ParseError{
		Line:   c.line + 1,
		Col:    pos - strings.LastIndexByte(c.Src[:pos], '\n'),
		Input:  c.Src[pos:min(pos+20, len(c.Src))],
		Reason: fmt.Sprintf(format, args...),
	}
}

// SkipWS moves past white space and '#' comments.
func (c *Cursor) SkipWS() {
	for c.Pos < len(c.Src) {
		switch c.Src[c.Pos] {
		case ' ', '\t', '\r', '\n':
			c.Pos++
		case '#':
			if i := strings.IndexByte(c.Src[c.Pos:], '\n'); i >= 0 {
				c.Pos += i
			} else {
				c.Pos = len(c.Src)
			}
		default:
			return
		}
	}
}

// Peek returns the byte at the cursor, 0 at the end of the input.
func (c *Cursor) Peek() byte {
	if c.Pos >= len(c.Src) {
		return 0
	}
	return c.Src[c.Pos]
}

// Eat consumes b when it is at the cursor.
func (c *Cursor) Eat(b byte) bool {
	if c.Peek() == b {
		c.Pos++
		return true
	}
	return false
}

// Keyword consumes w, in any case, when it stands at the cursor as a whole
// word.
func (c *Cursor) Keyword(w string) bool { return c.word(w, true) }

// word consumes w when the input at the cursor starts with it, in any case
// if fold is set, and no name character follows.
func (c *Cursor) word(w string, fold bool) bool {
	if len(c.Src)-c.Pos < len(w) || c.Src[c.Pos]|0x20 != w[0]|0x20 {
		return false
	}
	if s := c.Src[c.Pos : c.Pos+len(w)]; s != w && (!fold || !strings.EqualFold(s, w)) {
		return false
	}
	if r, _ := c.runeAt(c.Pos + len(w)); isPNChar(r) || r == ':' {
		return false
	}
	c.Pos += len(w)
	return true
}

// runeAt decodes the character at byte offset i, utf8.RuneError at the end
// of the input.
func (c *Cursor) runeAt(i int) (rune, int) {
	if i < len(c.Src) && c.Src[i] < utf8.RuneSelf {
		return rune(c.Src[i]), 1
	}
	return utf8.DecodeRuneInString(c.Src[i:])
}

// Directive reads a PREFIX or BASE declaration at the cursor, in SPARQL's
// spelling or in Turtle's '@' one, which ends with '.', into Prefixes or
// Base, and reports whether there was one.
func (c *Cursor) Directive() (bool, error) {
	start := c.Pos
	turtle := c.Eat('@')
	kw := "prefix"
	switch {
	case c.Keyword("PREFIX"):
		c.SkipWS()
		ns, err := c.name(false)
		if err != nil {
			return true, err
		}
		if !c.Eat(':') {
			return true, c.Errorf("expected prefix name")
		}
		c.SkipWS()
		iri, err := c.iriRef()
		if err != nil {
			return true, err
		}
		c.Prefixes[ns] = iri
	case c.Keyword("BASE"):
		kw = "base"
		c.SkipWS()
		iri, err := c.iriRef()
		if err != nil {
			return true, err
		}
		c.Base = iri
	default:
		c.Pos = start
		return false, nil
	}
	if turtle {
		c.SkipWS()
		if !c.Eat('.') {
			return true, c.Errorf("expected '.' after @%s", kw)
		}
	}
	return true, nil
}

// Triples reads a subject and its predicate-object list — or a blank node
// alone, such as a property list — handing each triple, those [ … ] and
// ( … ) make included, to emit in document order. The '.' after it is left
// to the caller.
func (c *Cursor) Triples(emit func(rdf.Triple)) error {
	c.emit = emit
	defer func() { c.emit = nil }()
	subj, err := c.subject()
	if err != nil {
		return err
	}
	c.SkipWS()
	if b := c.Peek(); subj.IsBlank() && (b == '.' || b == '}') {
		return nil
	}
	return c.predicateObjectList(subj)
}

func (c *Cursor) enter() error {
	c.depth++
	if c.depth > maxTurtleDepth {
		return c.Errorf("nesting deeper than %d levels", maxTurtleDepth)
	}
	return nil
}

func (c *Cursor) leave() { c.depth-- }

func (c *Cursor) predicateObjectList(subj rdf.Term) error {
	for {
		c.SkipWS()
		pred, err := c.verb()
		if err != nil {
			return err
		}
		if err := c.objectList(subj, pred); err != nil {
			return err
		}
		c.SkipWS()
		if !c.Eat(';') {
			return nil
		}
		c.SkipWS()
		// Trailing ';' before '.', ']' or '}' is legal.
		if b := c.Peek(); b == '.' || b == ']' || b == '}' || b == 0 {
			return nil
		}
	}
}

func (c *Cursor) objectList(subj, pred rdf.Term) error {
	for {
		c.SkipWS()
		obj, err := c.Term()
		if err != nil {
			return err
		}
		c.emit(rdf.NewTriple(subj, pred, obj))
		c.SkipWS()
		if !c.Eat(',') {
			return nil
		}
	}
}

func (c *Cursor) verb() (rdf.Term, error) {
	if c.Peek() == 'a' && c.Pos+1 < len(c.Src) && isWSByte(c.Src[c.Pos+1]) {
		c.Pos++
		return rdf.A, nil
	}
	return c.iri()
}

func (c *Cursor) subject() (rdf.Term, error) {
	c.SkipWS()
	switch b := c.Peek(); {
	case b == '<', b == '_', b == '[', b == '(':
		return c.Term()
	default:
		return c.iri()
	}
}

// Term reads the term at the cursor: an IRI, a literal, a number, a boolean,
// a blank node label or [], or a quoted triple. A blank node property list
// or a non-empty collection is an error unless Triples is reading it, outside
// a quoted triple: the triples it stands for would have nowhere to go.
func (c *Cursor) Term() (rdf.Term, error) {
	switch b := c.Peek(); {
	case b == '<' && strings.HasPrefix(c.Src[c.Pos:], "<<"):
		return c.quotedTriple()
	case b == '<':
		iri, err := c.iriRef()
		return rdf.NewIRI(iri), err
	case b == '_':
		return c.blankLabel()
	case b == '[':
		return c.blankPropertyList()
	case b == '(':
		return c.collection()
	case b == '"' || b == '\'':
		return c.literal()
	case b == '+' || b == '-' || b >= '0' && b <= '9':
		return c.numericLiteral()
	case b == 't' && c.word("true", false):
		return rdf.NewTypedLiteral("true", rdf.XSDBoolean), nil
	case b == 'f' && c.word("false", false):
		return rdf.NewTypedLiteral("false", rdf.XSDBoolean), nil
	default:
		return c.iri()
	}
}

// quotedTriple parses an RDF-star << s p o >> term. Turtle-star gives its
// components no blank node property list and no collection: the triples
// they stand for would be asserted while the quoted one is not.
func (c *Cursor) quotedTriple() (rdf.Term, error) {
	if err := c.enter(); err != nil {
		return rdf.Term{}, err
	}
	emit := c.emit
	c.emit = nil
	defer func() { c.leave(); c.emit = emit }()
	c.Pos += 2 // <<
	var comps [3]rdf.Term
	for i := range comps {
		c.SkipWS()
		var err error
		if i == 1 {
			comps[i], err = c.verb()
		} else {
			comps[i], err = c.Term()
		}
		if err != nil {
			return rdf.Term{}, err
		}
	}
	c.SkipWS()
	if !strings.HasPrefix(c.Src[c.Pos:], ">>") {
		return rdf.Term{}, c.Errorf("expected '>>' closing quoted triple")
	}
	c.Pos += 2
	tt, err := rdf.NewTripleTerm(rdf.NewTriple(comps[0], comps[1], comps[2]))
	if err != nil {
		return rdf.Term{}, c.Errorf("%v", err)
	}
	return tt, nil
}

// newBlank returns the next blank node of [ … ] and ( … ), labelled as
// the cursor numbers them from 1.
func (c *Cursor) newBlank() rdf.Term {
	c.blankSeq++
	return rdf.NewBlank(fmt.Sprintf("genid%d", c.blankSeq))
}

func (c *Cursor) blankPropertyList() (rdf.Term, error) {
	if err := c.enter(); err != nil {
		return rdf.Term{}, err
	}
	defer c.leave()
	c.Pos++ // [
	node := c.newBlank()
	c.SkipWS()
	if c.Eat(']') {
		return node, nil
	}
	if c.emit == nil {
		return rdf.Term{}, c.Errorf("a blank node property list cannot stand here")
	}
	if err := c.predicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	c.SkipWS()
	if !c.Eat(']') {
		return rdf.Term{}, c.Errorf("expected ']' to close blank node property list")
	}
	return node, nil
}

func (c *Cursor) collection() (rdf.Term, error) {
	if err := c.enter(); err != nil {
		return rdf.Term{}, err
	}
	defer c.leave()
	c.Pos++ // (
	first, rest, nilT := rdf.NewIRI(rdf.RDFFirst), rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil)
	var items []rdf.Term
	for {
		c.SkipWS()
		if c.Eat(')') {
			break
		}
		if c.Pos >= len(c.Src) {
			return rdf.Term{}, c.Errorf("unterminated collection")
		}
		if c.emit == nil {
			return rdf.Term{}, c.Errorf("a collection cannot stand here")
		}
		it, err := c.Term()
		if err != nil {
			return rdf.Term{}, err
		}
		items = append(items, it)
	}
	if len(items) == 0 {
		return nilT, nil
	}
	var head, prev rdf.Term
	for i, it := range items {
		cell := c.newBlank()
		if i == 0 {
			head = cell
		} else {
			c.emit(rdf.NewTriple(prev, rest, cell))
		}
		c.emit(rdf.NewTriple(cell, first, it))
		prev = cell
	}
	c.emit(rdf.NewTriple(prev, rest, nilT))
	return head, nil
}

func (c *Cursor) blankLabel() (rdf.Term, error) {
	if !strings.HasPrefix(c.Src[c.Pos:], "_:") {
		return rdf.Term{}, c.Errorf("malformed blank node")
	}
	c.Pos += 2
	label, err := c.name(false)
	if err == nil && label == "" {
		err = c.Errorf("empty blank node label")
	}
	return rdf.NewBlank(label), err
}

// literal reads a string in any of its four forms, decoding its escapes,
// and the language tag or datatype after it.
func (c *Cursor) literal() (rdf.Term, error) {
	lex, err := c.str()
	if err != nil {
		return rdf.Term{}, err
	}
	if c.Eat('@') {
		start := c.Pos
		for c.Pos < len(c.Src) && (isAlphaNum(c.Src[c.Pos]) || c.Src[c.Pos] == '-') {
			c.Pos++
		}
		if c.Pos == start {
			return rdf.Term{}, c.Errorf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, c.Src[start:c.Pos]), nil
	}
	if strings.HasPrefix(c.Src[c.Pos:], "^^") {
		c.Pos += 2
		dt, err := c.iri()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

// str reads a quoted string in any of its four forms: short or long
// (tripled quotes), with single or double quotes. Only a long string may
// hold a raw line break.
func (c *Cursor) str() (string, error) {
	q := c.Src[c.Pos]
	end := c.Src[c.Pos : c.Pos+1]
	if c.Pos+2 < len(c.Src) && c.Src[c.Pos+1] == q && c.Src[c.Pos+2] == q {
		end = c.Src[c.Pos : c.Pos+3]
	}
	c.Pos += len(end)
	from := c.Pos
	var dec []byte // the decoded string up to from, once it has an escape
	for i := c.Pos; i < len(c.Src); {
		switch b := c.Src[i]; {
		case b == q && strings.HasPrefix(c.Src[i:], end):
			s := c.Src[from:i]
			if dec != nil {
				s = string(append(dec, s...))
			}
			c.Pos = i + len(end)
			return s, nil
		case b == '\\':
			r, n, err := decodeEscape(c.Src[i:])
			if err != nil {
				c.Pos = i
				return "", c.Errorf("%v", err)
			}
			dec = utf8.AppendRune(append(dec, c.Src[from:i]...), r)
			i += n
			from = i
		case b == '\n' && len(end) == 1:
			c.Pos = i
			return "", c.Errorf("newline in short string")
		default:
			i++
		}
	}
	c.Pos = len(c.Src)
	return "", c.Errorf("unterminated string")
}

func (c *Cursor) numericLiteral() (rdf.Term, error) {
	start := c.Pos
	if b := c.Peek(); b == '+' || b == '-' {
		c.Pos++
	}
	hasDot, hasExp := false, false
scan:
	for c.Pos < len(c.Src) {
		switch b := c.Src[c.Pos]; {
		case b >= '0' && b <= '9':
			c.Pos++
		case b == '.' && !hasDot && !hasExp && c.Pos+1 < len(c.Src) && c.Src[c.Pos+1] >= '0' && c.Src[c.Pos+1] <= '9':
			hasDot = true
			c.Pos++
		case (b == 'e' || b == 'E') && !hasExp:
			hasExp = true
			c.Pos++
			if n := c.Peek(); n == '+' || n == '-' {
				c.Pos++
			}
		default:
			break scan
		}
	}
	lex := c.Src[start:c.Pos]
	if lex == "" || lex == "+" || lex == "-" {
		return rdf.Term{}, c.Errorf("malformed number")
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

// iri reads an IRI reference or a prefixed name.
func (c *Cursor) iri() (rdf.Term, error) {
	if c.Peek() == '<' {
		iri, err := c.iriRef()
		return rdf.NewIRI(iri), err
	}
	start := c.Pos
	prefix, err := c.name(false)
	if err != nil {
		return rdf.Term{}, err
	}
	if !c.Eat(':') {
		c.Pos = start
		return rdf.Term{}, c.Errorf("expected IRI or prefixed name")
	}
	local, err := c.name(true)
	if err != nil {
		return rdf.Term{}, err
	}
	ns, ok := c.Prefixes[prefix]
	if !ok {
		c.Pos = start
		return rdf.Term{}, c.Errorf("undeclared prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

// iriRef reads an IRI reference, <…>, resolved against Base. IRIREF
// excludes white space, control characters and <>"{}|^`\ from it.
func (c *Cursor) iriRef() (string, error) {
	if c.Peek() != '<' {
		return "", c.Errorf("expected '<'")
	}
	i := c.Pos + 1
	for i < len(c.Src) && !notInIRI[c.Src[i]] {
		i++
	}
	switch {
	case i == len(c.Src):
		return "", c.Errorf("unterminated IRI")
	case c.Src[i] != '>':
		return "", c.Errorf("%q is not allowed in an IRI reference", c.Src[i])
	}
	iri := c.Src[c.Pos+1 : i]
	c.Pos = i + 1
	if c.Base != "" && !strings.Contains(iri, "://") && !strings.HasPrefix(iri, "urn:") {
		iri = c.Base + iri
	}
	return iri, nil
}

// notInIRI marks the bytes that end an IRI reference: '>', and those IRIREF
// excludes.
var notInIRI = func() (t [256]bool) {
	for b := 0; b <= ' '; b++ {
		t[b] = true
	}
	for _, b := range []byte("<>\"{}|^`\\") {
		t[b] = true
	}
	return t
}()

// name reads a name at the cursor: PN_CHARS with '.' inside it but not at
// its end, as a prefix or a blank node label; local adds PN_LOCAL's ':',
// %-hex pairs and backslash escapes, which it decodes.
func (c *Cursor) name(local bool) (string, error) {
	from := c.Pos
	var dec []byte // the decoded name up to from, once it has an escape
scan:
	for c.Pos < len(c.Src) {
		if b := c.Src[c.Pos]; isAlphaNum(b) || b == '_' || b == '-' {
			c.Pos++
			continue
		} else if b < utf8.RuneSelf && !strings.ContainsRune(".:%\\", rune(b)) {
			break
		}
		r, n := c.runeAt(c.Pos)
		switch {
		case isPNChar(r), local && r == ':':
		case local && r == '%':
			if c.Pos+2 >= len(c.Src) || !isHex(c.Src[c.Pos+1]) || !isHex(c.Src[c.Pos+2]) {
				return "", c.Errorf("'%%' in a local name must start a %%-hex pair")
			}
			n = 3
		case local && r == '\\':
			if c.Pos+1 >= len(c.Src) || !strings.ContainsRune(localEscapes, rune(c.Src[c.Pos+1])) {
				return "", c.Errorf("bad escape in a local name")
			}
			dec = append(append(dec, c.Src[from:c.Pos]...), c.Src[c.Pos+1])
			c.Pos += 2
			from = c.Pos
			continue
		case r == '.':
			n = len(c.Src[c.Pos:]) - len(strings.TrimLeft(c.Src[c.Pos:], "."))
			if next, _ := c.runeAt(c.Pos + n); !isPNChar(next) &&
				(!local || next != ':' && next != '%' && next != '\\') {
				break scan
			}
		default:
			break scan
		}
		c.Pos += n
	}
	if dec != nil {
		return string(append(dec, c.Src[from:c.Pos]...)), nil
	}
	return c.Src[from:c.Pos], nil
}

func isPNChar(r rune) bool {
	return r < utf8.RuneSelf && (isAlphaNum(byte(r)) || r == '_' || r == '-') ||
		r >= utf8.RuneSelf && (unicode.IsLetter(r) || unicode.IsDigit(r))
}

func isHex(b byte) bool { return b >= '0' && b <= '9' || b|0x20 >= 'a' && b|0x20 <= 'f' }

func isWSByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
