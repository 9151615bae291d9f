package sparql

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// Parse parses a SELECT query in the supported subset. Its terms and its
// PREFIX and BASE declarations are read by rio.Cursor, as Turtle reads them.
func Parse(src string) (*Query, error) {
	q := &Query{Prefixes: map[string]string{"xsd": rdf.XSDNS, "rdf": rdf.RDFNS, "rdfs": rdf.RDFSNS}, Limit: -1}
	p := &parser{Cursor: rio.Cursor{Src: src, Prefixes: q.Prefixes}, q: q}
	if err := p.parse(); err != nil {
		return nil, fmt.Errorf("sparql: %w", err)
	}
	return p.q, nil
}

type parser struct {
	rio.Cursor
	q *Query
}

func (p *parser) parse() error {
	for {
		p.SkipWS()
		if p.Peek() == '@' { // Turtle's spelling, not SPARQL's
			break
		}
		if ok, err := p.Directive(); err != nil {
			return err
		} else if !ok {
			break
		}
	}
	if p.Keyword("ASK") {
		// ASK [WHERE] { ... } — the WHERE keyword is optional per the
		// SPARQL grammar.
		p.q.Ask = true
		p.SkipWS()
		p.Keyword("WHERE")
		p.SkipWS()
		group, err := p.group()
		if err != nil {
			return err
		}
		p.q.Where = group
		p.SkipWS()
		if p.Pos < len(p.Src) {
			return p.Errorf("trailing input after ASK group")
		}
		return nil
	}
	if !p.Keyword("SELECT") {
		return p.Errorf("expected SELECT or ASK")
	}
	p.SkipWS()
	if p.Keyword("DISTINCT") {
		p.q.Distinct = true
		p.SkipWS()
	}
	// Projection: *, variables, or (COUNT(*) AS ?c).
	switch {
	case p.Peek() == '*':
		p.Pos++
	case p.Peek() == '(':
		p.Pos++
		p.SkipWS()
		if !p.Keyword("COUNT") {
			return p.Errorf("only COUNT(*) aggregation is supported")
		}
		p.SkipWS()
		if !p.literalToken("(*)") && !p.literalToken("( * )") {
			return p.Errorf("expected (*) after COUNT")
		}
		p.SkipWS()
		if !p.Keyword("AS") {
			return p.Errorf("expected AS in COUNT projection")
		}
		p.SkipWS()
		v, err := p.variable()
		if err != nil {
			return err
		}
		p.q.CountVar = v
		p.SkipWS()
		if p.Peek() != ')' {
			return p.Errorf("expected ')' closing COUNT projection")
		}
		p.Pos++
	default:
		for {
			p.SkipWS()
			if p.Peek() != '?' {
				break
			}
			v, err := p.variable()
			if err != nil {
				return err
			}
			p.q.Vars = append(p.q.Vars, v)
		}
		if len(p.q.Vars) == 0 {
			return p.Errorf("no projection variables")
		}
	}
	p.SkipWS()
	if !p.Keyword("WHERE") {
		return p.Errorf("expected WHERE")
	}
	p.SkipWS()
	group, err := p.group()
	if err != nil {
		return err
	}
	p.q.Where = group

	p.SkipWS()
	if p.Keyword("ORDER") {
		p.SkipWS()
		if !p.Keyword("BY") {
			return p.Errorf("expected BY after ORDER")
		}
		for {
			p.SkipWS()
			desc := false
			if p.Keyword("DESC") {
				desc = true
				p.SkipWS()
				if p.Peek() != '(' {
					return p.Errorf("expected '(' after DESC")
				}
				p.Pos++
				p.SkipWS()
			}
			if p.Peek() != '?' {
				break
			}
			v, err := p.variable()
			if err != nil {
				return err
			}
			if desc {
				p.SkipWS()
				if p.Peek() != ')' {
					return p.Errorf("expected ')' after DESC variable")
				}
				p.Pos++
			}
			p.q.OrderBy = append(p.q.OrderBy, OrderKey{Var: v, Desc: desc})
		}
	}
	// LIMIT and OFFSET are accepted in either order, each at most once.
	sawLimit, sawOffset := false, false
	for {
		p.SkipWS()
		switch {
		case !sawLimit && p.Keyword("LIMIT"):
			p.SkipWS()
			n, err := p.number()
			if err != nil {
				return err
			}
			p.q.Limit = int(n)
			sawLimit = true
			continue
		case !sawOffset && p.Keyword("OFFSET"):
			p.SkipWS()
			n, err := p.number()
			if err != nil {
				return err
			}
			p.q.Offset = int(n)
			sawOffset = true
			continue
		}
		break
	}
	p.SkipWS()
	if p.Pos < len(p.Src) {
		return p.Errorf("trailing input")
	}
	return nil
}

// group parses { elements } where elements are triples blocks, FILTER,
// OPTIONAL groups, and group-level UNION chains.
func (p *parser) group() (*Group, error) {
	if p.Peek() != '{' {
		return nil, p.Errorf("expected '{'")
	}
	p.Pos++
	g := &Group{}
	for {
		p.SkipWS()
		switch {
		case p.Peek() == '}':
			p.Pos++
			return g, nil
		case p.Keyword("FILTER"):
			p.SkipWS()
			if p.Peek() != '(' {
				return nil, p.Errorf("expected '(' after FILTER")
			}
			e, err := p.parenExpr()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Filter{Expr: e})
		case p.Keyword("OPTIONAL"):
			p.SkipWS()
			sub, err := p.group()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, Optional{Group: sub})
		case p.Peek() == '{':
			// Brace-delimited branch: expect a UNION chain.
			first, err := p.group()
			if err != nil {
				return nil, err
			}
			u := Union{Branches: []*Group{first}}
			for {
				p.SkipWS()
				if !p.Keyword("UNION") {
					break
				}
				p.SkipWS()
				next, err := p.group()
				if err != nil {
					return nil, err
				}
				u.Branches = append(u.Branches, next)
			}
			g.Elements = append(g.Elements, u)
		case p.Pos >= len(p.Src):
			return nil, p.Errorf("unterminated group")
		default:
			bgp, err := p.triplesBlock()
			if err != nil {
				return nil, err
			}
			g.Elements = append(g.Elements, bgp)
		}
	}
}

// triplesBlock parses triple patterns with ';' and ',' abbreviations until
// a token that starts another group element.
func (p *parser) triplesBlock() (BGP, error) {
	var bgp BGP
	for {
		p.SkipWS()
		subj, err := p.termOrVar()
		if err != nil {
			return bgp, err
		}
		for {
			p.SkipWS()
			pred, err := p.verb()
			if err != nil {
				return bgp, err
			}
			for {
				p.SkipWS()
				obj, err := p.termOrVar()
				if err != nil {
					return bgp, err
				}
				bgp.Patterns = append(bgp.Patterns, TriplePattern{S: subj, P: pred, O: obj})
				p.SkipWS()
				if p.Peek() == ',' {
					p.Pos++
					continue
				}
				break
			}
			p.SkipWS()
			if p.Peek() == ';' {
				p.Pos++
				p.SkipWS()
				// A dangling ';' before '.' or '}' is tolerated.
				if c := p.Peek(); c == '.' || c == '}' {
					break
				}
				continue
			}
			break
		}
		p.SkipWS()
		if p.Peek() == '.' {
			p.Pos++
			p.SkipWS()
		}
		// Stop when the next token is not the start of a new triple.
		c := p.Peek()
		if c == '}' || c == '{' || c == 0 ||
			p.peekKeyword("FILTER") || p.peekKeyword("OPTIONAL") || p.peekKeyword("UNION") {
			return bgp, nil
		}
	}
}

func (p *parser) verb() (TermOrVar, error) {
	if p.Peek() == 'a' && p.Pos+1 < len(p.Src) && isSpaceByte(p.Src[p.Pos+1]) {
		p.Pos++
		return TermOrVar{Term: rdf.A}, nil
	}
	return p.termOrVar()
}

func (p *parser) termOrVar() (TermOrVar, error) {
	p.SkipWS()
	if p.Peek() == '?' {
		v, err := p.variable()
		return TermOrVar{Var: v}, err
	}
	t, err := p.term()
	return TermOrVar{Term: t}, err
}

func (p *parser) variable() (string, error) {
	if p.Peek() != '?' {
		return "", p.Errorf("expected variable")
	}
	p.Pos++
	name := p.name()
	if name == "" {
		return "", p.Errorf("empty variable name")
	}
	return name, nil
}

// term reads an RDF term. SPARQL reads a blank node in a pattern as a
// variable, which this subset does not do, so it refuses one.
func (p *parser) term() (rdf.Term, error) {
	start := p.Pos
	t, err := p.Term()
	if err == nil && blankIn(t) {
		p.Pos = start
		err = p.Errorf("blank node patterns are not supported; use a variable")
	}
	return t, err
}

// number reads a LIMIT or OFFSET count.
func (p *parser) number() (int64, error) {
	start := p.Pos
	if b := p.Peek(); b >= '0' && b <= '9' {
		if t, err := p.Term(); err == nil && t.Datatype == rdf.XSDInteger {
			if n, err := strconv.ParseInt(t.Value, 10, 64); err == nil {
				return n, nil
			}
		}
	}
	p.Pos = start
	return 0, p.Errorf("expected number")
}

// parenExpr parses a parenthesized expression.
func (p *parser) parenExpr() (Expr, error) {
	if p.Peek() != '(' {
		return nil, p.Errorf("expected '('")
	}
	p.Pos++
	e, err := p.orExpr()
	if err != nil {
		return nil, err
	}
	p.SkipWS()
	if p.Peek() != ')' {
		return nil, p.Errorf("expected ')'")
	}
	p.Pos++
	return e, nil
}

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.SkipWS()
		if !strings.HasPrefix(p.Src[p.Pos:], "||") {
			return l, nil
		}
		p.Pos += 2
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "||", L: l, R: r}
	}
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.cmpExpr()
	if err != nil {
		return nil, err
	}
	for {
		p.SkipWS()
		if !strings.HasPrefix(p.Src[p.Pos:], "&&") {
			return l, nil
		}
		p.Pos += 2
		r, err := p.cmpExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "&&", L: l, R: r}
	}
}

func (p *parser) cmpExpr() (Expr, error) {
	l, err := p.primaryExpr()
	if err != nil {
		return nil, err
	}
	p.SkipWS()
	for _, op := range []string{"!=", "<=", ">=", "=", "<", ">"} {
		if strings.HasPrefix(p.Src[p.Pos:], op) {
			// '<' beginning an IRI is not a comparison.
			if op == "<" && p.atTerm() {
				break
			}
			p.Pos += len(op)
			r, err := p.primaryExpr()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

// atTerm reports whether a term, such as an IRI reference, starts at the
// cursor.
func (p *parser) atTerm() bool {
	start := p.Pos
	_, err := p.Term()
	p.Pos = start
	return err == nil
}

func (p *parser) primaryExpr() (Expr, error) {
	p.SkipWS()
	switch c := p.Peek(); {
	case c == '!':
		p.Pos++
		e, err := p.primaryExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	case c == '(':
		return p.parenExpr()
	case c == '?':
		v, err := p.variable()
		if err != nil {
			return nil, err
		}
		return VarExpr{Name: v}, nil
	default:
		// A function call, or a constant term.
		start := p.Pos
		word := p.name()
		p.SkipWS()
		if word != "" && p.Peek() == '(' {
			fn := strings.ToUpper(word)
			switch fn {
			case "BOUND", "ISIRI", "ISLITERAL", "ISBLANK", "STR", "LANG", "DATATYPE", "REGEX", "CONTAINS", "STRSTARTS":
			default:
				return nil, p.Errorf("unsupported function %q", word)
			}
			p.Pos++
			var args []Expr
			for {
				p.SkipWS()
				if p.Peek() == ')' {
					p.Pos++
					break
				}
				a, err := p.orExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				p.SkipWS()
				if p.Peek() == ',' {
					p.Pos++
				}
			}
			return CallExpr{Func: fn, Args: args}, nil
		}
		p.Pos = start
		t, err := p.term()
		return ConstExpr{Term: t}, err
	}
}

// Lexical helpers.

func (p *parser) peekKeyword(w string) bool {
	save := p.Pos
	ok := p.Keyword(w)
	p.Pos = save
	return ok
}

// literalToken consumes an exact string (ignoring internal spacing rules).
func (p *parser) literalToken(s string) bool {
	compact := strings.ReplaceAll(s, " ", "")
	i := p.Pos
	for _, want := range []byte(compact) {
		for i < len(p.Src) && isSpaceByte(p.Src[i]) {
			i++
		}
		if i >= len(p.Src) || p.Src[i] != want {
			return false
		}
		i++
	}
	p.Pos = i
	return true
}

// name reads a variable or function name: letters, digits and '_'.
func (p *parser) name() string {
	start := p.Pos
	for p.Pos < len(p.Src) {
		r, n := rune(p.Src[p.Pos]), 1
		if r >= utf8.RuneSelf {
			r, n = utf8.DecodeRuneInString(p.Src[p.Pos:])
		}
		if r != '_' && !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			break
		}
		p.Pos += n
	}
	return p.Src[start:p.Pos]
}

func isSpaceByte(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
