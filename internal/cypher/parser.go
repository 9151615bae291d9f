package cypher

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/pg"
)

// Parse parses a query in the supported Cypher subset.
func Parse(src string) (*Query, error) {
	p := &parser{lex: newLexer(src)}
	q, err := p.query()
	if err != nil {
		return nil, err
	}
	return q, nil
}

type parser struct {
	lex *lexer
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("cypher: %s (near %q)", fmt.Sprintf(format, args...), p.lex.context())
}

func (p *parser) query() (*Query, error) {
	q := &Query{Limit: -1}
	for {
		sq, err := p.singleQuery()
		if err != nil {
			return nil, err
		}
		q.Parts = append(q.Parts, sq)
		if !p.lex.eatKeyword("UNION") {
			break
		}
		if p.lex.eatKeyword("ALL") {
			q.All = true
		}
	}
	if p.lex.eatKeyword("ORDER") {
		if !p.lex.eatKeyword("BY") {
			return nil, p.errf("expected BY after ORDER")
		}
		for {
			name, ok := p.lex.eatIdent()
			if !ok {
				return nil, p.errf("expected ORDER BY column")
			}
			key := OrderKey{Alias: name}
			if p.lex.eatKeyword("DESC") {
				key.Desc = true
			} else {
				p.lex.eatKeyword("ASC")
			}
			q.OrderBy = append(q.OrderBy, key)
			if !p.lex.eatPunct(",") {
				break
			}
		}
	}
	if p.lex.eatKeyword("LIMIT") {
		n, ok := p.lex.eatNumber()
		if !ok {
			return nil, p.errf("expected LIMIT count")
		}
		q.Limit = int(n)
	}
	if p.lex.eatPunct(";") {
		// trailing semicolon tolerated
	}
	if !p.lex.atEOF() {
		return nil, p.errf("trailing input")
	}
	return q, nil
}

func (p *parser) singleQuery() (*SingleQuery, error) {
	sq := &SingleQuery{}
	for {
		switch {
		case p.lex.peekKeyword("OPTIONAL") || p.lex.peekKeyword("MATCH"):
			mc, err := p.matchClause()
			if err != nil {
				return nil, err
			}
			sq.Reading = append(sq.Reading, mc)
		case p.lex.peekKeyword("UNWIND"):
			p.lex.eatKeyword("UNWIND")
			e, err := p.expression()
			if err != nil {
				return nil, err
			}
			if !p.lex.eatKeyword("AS") {
				return nil, p.errf("expected AS after UNWIND expression")
			}
			alias, ok := p.lex.eatIdent()
			if !ok {
				return nil, p.errf("expected UNWIND alias")
			}
			sq.Reading = append(sq.Reading, UnwindClause{Expr: e, Alias: alias})
		case p.lex.peekKeyword("RETURN"):
			p.lex.eatKeyword("RETURN")
			rc, err := p.returnClause()
			if err != nil {
				return nil, err
			}
			sq.Return = rc
			return sq, nil
		default:
			return nil, p.errf("expected MATCH, UNWIND, or RETURN")
		}
	}
}

func (p *parser) matchClause() (MatchClause, error) {
	mc := MatchClause{}
	if p.lex.eatKeyword("OPTIONAL") {
		mc.Optional = true
	}
	if !p.lex.eatKeyword("MATCH") {
		return mc, p.errf("expected MATCH")
	}
	for {
		path, err := p.pathPattern()
		if err != nil {
			return mc, err
		}
		mc.Paths = append(mc.Paths, path)
		if !p.lex.eatPunct(",") {
			break
		}
	}
	if p.lex.eatKeyword("WHERE") {
		e, err := p.expression()
		if err != nil {
			return mc, err
		}
		mc.Where = e
	}
	return mc, nil
}

func (p *parser) pathPattern() (PathPattern, error) {
	head, err := p.nodePattern()
	if err != nil {
		return PathPattern{}, err
	}
	path := PathPattern{Head: head}
	for {
		dir := 0
		switch {
		case p.lex.eatPunct("<"):
			if !p.lex.eatPunct("-") {
				return path, p.errf("expected '-' after '<'")
			}
			dir = -1
		case p.lex.peekPunct("-"):
			p.lex.eatPunct("-")
			dir = 0 // decided after the bracket
		default:
			return path, nil
		}
		rel := RelPattern{Dir: dir}
		if p.lex.eatPunct("[") {
			if name, ok := p.lex.eatIdent(); ok {
				rel.Var = name
			}
			if p.lex.eatPunct(":") {
				for {
					t, ok := p.lex.eatIdent()
					if !ok {
						return path, p.errf("expected relationship type")
					}
					rel.Types = append(rel.Types, t)
					if !p.lex.eatPunct("|") {
						break
					}
					p.lex.eatPunct(":") // tolerate |: form
				}
			}
			if !p.lex.eatPunct("]") {
				return path, p.errf("expected ']'")
			}
		}
		if !p.lex.eatPunct("-") {
			return path, p.errf("expected '-' after relationship")
		}
		if p.lex.eatPunct(">") {
			if rel.Dir == -1 {
				return path, p.errf("relationship cannot point both ways")
			}
			rel.Dir = 1
		}
		node, err := p.nodePattern()
		if err != nil {
			return path, err
		}
		path.Hops = append(path.Hops, Hop{Rel: rel, Node: node})
	}
}

func (p *parser) nodePattern() (NodePattern, error) {
	np := NodePattern{}
	if !p.lex.eatPunct("(") {
		return np, p.errf("expected '(' starting node pattern")
	}
	if name, ok := p.lex.eatIdent(); ok {
		np.Var = name
	}
	for p.lex.eatPunct(":") {
		l, ok := p.lex.eatIdent()
		if !ok {
			return np, p.errf("expected label")
		}
		np.Labels = append(np.Labels, l)
	}
	if p.lex.eatPunct("{") {
		np.Props = map[string]pg.Value{}
		for !p.lex.peekPunct("}") {
			key, ok := p.lex.eatIdent()
			if !ok {
				return np, p.errf("expected property key")
			}
			if !p.lex.eatPunct(":") {
				return np, p.errf("expected ':' in property map")
			}
			v, err := p.constValue()
			if err != nil {
				return np, err
			}
			np.Props[key] = v
			if !p.lex.eatPunct(",") {
				break
			}
		}
		if !p.lex.eatPunct("}") {
			return np, p.errf("expected '}' closing property map")
		}
	}
	if !p.lex.eatPunct(")") {
		return np, p.errf("expected ')' closing node pattern")
	}
	return np, nil
}

func (p *parser) returnClause() (*ReturnClause, error) {
	rc := &ReturnClause{}
	if p.lex.eatKeyword("DISTINCT") {
		rc.Distinct = true
	}
	for {
		item, err := p.returnItem()
		if err != nil {
			return nil, err
		}
		rc.Items = append(rc.Items, item)
		if !p.lex.eatPunct(",") {
			break
		}
	}
	return rc, nil
}

func (p *parser) returnItem() (ReturnItem, error) {
	item := ReturnItem{}
	if p.lex.peekKeyword("COUNT") {
		p.lex.eatKeyword("COUNT")
		if !p.lex.eatPunct("(") {
			return item, p.errf("expected '(' after COUNT")
		}
		item.Agg = "COUNT"
		if p.lex.eatPunct("*") {
			item.Star = true
		} else {
			if p.lex.eatKeyword("DISTINCT") {
				item.AggDistinct = true
			}
			e, err := p.expression()
			if err != nil {
				return item, err
			}
			item.Expr = e
		}
		if !p.lex.eatPunct(")") {
			return item, p.errf("expected ')' closing COUNT")
		}
	} else {
		e, err := p.expression()
		if err != nil {
			return item, err
		}
		item.Expr = e
	}
	if p.lex.eatKeyword("AS") {
		alias, ok := p.lex.eatIdent()
		if !ok {
			return item, p.errf("expected alias after AS")
		}
		item.Alias = alias
	} else {
		item.Alias = defaultAlias(item)
	}
	return item, nil
}

func defaultAlias(item ReturnItem) string {
	if item.Agg != "" {
		return "count"
	}
	switch e := item.Expr.(type) {
	case VarExpr:
		return e.Name
	case PropExpr:
		return e.Var + "." + e.Key
	default:
		return "expr"
	}
}

// Expression grammar: or → and → not → comparison → primary.

func (p *parser) expression() (Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.lex.eatKeyword("OR") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "OR", L: l, R: r}
	}
	return l, nil
}

func (p *parser) andExpr() (Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.lex.eatKeyword("AND") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = BinaryExpr{Op: "AND", L: l, R: r}
	}
	return l, nil
}

func (p *parser) notExpr() (Expr, error) {
	if p.lex.eatKeyword("NOT") {
		e, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return NotExpr{E: e}, nil
	}
	return p.comparison()
}

func (p *parser) comparison() (Expr, error) {
	l, err := p.primary()
	if err != nil {
		return nil, err
	}
	// Postfix forms.
	switch {
	case p.lex.eatKeyword("IS"):
		neg := p.lex.eatKeyword("NOT")
		if !p.lex.eatKeyword("NULL") {
			return nil, p.errf("expected NULL after IS")
		}
		return IsNullExpr{E: l, Neg: neg}, nil
	case p.lex.eatKeyword("IN"):
		if !p.lex.eatPunct("[") {
			return nil, p.errf("expected '[' after IN")
		}
		var list []Expr
		for !p.lex.peekPunct("]") {
			e, err := p.primary()
			if err != nil {
				return nil, err
			}
			list = append(list, e)
			if !p.lex.eatPunct(",") {
				break
			}
		}
		if !p.lex.eatPunct("]") {
			return nil, p.errf("expected ']'")
		}
		return InExpr{E: l, List: list}, nil
	case p.lex.eatKeyword("STARTS"):
		if !p.lex.eatKeyword("WITH") {
			return nil, p.errf("expected WITH after STARTS")
		}
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		return CallExpr{Func: "STARTSWITH", Args: []Expr{l, r}}, nil
	case p.lex.eatKeyword("CONTAINS"):
		r, err := p.primary()
		if err != nil {
			return nil, err
		}
		return CallExpr{Func: "CONTAINS", Args: []Expr{l, r}}, nil
	}
	for _, op := range []string{"<=", ">=", "<>", "=", "<", ">"} {
		if p.lex.eatOp(op) {
			r, err := p.primary()
			if err != nil {
				return nil, err
			}
			return BinaryExpr{Op: op, L: l, R: r}, nil
		}
	}
	return l, nil
}

func (p *parser) primary() (Expr, error) {
	switch {
	case p.lex.eatPunct("("):
		e, err := p.expression()
		if err != nil {
			return nil, err
		}
		if !p.lex.eatPunct(")") {
			return nil, p.errf("expected ')'")
		}
		return e, nil
	case p.lex.peekKeyword("NULL"):
		p.lex.eatKeyword("NULL")
		return NullExpr{}, nil
	case p.lex.peekKeyword("TRUE"):
		p.lex.eatKeyword("TRUE")
		return ConstExpr{Value: true}, nil
	case p.lex.peekKeyword("FALSE"):
		p.lex.eatKeyword("FALSE")
		return ConstExpr{Value: false}, nil
	}
	if p.lex.eatPunct("$") {
		name, ok := p.lex.eatIdent()
		if !ok {
			return nil, p.errf("expected parameter name after '$'")
		}
		return ParamExpr{Name: name}, nil
	}
	if s, ok := p.lex.eatString(); ok {
		return ConstExpr{Value: s}, nil
	}
	if n, ok := p.lex.eatNumberToken(); ok {
		if strings.ContainsAny(n, ".eE") {
			f, err := strconv.ParseFloat(n, 64)
			if err != nil {
				return nil, p.errf("bad number %q", n)
			}
			return ConstExpr{Value: f}, nil
		}
		i, err := strconv.ParseInt(n, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", n)
		}
		return ConstExpr{Value: i}, nil
	}
	name, ok := p.lex.eatIdent()
	if !ok {
		return nil, p.errf("expected expression")
	}
	if p.lex.eatPunct("(") {
		fn := strings.ToUpper(name)
		switch fn {
		case "COALESCE", "LABELS", "TYPE", "TOSTRING", "SIZE", "ID":
		default:
			return nil, p.errf("unsupported function %q", name)
		}
		var args []Expr
		for !p.lex.peekPunct(")") {
			a, err := p.expression()
			if err != nil {
				return nil, err
			}
			args = append(args, a)
			if !p.lex.eatPunct(",") {
				break
			}
		}
		if !p.lex.eatPunct(")") {
			return nil, p.errf("expected ')' closing %s", name)
		}
		return CallExpr{Func: fn, Args: args}, nil
	}
	if p.lex.eatPunct(".") {
		key, ok := p.lex.eatIdent()
		if !ok {
			return nil, p.errf("expected property key after '.'")
		}
		return PropExpr{Var: name, Key: key}, nil
	}
	return VarExpr{Name: name}, nil
}

func (p *parser) constValue() (pg.Value, error) {
	if s, ok := p.lex.eatString(); ok {
		return s, nil
	}
	if n, ok := p.lex.eatNumberToken(); ok {
		if strings.ContainsAny(n, ".eE") {
			return strconv.ParseFloat(n, 64)
		}
		return strconv.ParseInt(n, 10, 64)
	}
	if p.lex.eatKeyword("TRUE") {
		return true, nil
	}
	if p.lex.eatKeyword("FALSE") {
		return false, nil
	}
	return nil, p.errf("expected literal value")
}
