package sparql

import (
	"errors"
	"regexp"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// A FILTER error eliminates the solution and is never reported, so the
// evaluator signals every kind of it with one allocation-free value.
var errFilter = errors.New("sparql: filter error")

// lexpr is a lowered filter expression: *lVar, *lConst, *lNot, *lBinary or
// *lCall — the AST with variables resolved to slots and per-query work
// (parsing constant literals, compiling constant patterns) already done.
type lexpr interface{}

type lVar struct{ slot int }

type lConst struct {
	term rdf.Term
	lit  litValue // the parsed literal, when term is one
}

type lNot struct{ e lexpr }

type lBinary struct {
	op   string
	l, r lexpr
}

type lCall struct {
	fn   string
	args []lexpr
	// REGEX with a constant pattern compiles it once; a pattern that does
	// not compile eliminates every solution, as compiling it per row did.
	re    *regexp.Regexp
	reBad bool
}

// litValue is a literal's parsed value, or the error parsing it gave.
type litValue struct {
	v   xsd.Value
	err error
}

func (pl *plan) lowerExpr(e Expr) lexpr {
	switch x := e.(type) {
	case VarExpr:
		return &lVar{slot: pl.slot(x.Name)}
	case ConstExpr:
		c := &lConst{term: x.Term}
		if x.Term.Kind == rdf.Literal {
			c.lit.v, c.lit.err = xsd.Parse(x.Term.Value, x.Term.DatatypeIRI())
		}
		return c
	case NotExpr:
		return &lNot{e: pl.lowerExpr(x.E)}
	case BinaryExpr:
		return &lBinary{op: x.Op, l: pl.lowerExpr(x.L), r: pl.lowerExpr(x.R)}
	case CallExpr:
		c := &lCall{fn: x.Func, args: make([]lexpr, len(x.Args))}
		for i, a := range x.Args {
			c.args[i] = pl.lowerExpr(a)
		}
		if x.Func == "REGEX" && len(x.Args) > 1 {
			if pat, ok := x.Args[1].(ConstExpr); ok {
				re, err := regexp.Compile(pat.Term.Value)
				c.re, c.reBad = re, err != nil
			}
		}
		return c
	default:
		return nil // evalExpr reports it
	}
}

// exprValue is the result of a filter expression: a term or a boolean. lit
// is set when the term is a constant literal parsed at lowering.
type exprValue struct {
	isBool bool
	b      bool
	term   rdf.Term
	lit    *litValue
}

func boolValue(b bool) exprValue { return exprValue{isBool: true, b: b} }

func truthy(v exprValue) bool {
	if v.isBool {
		return v.b
	}
	// Effective boolean value of a literal.
	if v.term.IsLiteral() {
		switch v.term.DatatypeIRI() {
		case rdf.XSDBoolean:
			return v.term.Value == "true" || v.term.Value == "1"
		default:
			return v.term.Value != ""
		}
	}
	return !v.term.IsZero()
}

// evalExpr evaluates a lowered expression over one solution. This is the
// one place a FILTER operand is decoded from its id.
func (pl *plan) evalExpr(e lexpr, row []rdf.TermID) (exprValue, error) {
	switch x := e.(type) {
	case *lVar:
		id := row[x.slot]
		if id == unbound {
			return exprValue{}, errFilter
		}
		return exprValue{term: pl.dict.Term(id)}, nil
	case *lConst:
		v := exprValue{term: x.term}
		if x.term.Kind == rdf.Literal {
			v.lit = &x.lit
		}
		return v, nil
	case *lNot:
		v, err := pl.evalExpr(x.e, row)
		if err != nil {
			return exprValue{}, err
		}
		return boolValue(!truthy(v)), nil
	case *lBinary:
		return pl.evalBinary(x, row)
	case *lCall:
		return pl.evalCall(x, row)
	default:
		return exprValue{}, errFilter
	}
}

func (pl *plan) evalBinary(x *lBinary, row []rdf.TermID) (exprValue, error) {
	if x.op == "&&" || x.op == "||" {
		l, lerr := pl.evalExpr(x.l, row)
		r, rerr := pl.evalExpr(x.r, row)
		if x.op == "&&" {
			if lerr != nil || rerr != nil {
				return exprValue{}, errFilter
			}
			return boolValue(truthy(l) && truthy(r)), nil
		}
		if lerr == nil && truthy(l) || rerr == nil && truthy(r) {
			return boolValue(true), nil
		}
		if lerr != nil || rerr != nil {
			return exprValue{}, errFilter
		}
		return boolValue(false), nil
	}
	l, err := pl.evalExpr(x.l, row)
	if err != nil {
		return exprValue{}, err
	}
	r, err := pl.evalExpr(x.r, row)
	if err != nil {
		return exprValue{}, err
	}
	cmp, err := compareExprTerms(l, r)
	if err != nil {
		// '=' and '!=' fall back to strict term (in)equality.
		switch x.op {
		case "=":
			return boolValue(l.term == r.term), nil
		case "!=":
			return boolValue(l.term != r.term), nil
		}
		return exprValue{}, err
	}
	switch x.op {
	case "=":
		return boolValue(cmp == 0), nil
	case "!=":
		return boolValue(cmp != 0), nil
	case "<":
		return boolValue(cmp < 0), nil
	case "<=":
		return boolValue(cmp <= 0), nil
	case ">":
		return boolValue(cmp > 0), nil
	case ">=":
		return boolValue(cmp >= 0), nil
	default:
		return exprValue{}, errFilter
	}
}

// compareExprTerms compares two terms under SPARQL operator semantics:
// literals by value space, IRIs/blanks by identity-as-string.
func compareExprTerms(l, r exprValue) (int, error) {
	a, b := l.term, r.term
	if a.IsZero() || b.IsZero() {
		return 0, errFilter
	}
	if a.Kind == rdf.Literal && b.Kind == rdf.Literal {
		va, err := literalValue(l)
		if err != nil {
			return 0, err
		}
		vb, err := literalValue(r)
		if err != nil {
			return 0, err
		}
		return xsd.Compare(va, vb)
	}
	if a.Kind != b.Kind {
		return 0, errFilter
	}
	return strings.Compare(a.Value, b.Value), nil
}

func literalValue(v exprValue) (xsd.Value, error) {
	if v.lit != nil {
		return v.lit.v, v.lit.err
	}
	return xsd.Parse(v.term.Value, v.term.DatatypeIRI())
}

func (pl *plan) evalCall(x *lCall, row []rdf.TermID) (exprValue, error) {
	arg := func(i int) (exprValue, error) {
		if i >= len(x.args) {
			return exprValue{}, errFilter
		}
		return pl.evalExpr(x.args[i], row)
	}
	if x.fn == "BOUND" {
		if len(x.args) == 0 {
			return exprValue{}, errFilter
		}
		v, ok := x.args[0].(*lVar)
		if !ok {
			return exprValue{}, errFilter
		}
		return boolValue(row[v.slot] != unbound), nil
	}
	v, err := arg(0)
	if err != nil {
		return exprValue{}, err
	}
	switch x.fn {
	case "ISIRI":
		return boolValue(v.term.IsIRI()), nil
	case "ISBLANK":
		return boolValue(v.term.IsBlank()), nil
	case "ISLITERAL":
		return boolValue(v.term.IsLiteral()), nil
	case "STR":
		return exprValue{term: rdf.NewLiteral(v.term.Value)}, nil
	case "LANG":
		return exprValue{term: rdf.NewLiteral(v.term.Lang)}, nil
	case "DATATYPE":
		if !v.term.IsLiteral() {
			return exprValue{}, errFilter
		}
		return exprValue{term: rdf.NewIRI(v.term.DatatypeIRI())}, nil
	case "REGEX", "CONTAINS", "STRSTARTS":
		w, err := arg(1)
		if err != nil {
			return exprValue{}, err
		}
		switch x.fn {
		case "CONTAINS":
			return boolValue(strings.Contains(v.term.Value, w.term.Value)), nil
		case "STRSTARTS":
			return boolValue(strings.HasPrefix(v.term.Value, w.term.Value)), nil
		}
		re := x.re
		if x.reBad {
			return exprValue{}, errFilter
		}
		if re == nil {
			if re, err = regexp.Compile(w.term.Value); err != nil {
				return exprValue{}, errFilter
			}
		}
		return boolValue(re.MatchString(v.term.Value)), nil
	default:
		return exprValue{}, errFilter
	}
}
