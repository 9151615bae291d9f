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

// exprValue is the result of a filter expression: a boolean, or a term as
// the kind and value operators compare. The rest of a term — its datatype,
// its language tag — is read only by an operator that needs it, from where
// the term came from: a variable's from the dictionary by id, a constant's
// from its lConst (with the literal parsed at lowering). A term STR, LANG
// or DATATYPE made has neither: it is a plain literal or an IRI.
type exprValue struct {
	isBool bool
	b      bool
	kind   rdf.Kind // 0: a boolean
	value  string
	id     rdf.TermID // a variable's term; unbound otherwise
	c      *lConst    // a constant's term; nil otherwise
}

func boolValue(b bool) exprValue { return exprValue{isBool: true, b: b, id: unbound} }

// madeValue is a term an operator made.
func madeValue(kind rdf.Kind, value string) exprValue {
	return exprValue{kind: kind, value: value, id: unbound}
}

// datatype is Term.DatatypeIRI of v's term.
func (pl *plan) datatype(v *exprValue) string {
	switch {
	case v.kind != rdf.Literal:
		return ""
	case v.c != nil:
		return v.c.term.DatatypeIRI()
	case v.id != unbound:
		return pl.dict.DatatypeIRI(v.id)
	}
	return rdf.XSDString
}

// term decodes v's whole term (for LANG and strict equality); the zero
// Term for a boolean.
func (pl *plan) term(v *exprValue) rdf.Term {
	switch {
	case v.c != nil:
		return v.c.term
	case v.id != unbound:
		return pl.dict.Term(v.id)
	}
	return rdf.Term{Kind: v.kind, Value: v.value}
}

func (pl *plan) truthy(v *exprValue) bool {
	if v.isBool {
		return v.b
	}
	// Effective boolean value of a literal.
	if v.kind == rdf.Literal {
		switch pl.datatype(v) {
		case rdf.XSDBoolean:
			return v.value == "true" || v.value == "1"
		default:
			return v.value != ""
		}
	}
	return v.kind != 0
}

// evalExpr evaluates a lowered expression over one solution. This is the
// one place a FILTER operand is read from its id, and only its kind and
// value are: Dict.View, which allocates nothing for a resident term.
func (pl *plan) evalExpr(e lexpr, row []rdf.TermID) (exprValue, error) {
	switch x := e.(type) {
	case *lVar:
		id := row[x.slot]
		if id == unbound {
			return exprValue{}, errFilter
		}
		kind, value := pl.dict.View(id)
		return exprValue{kind: kind, value: value, id: id}, nil
	case *lConst:
		return exprValue{kind: x.term.Kind, value: x.term.Value, id: unbound, c: x}, nil
	case *lNot:
		v, err := pl.evalExpr(x.e, row)
		if err != nil {
			return exprValue{}, err
		}
		return boolValue(!pl.truthy(&v)), nil
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
			return boolValue(pl.truthy(&l) && pl.truthy(&r)), nil
		}
		if lerr == nil && pl.truthy(&l) || rerr == nil && pl.truthy(&r) {
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
	cmp, err := pl.compareExprTerms(&l, &r)
	if err != nil {
		// '=' and '!=' fall back to strict term (in)equality.
		switch x.op {
		case "=":
			return boolValue(pl.term(&l) == pl.term(&r)), nil
		case "!=":
			return boolValue(pl.term(&l) != pl.term(&r)), nil
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
func (pl *plan) compareExprTerms(l, r *exprValue) (int, error) {
	if l.kind == 0 || r.kind == 0 {
		return 0, errFilter
	}
	if l.kind == rdf.Literal && r.kind == rdf.Literal {
		va, err := pl.literalValue(l)
		if err != nil {
			return 0, err
		}
		vb, err := pl.literalValue(r)
		if err != nil {
			return 0, err
		}
		return xsd.Compare(va, vb)
	}
	if l.kind != r.kind {
		return 0, errFilter
	}
	return strings.Compare(l.value, r.value), nil
}

func (pl *plan) literalValue(v *exprValue) (xsd.Value, error) {
	if v.c != nil {
		return v.c.lit.v, v.c.lit.err
	}
	return xsd.Parse(v.value, pl.datatype(v))
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
		return boolValue(v.kind == rdf.IRI), nil
	case "ISBLANK":
		return boolValue(v.kind == rdf.Blank), nil
	case "ISLITERAL":
		return boolValue(v.kind == rdf.Literal), nil
	case "STR":
		return madeValue(rdf.Literal, v.value), nil
	case "LANG":
		return madeValue(rdf.Literal, pl.term(&v).Lang), nil
	case "DATATYPE":
		if v.kind != rdf.Literal {
			return exprValue{}, errFilter
		}
		return madeValue(rdf.IRI, pl.datatype(&v)), nil
	case "REGEX", "CONTAINS", "STRSTARTS":
		w, err := arg(1)
		if err != nil {
			return exprValue{}, err
		}
		switch x.fn {
		case "CONTAINS":
			return boolValue(strings.Contains(v.value, w.value)), nil
		case "STRSTARTS":
			return boolValue(strings.HasPrefix(v.value, w.value)), nil
		}
		re := x.re
		if x.reBad {
			return exprValue{}, errFilter
		}
		if re == nil {
			if re, err = regexp.Compile(w.value); err != nil {
				return exprValue{}, errFilter
			}
		}
		return boolValue(re.MatchString(v.value)), nil
	default:
		return exprValue{}, errFilter
	}
}
