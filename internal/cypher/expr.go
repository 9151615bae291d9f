package cypher

import (
	"fmt"
	"strings"

	"github.com/s3pg/s3pg/internal/pg"
)

// cval is the value of an expression: null, a graph element by id, or a
// plain value (v, never nil). Graph elements stay ids until a result row or
// a comparison needs what they render as.
type cval struct {
	kind uint8 // kNull, kNode, kEdge or kValue
	id   uint32
	v    pg.Value
}

// valueOf wraps a property or parameter value.
func valueOf(v pg.Value) cval {
	if v == nil {
		return cval{kind: kNull}
	}
	return cval{kind: kValue, v: v}
}

// lexpr is a lowered expression: the AST with variables resolved to slots
// and parameters to their values — *lVar, *lProp, *lConst, *lNoParam, *lNot,
// *lIsNull, *lIn, *lBinary or *lCall.
type lexpr interface{}

type lVar struct {
	slot int // -1: no clause of the part binds the name
	name string
}

type lProp struct {
	slot      int
	name, key string
	id        pg.Sym // key as the store interned it
}

type lConst struct{ v cval }

// lNoParam is a $name the caller supplied no value for.
type lNoParam struct{ name string }

type lNot struct{ e lexpr }

type lIsNull struct {
	e   lexpr
	neg bool
}

type lIn struct {
	e    lexpr
	list []lexpr
}

type lBinary struct {
	op   string
	l, r lexpr
}

type lCall struct {
	fn   string
	args []lexpr
}

// lowerExpr resolves an expression against the part's slots as bound so
// far. total reports that evaluating it cannot fail, whatever the row: every
// variable it reads is bound by now, every property access is on what can
// only be a graph element or null, every parameter is supplied, and the
// builtins it calls take any value (labels, type and id insist on a node or
// an edge, so an expression calling them counts as fallible).
func (p *partPlan) lowerExpr(e Expr) (out lexpr, total bool) {
	all := func(es ...Expr) ([]lexpr, bool) {
		ls, ok := make([]lexpr, len(es)), true
		for i, e := range es {
			l, t := p.lowerExpr(e)
			ls[i], ok = l, ok && t
		}
		return ls, ok
	}
	switch x := e.(type) {
	case VarExpr:
		s := p.slotOf(x.Name)
		return &lVar{slot: s, name: x.Name}, s >= 0 && p.holds[s] != hUnbound
	case PropExpr:
		s := p.slotOf(x.Var)
		return &lProp{slot: s, name: x.Var, key: x.Key, id: p.ev.sym(x.Key)}, s >= 0 && p.holds[s] == hElement
	case ConstExpr:
		return &lConst{valueOf(x.Value)}, true
	case NullExpr:
		return &lConst{cval{kind: kNull}}, true
	case ParamExpr:
		v, ok := p.ev.params[x.Name]
		if !ok {
			return &lNoParam{x.Name}, false
		}
		return &lConst{valueOf(v)}, true
	case NotExpr:
		l, t := p.lowerExpr(x.E)
		return &lNot{l}, t
	case IsNullExpr:
		l, t := p.lowerExpr(x.E)
		return &lIsNull{l, x.Neg}, t
	case InExpr:
		l, t := p.lowerExpr(x.E)
		list, lt := all(x.List...)
		return &lIn{l, list}, t && lt
	case BinaryExpr:
		ls, t := all(x.L, x.R)
		switch x.Op {
		case "AND", "OR", "=", "<>", "<", "<=", ">", ">=":
		default:
			t = false
		}
		return &lBinary{x.Op, ls[0], ls[1]}, t
	case CallExpr:
		args, t := all(x.Args...)
		switch x.Func {
		case "COALESCE":
		case "TOSTRING", "SIZE":
			t = t && len(args) > 0
		case "STARTSWITH", "CONTAINS":
			t = t && len(args) > 1
		default:
			t = false
		}
		return &lCall{x.Func, args}, t
	default:
		return nil, false // evalExpr reports it
	}
}

// exprSlots appends the slots an expression reads.
func exprSlots(e lexpr, out []int) []int {
	switch x := e.(type) {
	case *lVar:
		out = append(out, x.slot)
	case *lProp:
		out = append(out, x.slot)
	case *lNot:
		out = exprSlots(x.e, out)
	case *lIsNull:
		out = exprSlots(x.e, out)
	case *lIn:
		out = exprSlots(x.e, out)
		for _, l := range x.list {
			out = exprSlots(l, out)
		}
	case *lBinary:
		out = exprSlots(x.r, exprSlots(x.l, out))
	case *lCall:
		for _, a := range x.args {
			out = exprSlots(a, out)
		}
	}
	return out
}

// lookup reads a variable's slot as a value.
func (ev *evaluator) lookup(slot int, name string, row []slot) (cval, error) {
	if slot < 0 || row[slot].kind() == kUnbound {
		return cval{}, fmt.Errorf("cypher: unbound variable %q", name)
	}
	s := row[slot]
	if s.kind() == kValue {
		return cval{kind: kValue, v: ev.vals[s.id()]}, nil
	}
	return cval{kind: s.kind(), id: s.id()}, nil
}

// evalExpr evaluates an expression over a row. Results follow Cypher's
// ternary logic loosely: null propagates and comparisons with null are
// null, which isTrue treats as false.
func (ev *evaluator) evalExpr(e lexpr, row []slot) (cval, error) {
	switch x := e.(type) {
	case *lVar:
		return ev.lookup(x.slot, x.name, row)
	case *lProp:
		v, err := ev.lookup(x.slot, x.name, row)
		if err != nil {
			return cval{}, err
		}
		switch v.kind {
		case kNode:
			return valueOf(ev.store.Node(pg.NodeID(v.id)).PropSym(x.id)), nil
		case kEdge:
			return valueOf(ev.store.Edge(pg.EdgeID(v.id)).PropSym(x.id)), nil
		case kNull:
			return v, nil
		default:
			return cval{}, fmt.Errorf("cypher: %q is not a node or relationship", x.name)
		}
	case *lConst:
		return x.v, nil
	case *lNoParam:
		return cval{}, fmt.Errorf("cypher: no value supplied for parameter $%s", x.name)
	case *lNot:
		v, err := ev.evalExpr(x.e, row)
		if err != nil || v.kind == kNull {
			return v, err
		}
		return valueOf(!isTrue(v)), nil
	case *lIsNull:
		v, err := ev.evalExpr(x.e, row)
		if err != nil {
			return cval{}, err
		}
		return valueOf((v.kind == kNull) != x.neg), nil
	case *lIn:
		v, err := ev.evalExpr(x.e, row)
		if err != nil {
			return cval{}, err
		}
		for _, le := range x.list {
			lv, err := ev.evalExpr(le, row)
			if err != nil {
				return cval{}, err
			}
			if pg.ValueEqual(ev.materialize(v), ev.materialize(lv)) {
				return valueOf(true), nil
			}
		}
		return valueOf(false), nil
	case *lBinary:
		return ev.evalBinary(x, row)
	case *lCall:
		return ev.evalCall(x, row)
	default:
		return cval{}, fmt.Errorf("cypher: unknown expression %T", e)
	}
}

func (ev *evaluator) evalBinary(x *lBinary, row []slot) (cval, error) {
	l, err := ev.evalExpr(x.l, row)
	if err != nil {
		return cval{}, err
	}
	r, err := ev.evalExpr(x.r, row)
	if err != nil {
		return cval{}, err
	}
	switch x.op {
	case "AND":
		return valueOf(isTrue(l) && isTrue(r)), nil
	case "OR":
		return valueOf(isTrue(l) || isTrue(r)), nil
	}
	if l.kind == kNull || r.kind == kNull {
		return cval{kind: kNull}, nil
	}
	lv, rv := ev.materialize(l), ev.materialize(r)
	switch x.op {
	case "=":
		return valueOf(pg.ValueEqual(lv, rv)), nil
	case "<>":
		return valueOf(!pg.ValueEqual(lv, rv)), nil
	}
	cmp, ok := compareValues(lv, rv)
	if !ok {
		return cval{kind: kNull}, nil
	}
	switch x.op {
	case "<":
		return valueOf(cmp < 0), nil
	case "<=":
		return valueOf(cmp <= 0), nil
	case ">":
		return valueOf(cmp > 0), nil
	case ">=":
		return valueOf(cmp >= 0), nil
	default:
		return cval{}, fmt.Errorf("cypher: unknown operator %q", x.op)
	}
}

func compareValues(a, b pg.Value) (int, bool) {
	fa, faOK := toFloatValue(a)
	fb, fbOK := toFloatValue(b)
	if faOK && fbOK {
		switch {
		case fa < fb:
			return -1, true
		case fa > fb:
			return 1, true
		}
		return 0, true
	}
	sa, saOK := a.(string)
	sb, sbOK := b.(string)
	if saOK && sbOK {
		return strings.Compare(sa, sb), true
	}
	return 0, false
}

func toFloatValue(v pg.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

func (ev *evaluator) evalCall(x *lCall, row []slot) (cval, error) {
	var buf [4]cval
	args := buf[:0]
	for _, a := range x.args {
		v, err := ev.evalExpr(a, row)
		if err != nil {
			return cval{}, err
		}
		args = append(args, v)
	}
	if x.fn == "COALESCE" {
		for _, a := range args {
			if a.kind != kNull {
				return a, nil
			}
		}
		return cval{kind: kNull}, nil
	}
	if len(args) == 0 {
		return cval{}, fmt.Errorf("cypher: %s() requires an argument", strings.ToLower(x.fn))
	}
	arg := args[0]
	switch x.fn {
	case "LABELS":
		if arg.kind != kNode {
			return cval{}, fmt.Errorf("cypher: labels() requires a node")
		}
		labels := ev.store.Node(pg.NodeID(arg.id)).Labels()
		out := make([]pg.Value, len(labels))
		for i, l := range labels {
			out[i] = l
		}
		return valueOf(out), nil
	case "TYPE":
		if arg.kind != kEdge {
			return cval{}, fmt.Errorf("cypher: type() requires a relationship")
		}
		return valueOf(ev.store.Edge(pg.EdgeID(arg.id)).Label()), nil
	case "TOSTRING":
		if arg.kind == kNull {
			return arg, nil
		}
		return valueOf(pg.FormatValue(ev.materialize(arg))), nil
	case "SIZE":
		if arg.kind == kNull {
			return arg, nil
		}
		switch v := arg.v.(type) {
		case string:
			return valueOf(int64(len(v))), nil
		case []pg.Value:
			return valueOf(int64(len(v))), nil
		default:
			return valueOf(int64(1)), nil
		}
	case "ID":
		if arg.kind != kNode && arg.kind != kEdge {
			return cval{}, fmt.Errorf("cypher: id() requires a graph element")
		}
		return valueOf(int64(arg.id)), nil
	case "STARTSWITH", "CONTAINS":
		if len(args) < 2 {
			return cval{}, fmt.Errorf("cypher: %s requires two operands", x.fn)
		}
		s, ok1 := arg.v.(string)
		t, ok2 := args[1].v.(string)
		if !ok1 || !ok2 {
			return cval{kind: kNull}, nil
		}
		if x.fn == "CONTAINS" {
			return valueOf(strings.Contains(s, t)), nil
		}
		return valueOf(strings.HasPrefix(s, t)), nil
	default:
		return cval{}, fmt.Errorf("cypher: unsupported function %s", x.fn)
	}
}

// isTrue converts a value to the boolean used by WHERE: only the boolean
// true passes (null and everything else is false).
func isTrue(v cval) bool {
	b, ok := v.v.(bool)
	return ok && b
}
