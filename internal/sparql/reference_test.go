// reference_test.go is the evaluator this package shipped before the slot-row
// executor, kept verbatim (identifiers prefixed "ref") as the oracle of
// TestEvalMatchesReference and FuzzEvalDifferential. It is test-only: nothing
// outside _test files may call it.
package sparql

import (
	"context"
	"fmt"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// refBinding maps variable names to terms.
type refBinding map[string]rdf.Term

func (b refBinding) clone() refBinding {
	c := make(refBinding, len(b)+2)
	for k, v := range b {
		c[k] = v
	}
	return c
}

// refEvalEnv carries the graph and the cancellation context through pattern
// matching so a deadline bounds runaway joins.
type refEvalEnv struct {
	g     *rdf.Graph
	ctx   context.Context
	steps int
}

// tick is the cooperative cancellation point, amortized so the common case
// is one increment and a mask test.
func (ev *refEvalEnv) tick() error {
	ev.steps++
	if ev.steps&255 == 0 && ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			return fmt.Errorf("sparql: query canceled: %w", err)
		}
	}
	return nil
}

// refEvalCtx is refEval with cooperative cancellation: the match pipeline checks
// ctx every few hundred bindings. A nil ctx disables the checks.
func refEvalCtx(ctx context.Context, g *rdf.Graph, q *Query) (*Results, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sparql: query canceled: %w", err)
		}
	}
	ev := &refEvalEnv{g: g, ctx: ctx}
	sols, err := ev.refEvalGroup(q.Where, []refBinding{{}})
	if err != nil {
		return nil, err
	}

	if q.Ask {
		val := "false"
		if len(sols) > 0 {
			val = "true"
		}
		return &Results{
			Vars: []string{"ask"},
			Rows: [][]rdf.Term{{rdf.NewTypedLiteral(val, rdf.XSDBoolean)}},
		}, nil
	}

	if q.CountVar != "" {
		n := len(sols)
		return &Results{
			Vars: []string{q.CountVar},
			Rows: [][]rdf.Term{{rdf.NewTypedLiteral(strconv.Itoa(n), rdf.XSDInteger)}},
		}, nil
	}

	vars := q.Vars
	if len(vars) == 0 {
		vars = refCollectVars(q.Where)
	}
	res := &Results{Vars: vars}
	for _, b := range sols {
		row := make([]rdf.Term, len(vars))
		for i, v := range vars {
			row[i] = b[v] // zero Term when unbound (OPTIONAL)
		}
		res.Rows = append(res.Rows, row)
	}

	if q.Distinct {
		seen := make(map[string]bool, len(res.Rows))
		kept := res.Rows[:0]
		for _, row := range res.Rows {
			key := refRowKey(row)
			if !seen[key] {
				seen[key] = true
				kept = append(kept, row)
			}
		}
		res.Rows = kept
	}

	if len(q.OrderBy) > 0 {
		idx := make(map[string]int, len(vars))
		for i, v := range vars {
			idx[v] = i
		}
		sort.SliceStable(res.Rows, func(i, j int) bool {
			for _, key := range q.OrderBy {
				col, ok := idx[key.Var]
				if !ok {
					continue
				}
				c := refCompareTerms(res.Rows[i][col], res.Rows[j][col])
				if c == 0 {
					continue
				}
				if key.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if q.Offset > 0 {
		if q.Offset >= len(res.Rows) {
			res.Rows = res.Rows[:0]
		} else {
			res.Rows = res.Rows[q.Offset:]
		}
	}
	if q.Limit >= 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return res, nil
}

func refRowKey(row []rdf.Term) string {
	parts := make([]string, len(row))
	for i, t := range row {
		parts[i] = t.String()
	}
	return strings.Join(parts, "\x1f")
}

// refCompareTerms orders terms: by kind, then by value space comparison for
// literals, lexically otherwise.
func refCompareTerms(a, b rdf.Term) int {
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	if a.Kind == rdf.Literal {
		va, ea := xsd.Parse(a.Value, a.DatatypeIRI())
		vb, eb := xsd.Parse(b.Value, b.DatatypeIRI())
		if ea == nil && eb == nil {
			if c, err := xsd.Compare(va, vb); err == nil {
				return c
			}
		}
	}
	return strings.Compare(a.Value, b.Value)
}

func refCollectVars(g *Group) []string {
	seen := make(map[string]bool)
	var out []string
	add := func(v string) {
		if v != "" && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	var walk func(g *Group)
	walk = func(g *Group) {
		for _, el := range g.Elements {
			switch e := el.(type) {
			case BGP:
				for _, p := range e.Patterns {
					for _, v := range p.vars() {
						add(v)
					}
				}
			case Optional:
				walk(e.Group)
			case Union:
				for _, b := range e.Branches {
					walk(b)
				}
			}
		}
	}
	walk(g)
	return out
}

func (ev *refEvalEnv) refEvalGroup(group *Group, input []refBinding) ([]refBinding, error) {
	cur := input
	for _, el := range group.Elements {
		var err error
		switch e := el.(type) {
		case BGP:
			cur, err = ev.refEvalBGP(e.Patterns, cur)
		case Filter:
			cur, err = refEvalFilter(e.Expr, cur)
		case Optional:
			cur, err = ev.refEvalOptional(e.Group, cur)
		case Union:
			var all []refBinding
			for _, branch := range e.Branches {
				part, berr := ev.refEvalGroup(branch, cur)
				if berr != nil {
					return nil, berr
				}
				all = append(all, part...)
			}
			cur = all
		default:
			return nil, fmt.Errorf("sparql: unknown group element %T", el)
		}
		if err != nil {
			return nil, err
		}
		if len(cur) == 0 {
			return cur, nil
		}
	}
	return cur, nil
}

// refEvalBGP joins the patterns greedily: at each step it picks the pattern
// with the most positions bound under the variables seen so far.
func (ev *refEvalEnv) refEvalBGP(patterns []TriplePattern, input []refBinding) ([]refBinding, error) {
	remaining := append([]TriplePattern(nil), patterns...)
	bound := make(map[string]bool)
	for _, b := range input {
		for v := range b {
			bound[v] = true
		}
		break // all input bindings share a domain
	}

	cur := input
	for len(remaining) > 0 {
		best, bestScore := 0, -1
		for i, p := range remaining {
			score := 0
			for _, tv := range []TermOrVar{p.S, p.P, p.O} {
				if !tv.IsVar() || bound[tv.Var] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = i, score
			}
		}
		p := remaining[best]
		remaining = append(remaining[:best], remaining[best+1:]...)
		var err error
		cur, err = ev.refMatchPattern(p, cur)
		if err != nil {
			return nil, err
		}
		for _, v := range p.vars() {
			bound[v] = true
		}
		if len(cur) == 0 {
			return cur, nil
		}
	}
	return cur, nil
}

// refMatchPattern extends every refBinding with the triples matching the pattern.
func (ev *refEvalEnv) refMatchPattern(p TriplePattern, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		s := refResolve(p.S, b)
		pr := refResolve(p.P, b)
		o := refResolve(p.O, b)
		ev.g.Match(s, pr, o, func(t rdf.Triple) bool {
			nb := b
			cloned := false
			set := func(tv TermOrVar, val rdf.Term) bool {
				if !tv.IsVar() {
					return true
				}
				if have, ok := nb[tv.Var]; ok {
					return have == val
				}
				if !cloned {
					nb = b.clone()
					cloned = true
				}
				nb[tv.Var] = val
				return true
			}
			if set(p.S, t.S) && set(p.P, t.P) && set(p.O, t.O) {
				if !cloned {
					nb = b.clone()
				}
				out = append(out, nb)
			}
			return true
		})
	}
	return out, nil
}

// refResolve returns the constant for a pattern position under a refBinding, or
// nil for an unbound variable (wildcard).
func refResolve(tv TermOrVar, b refBinding) *rdf.Term {
	if !tv.IsVar() {
		t := tv.Term
		return &t
	}
	if t, ok := b[tv.Var]; ok {
		return &t
	}
	return nil
}

func refEvalFilter(e Expr, input []refBinding) ([]refBinding, error) {
	// A fresh slice: the input may be shared with a sibling UNION branch.
	out := make([]refBinding, 0, len(input))
	for _, b := range input {
		v, err := refEvalExpr(e, b)
		if err != nil {
			continue // SPARQL: filter errors eliminate the solution
		}
		if refTruthy(v) {
			out = append(out, b)
		}
	}
	return out, nil
}

func (ev *refEvalEnv) refEvalOptional(sub *Group, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	for _, b := range input {
		ext, err := ev.refEvalGroup(sub, []refBinding{b})
		if err != nil {
			return nil, err
		}
		if len(ext) == 0 {
			out = append(out, b)
		} else {
			out = append(out, ext...)
		}
	}
	return out, nil
}

// refExprValue is the result of a filter expression: a term or a boolean.
type refExprValue struct {
	isBool bool
	b      bool
	term   rdf.Term
}

func refBoolValue(b bool) refExprValue { return refExprValue{isBool: true, b: b} }

func refTruthy(v refExprValue) bool {
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

func refEvalExpr(e Expr, b refBinding) (refExprValue, error) {
	switch x := e.(type) {
	case VarExpr:
		t, ok := b[x.Name]
		if !ok {
			return refExprValue{}, fmt.Errorf("unbound variable ?%s", x.Name)
		}
		return refExprValue{term: t}, nil
	case ConstExpr:
		return refExprValue{term: x.Term}, nil
	case NotExpr:
		v, err := refEvalExpr(x.E, b)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(!refTruthy(v)), nil
	case BinaryExpr:
		return refEvalBinary(x, b)
	case CallExpr:
		return refEvalCall(x, b)
	default:
		return refExprValue{}, fmt.Errorf("unknown expression %T", e)
	}
}

func refEvalBinary(x BinaryExpr, b refBinding) (refExprValue, error) {
	if x.Op == "&&" || x.Op == "||" {
		l, lerr := refEvalExpr(x.L, b)
		r, rerr := refEvalExpr(x.R, b)
		switch x.Op {
		case "&&":
			if lerr != nil || rerr != nil {
				return refExprValue{}, fmt.Errorf("error in conjunction")
			}
			return refBoolValue(refTruthy(l) && refTruthy(r)), nil
		default:
			if lerr == nil && refTruthy(l) || rerr == nil && refTruthy(r) {
				return refBoolValue(true), nil
			}
			if lerr != nil || rerr != nil {
				return refExprValue{}, fmt.Errorf("error in disjunction")
			}
			return refBoolValue(false), nil
		}
	}
	l, err := refEvalExpr(x.L, b)
	if err != nil {
		return refExprValue{}, err
	}
	r, err := refEvalExpr(x.R, b)
	if err != nil {
		return refExprValue{}, err
	}
	cmp, err := refCompareExprTerms(l.term, r.term)
	if err != nil {
		// '=' and '!=' fall back to strict term (in)equality.
		switch x.Op {
		case "=":
			return refBoolValue(l.term == r.term), nil
		case "!=":
			return refBoolValue(l.term != r.term), nil
		}
		return refExprValue{}, err
	}
	switch x.Op {
	case "=":
		return refBoolValue(cmp == 0), nil
	case "!=":
		return refBoolValue(cmp != 0), nil
	case "<":
		return refBoolValue(cmp < 0), nil
	case "<=":
		return refBoolValue(cmp <= 0), nil
	case ">":
		return refBoolValue(cmp > 0), nil
	case ">=":
		return refBoolValue(cmp >= 0), nil
	default:
		return refExprValue{}, fmt.Errorf("unknown operator %q", x.Op)
	}
}

// refCompareExprTerms compares two terms under SPARQL operator semantics:
// literals by value space, IRIs/blanks by identity-as-string.
func refCompareExprTerms(a, b rdf.Term) (int, error) {
	if a.IsZero() || b.IsZero() {
		return 0, fmt.Errorf("comparison with unbound value")
	}
	if a.Kind == rdf.Literal && b.Kind == rdf.Literal {
		va, err := xsd.Parse(a.Value, a.DatatypeIRI())
		if err != nil {
			return 0, err
		}
		vb, err := xsd.Parse(b.Value, b.DatatypeIRI())
		if err != nil {
			return 0, err
		}
		return xsd.Compare(va, vb)
	}
	if a.Kind != b.Kind {
		return 0, fmt.Errorf("cannot compare %v with %v", a.Kind, b.Kind)
	}
	return strings.Compare(a.Value, b.Value), nil
}

func refEvalCall(x CallExpr, b refBinding) (refExprValue, error) {
	arg := func(i int) (refExprValue, error) {
		if i >= len(x.Args) {
			return refExprValue{}, fmt.Errorf("%s: missing argument %d", x.Func, i)
		}
		return refEvalExpr(x.Args[i], b)
	}
	switch x.Func {
	case "BOUND":
		v, ok := x.Args[0].(VarExpr)
		if !ok {
			return refExprValue{}, fmt.Errorf("BOUND requires a variable")
		}
		_, bound := b[v.Name]
		return refBoolValue(bound), nil
	case "ISIRI":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(v.term.IsIRI()), nil
	case "ISBLANK":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(v.term.IsBlank()), nil
	case "ISLITERAL":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(v.term.IsLiteral()), nil
	case "STR":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		return refExprValue{term: rdf.NewLiteral(v.term.Value)}, nil
	case "LANG":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		return refExprValue{term: rdf.NewLiteral(v.term.Lang)}, nil
	case "DATATYPE":
		v, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		if !v.term.IsLiteral() {
			return refExprValue{}, fmt.Errorf("DATATYPE of non-literal")
		}
		return refExprValue{term: rdf.NewIRI(v.term.DatatypeIRI())}, nil
	case "REGEX":
		s, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		pat, err := arg(1)
		if err != nil {
			return refExprValue{}, err
		}
		re, err := regexp.Compile(pat.term.Value)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(re.MatchString(s.term.Value)), nil
	case "CONTAINS":
		s, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		sub, err := arg(1)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(strings.Contains(s.term.Value, sub.term.Value)), nil
	case "STRSTARTS":
		s, err := arg(0)
		if err != nil {
			return refExprValue{}, err
		}
		pre, err := arg(1)
		if err != nil {
			return refExprValue{}, err
		}
		return refBoolValue(strings.HasPrefix(s.term.Value, pre.term.Value)), nil
	default:
		return refExprValue{}, fmt.Errorf("unsupported function %s", x.Func)
	}
}

// ReferenceEvalCtx exposes the oracle to the external test package.
func ReferenceEvalCtx(ctx context.Context, g *rdf.Graph, q *Query) (*Results, error) {
	return refEvalCtx(ctx, g, q)
}

// MustParse parses or panics; for the tests' statically known queries.
func MustParse(src string) *Query {
	q, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return q
}
