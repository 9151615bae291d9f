// reference_test.go is the evaluator this package shipped before the slot-row
// executor (eval.go and expr.go), kept verbatim (identifiers prefixed "ref",
// the always-on counters left out) as the oracle of TestEvalMatchesReference
// and FuzzEvalDifferential. It is test-only: nothing outside _test files may
// call it.
package cypher

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"github.com/s3pg/s3pg/internal/pg"
)

// refNodeRef and refEdgeRef are refBinding values referencing graph elements.
type refNodeRef pg.NodeID
type refEdgeRef pg.EdgeID

// refKvPair is one bound variable.
type refKvPair struct {
	k string
	v any
}

// refBinding is a small ordered set of variable→value pairs (refNodeRef, refEdgeRef,
// pg.Value, nil). Queries bind a handful of variables, so linear scans beat
// map hashing, and — the property the match pipeline lives on — a clone is
// one allocation plus a memcpy instead of a map rebuild. The invariant that
// keeps slice sharing safe: a refBinding is extended (set of a new key) only
// immediately after clone, so no two bindings ever share a backing array at
// different lengths.
type refBinding []refKvPair

func (b refBinding) get(k string) (any, bool) {
	for i := range b {
		if b[i].k == k {
			return b[i].v, true
		}
	}
	return nil, false
}

// clone copies the refBinding with headroom for the variables the current
// pattern element is about to bind, so the following set calls stay in the
// same allocation.
func (b refBinding) clone() refBinding {
	c := make(refBinding, len(b), len(b)+2)
	copy(c, b)
	return c
}

// set binds k, replacing an existing entry; callers must use the return
// value (append semantics).
func (b refBinding) set(k string, v any) refBinding {
	for i := range b {
		if b[i].k == k {
			b[i].v = v
			return b
		}
	}
	return append(b, refKvPair{k, v})
}

// del removes k by swap-remove; callers must use the return value.
func (b refBinding) del(k string) refBinding {
	for i := range b {
		if b[i].k == k {
			b[i] = b[len(b)-1]
			return b[:len(b)-1]
		}
	}
	return b
}

// refEvaluator carries per-evaluation state: the store, cancellation,
// parameters, and scratch buffers reused across rows so the steady-state
// match loop does not allocate per input refBinding.
type refEvaluator struct {
	store  *pg.Store
	ctx    context.Context
	params map[string]pg.Value
	steps  int
	seed   [1]refBinding // reused seed slice for per-row path expansion
}

// tick is the cooperative cancellation point, amortized so the common case
// is one increment and a mask test.
func (ev *refEvaluator) tick() error {
	ev.steps++
	if ev.steps&255 == 0 && ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			return fmt.Errorf("cypher: query canceled: %w", err)
		}
	}
	return nil
}

// refEvalWith executes a query with cancellation and parameters.
func refEvalWith(store *pg.Store, q *Query, opt EvalOptions) (*Results, error) {
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("cypher: query canceled: %w", err)
		}
	}
	ev := &refEvaluator{store: store, ctx: opt.Ctx, params: opt.Params}
	var combined *Results
	for _, part := range q.Parts {
		res, err := ev.refEvalSingle(part)
		if err != nil {
			return nil, err
		}
		if combined == nil {
			combined = res
			continue
		}
		if len(res.Cols) != len(combined.Cols) {
			return nil, fmt.Errorf("cypher: UNION parts have different arities (%d vs %d)",
				len(combined.Cols), len(res.Cols))
		}
		combined.Rows = append(combined.Rows, res.Rows...)
	}
	if combined == nil {
		return &Results{}, nil
	}
	if !q.All && len(q.Parts) > 1 {
		combined.Rows = refDedupeRows(combined.Rows)
	}
	if len(q.OrderBy) > 0 {
		refOrderRows(combined, q.OrderBy)
	}
	if q.Limit >= 0 && len(combined.Rows) > q.Limit {
		combined.Rows = combined.Rows[:q.Limit]
	}
	return combined, nil
}

func (ev *refEvaluator) refEvalSingle(sq *SingleQuery) (*Results, error) {
	rows := []refBinding{nil}
	var err error
	for _, rc := range sq.Reading {
		switch clause := rc.(type) {
		case MatchClause:
			rows, err = ev.refEvalMatch(clause, rows)
		case UnwindClause:
			rows, err = ev.refEvalUnwind(clause, rows)
		default:
			err = fmt.Errorf("cypher: unknown clause %T", rc)
		}
		if err != nil {
			return nil, err
		}
		if len(rows) == 0 {
			break
		}
	}
	if sq.Return == nil {
		return nil, fmt.Errorf("cypher: query lacks RETURN")
	}
	return ev.refProject(sq.Return, rows)
}

func (ev *refEvaluator) refEvalMatch(mc MatchClause, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		// Seed the path expansion from a reused one-element slice: the
		// expansion never retains the seed slice itself, only the bindings,
		// so one buffer serves every input row.
		ev.seed[0] = b
		matches := ev.seed[:1]
		var err error
		for _, path := range mc.Paths {
			matches, err = ev.refExpandPath(path, matches)
			if err != nil {
				return nil, err
			}
			if len(matches) == 0 {
				break
			}
		}
		if mc.Where != nil {
			kept := matches[:0]
			for _, m := range matches {
				v, err := ev.refEvalExpr(mc.Where, m)
				if err != nil {
					return nil, err
				}
				if refIsTrue(v) {
					kept = append(kept, m)
				}
			}
			matches = kept
		}
		if len(matches) == 0 && mc.Optional {
			nb := b.clone()
			for _, v := range refClauseVars(mc) {
				if _, bound := nb.get(v); !bound {
					nb = nb.set(v, nil)
				}
			}
			out = append(out, nb)
			continue
		}
		out = append(out, matches...)
	}
	return out, nil
}

// refClauseVars lists the variables a match clause introduces.
func refClauseVars(mc MatchClause) []string {
	var out []string
	for _, p := range mc.Paths {
		if p.Head.Var != "" {
			out = append(out, p.Head.Var)
		}
		for _, h := range p.Hops {
			if h.Rel.Var != "" {
				out = append(out, h.Rel.Var)
			}
			if h.Node.Var != "" {
				out = append(out, h.Node.Var)
			}
		}
	}
	return out
}

// refExpandPath extends bindings along one path pattern.
func (ev *refEvaluator) refExpandPath(path PathPattern, input []refBinding) ([]refBinding, error) {
	// Anonymous head nodes still need an anchor for hop expansion; bind them
	// directly under a synthetic name that cannot clash with user
	// identifiers instead of re-keying every refBinding afterwards.
	prevVar := path.Head.Var
	key := prevVar
	if key == "" {
		prevVar = "\x00head"
		key = prevVar
	}
	cur, err := ev.refBindNode(path.Head, key, input)
	if err != nil {
		return nil, err
	}
	for _, hop := range path.Hops {
		cur, err = ev.refExpandHop(prevVar, hop, cur)
		if err != nil {
			return nil, err
		}
		if hop.Node.Var != "" {
			prevVar = hop.Node.Var
		} else {
			prevVar = "\x00hop"
		}
	}
	// Drop synthetic anchors.
	for i := range cur {
		cur[i] = cur[i].del("\x00head")
		cur[i] = cur[i].del("\x00hop")
	}
	return cur, nil
}

// refBindNode matches the head node pattern against the store (or an existing
// refBinding), storing each candidate under key and producing one refBinding per
// match. The candidate set is resolved once per call, not once per input
// row: for a multi-clause MATCH the input can be thousands of bindings and
// the per-row index lookup used to dominate the allocation profile.
func (ev *refEvaluator) refBindNode(np NodePattern, key string, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	candIDs, candNode, all := refCandidateSet(ev.store, np)
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		if np.Var != "" {
			if v, bound := b.get(np.Var); bound {
				if ref, ok := v.(refNodeRef); ok && refNodeMatches(ev.store.Node(pg.NodeID(ref)), np) {
					out = append(out, b)
				}
				continue
			}
		}
		switch {
		case all:
			for i := 0; i < ev.store.NumNodes(); i++ {
				out = refTryBind(ev.store.Node(pg.NodeID(i)), np, key, b, out)
			}
		case candNode != nil:
			out = refTryBind(*candNode, np, key, b, out)
		default:
			for _, id := range candIDs {
				out = refTryBind(ev.store.Node(id), np, key, b, out)
			}
		}
	}
	return out, nil
}

// refTryBind appends a refBinding extended with the candidate node if it matches
// the pattern. A plain function, not a per-row closure.
func refTryBind(n pg.Node, np NodePattern, key string, b refBinding, out []refBinding) []refBinding {
	if !refNodeMatches(n, np) {
		return out
	}
	nb := b.clone().set(key, refNodeRef(n.ID))
	return append(out, nb)
}

// refCandidateSet picks the narrowest index for the pattern without
// materializing a node slice: label patterns reuse the index id slice,
// iri-equality patterns resolve to the one node of the unique index, and
// only the unconstrained case (all) scans every node.
func refCandidateSet(store *pg.Store, np NodePattern) (ids []pg.NodeID, one *pg.Node, all bool) {
	if len(np.Labels) > 0 {
		best := store.NodesByLabel(np.Labels[0])
		for _, l := range np.Labels[1:] {
			if ids := store.NodesByLabel(l); len(ids) < len(best) {
				best = ids
			}
		}
		return best, nil, false
	}
	if iri, ok := np.Props["iri"].(string); ok {
		if n, ok := store.NodeByIRI(iri); ok {
			return nil, &n, false
		}
		return nil, nil, false
	}
	return nil, nil, true
}

func refNodeMatches(n pg.Node, np NodePattern) bool {
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	for k, want := range np.Props {
		have := n.Prop(k)
		if have == nil || !pg.ValueEqual(have, want) {
			return false
		}
	}
	return true
}

// refExpandHop extends each refBinding across one relationship hop.
func (ev *refEvaluator) refExpandHop(fromVar string, hop Hop, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	nodeKey := hop.Node.Var
	if nodeKey == "" {
		nodeKey = "\x00hop"
	}
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		v, _ := b.get(fromVar)
		ref, ok := v.(refNodeRef)
		if !ok {
			continue
		}
		from := pg.NodeID(ref)
		if hop.Rel.Dir >= 0 {
			for _, eid := range ev.store.Out(from) {
				e := ev.store.Edge(eid)
				out = ev.refTryHop(hop, nodeKey, b, e, e.To, out)
			}
		}
		if hop.Rel.Dir <= 0 {
			for _, eid := range ev.store.In(from) {
				e := ev.store.Edge(eid)
				out = ev.refTryHop(hop, nodeKey, b, e, e.From, out)
			}
		}
	}
	return out, nil
}

// refTryHop appends the extended refBinding if the edge and target node satisfy
// the hop pattern. A method rather than a closure: the old per-input-row
// closure allocation showed up directly in the eval benchmarks.
func (ev *refEvaluator) refTryHop(hop Hop, nodeKey string, b refBinding, e pg.Edge, target pg.NodeID, out []refBinding) []refBinding {
	if len(hop.Rel.Types) > 0 {
		match := false
		for _, t := range hop.Rel.Types {
			if t == e.Label() {
				match = true
				break
			}
		}
		if !match {
			return out
		}
	}
	tn := ev.store.Node(target)
	if !refNodeMatches(tn, hop.Node) {
		return out
	}
	if hop.Node.Var != "" {
		if v, bound := b.get(hop.Node.Var); bound {
			if r, ok := v.(refNodeRef); !ok || pg.NodeID(r) != target {
				return out
			}
		}
	}
	if hop.Rel.Var != "" {
		if v, bound := b.get(hop.Rel.Var); bound {
			if r, ok := v.(refEdgeRef); !ok || pg.EdgeID(r) != e.ID {
				return out
			}
		}
	}
	nb := b.clone().set(nodeKey, refNodeRef(target))
	if hop.Rel.Var != "" {
		nb = nb.set(hop.Rel.Var, refEdgeRef(e.ID))
	}
	return append(out, nb)
}

func (ev *refEvaluator) refEvalUnwind(uc UnwindClause, input []refBinding) ([]refBinding, error) {
	var out []refBinding
	for _, b := range input {
		v, err := ev.refEvalExpr(uc.Expr, b)
		if err != nil {
			return nil, err
		}
		switch list := v.(type) {
		case nil:
			// UNWIND NULL produces no rows.
		case []pg.Value:
			for _, item := range list {
				out = append(out, b.clone().set(uc.Alias, item))
			}
		default:
			out = append(out, b.clone().set(uc.Alias, v))
		}
	}
	return out, nil
}

// refProject evaluates the RETURN clause, handling COUNT aggregation.
func (ev *refEvaluator) refProject(rc *ReturnClause, rows []refBinding) (*Results, error) {
	res := &Results{}
	for _, item := range rc.Items {
		res.Cols = append(res.Cols, item.Alias)
	}

	hasAgg := false
	for _, item := range rc.Items {
		if item.Agg != "" {
			hasAgg = true
		}
	}

	if !hasAgg {
		for _, b := range rows {
			if err := ev.tick(); err != nil {
				return nil, err
			}
			row := make([]pg.Value, len(rc.Items))
			for i, item := range rc.Items {
				v, err := ev.refEvalExpr(item.Expr, b)
				if err != nil {
					return nil, err
				}
				row[i] = ev.refMaterialize(v)
			}
			res.Rows = append(res.Rows, row)
		}
		if rc.Distinct {
			res.Rows = refDedupeRows(res.Rows)
		}
		return res, nil
	}

	// Group by the non-aggregate items.
	type group struct {
		key    []pg.Value
		counts []int64
		seen   []map[string]bool
	}
	groups := map[string]*group{}
	var order []string
	// The grouping key is recomputed per row into a reused scratch slice;
	// only a newly seen group copies it out.
	keyScratch := make([]pg.Value, 0, len(rc.Items))
	for _, b := range rows {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		key := keyScratch[:0]
		for _, item := range rc.Items {
			if item.Agg != "" {
				continue
			}
			v, err := ev.refEvalExpr(item.Expr, b)
			if err != nil {
				return nil, err
			}
			key = append(key, ev.refMaterialize(v))
		}
		keyScratch = key[:0]
		ks := refValuesKey(key)
		g, ok := groups[ks]
		if !ok {
			g = &group{
				key:    append([]pg.Value(nil), key...),
				counts: make([]int64, len(rc.Items)),
				seen:   make([]map[string]bool, len(rc.Items)),
			}
			groups[ks] = g
			order = append(order, ks)
		}
		for i, item := range rc.Items {
			if item.Agg == "" {
				continue
			}
			if item.Star {
				g.counts[i]++
				continue
			}
			v, err := ev.refEvalExpr(item.Expr, b)
			if err != nil {
				return nil, err
			}
			if v == nil {
				continue
			}
			if item.AggDistinct {
				if g.seen[i] == nil {
					g.seen[i] = map[string]bool{}
				}
				k := pg.FormatValue(ev.refMaterialize(v))
				if g.seen[i][k] {
					continue
				}
				g.seen[i][k] = true
			}
			g.counts[i]++
		}
	}
	// An aggregation over zero rows with no grouping keys yields one row.
	if len(order) == 0 {
		allAgg := true
		for _, item := range rc.Items {
			if item.Agg == "" {
				allAgg = false
			}
		}
		if allAgg {
			row := make([]pg.Value, len(rc.Items))
			for i := range row {
				row[i] = int64(0)
			}
			res.Rows = append(res.Rows, row)
			return res, nil
		}
		return res, nil
	}
	for _, ks := range order {
		g := groups[ks]
		row := make([]pg.Value, len(rc.Items))
		ki := 0
		for i, item := range rc.Items {
			if item.Agg != "" {
				row[i] = g.counts[i]
			} else {
				row[i] = g.key[ki]
				ki++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// refMaterialize converts refBinding values to plain result values: nodes render
// as their iri property (or id), edges as their label.
func (ev *refEvaluator) refMaterialize(v any) pg.Value {
	switch x := v.(type) {
	case refNodeRef:
		n := ev.store.Node(pg.NodeID(x))
		if iri, ok := n.Prop("iri").(string); ok {
			return iri
		}
		return int64(x)
	case refEdgeRef:
		return ev.store.Edge(pg.EdgeID(x)).Label()
	case nil:
		return nil
	default:
		return x
	}
}

// refValuesKey renders a row as a single delimiter-joined string for grouping
// and dedupe maps, building in place rather than via a parts slice.
func refValuesKey(vals []pg.Value) string {
	var sb strings.Builder
	for i, v := range vals {
		if i > 0 {
			sb.WriteByte(0x1f)
		}
		if v == nil {
			sb.WriteString("\x00null")
		} else {
			sb.WriteString(pg.FormatValue(v))
		}
	}
	return sb.String()
}

func refDedupeRows(rows [][]pg.Value) [][]pg.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := refValuesKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func refOrderRows(res *Results, keys []OrderKey) {
	idx := map[string]int{}
	for i, c := range res.Cols {
		idx[c] = i
	}
	lessVal := func(a, b pg.Value) int {
		if a == nil || b == nil {
			switch {
			case a == nil && b == nil:
				return 0
			case a == nil:
				return 1 // nulls last
			default:
				return -1
			}
		}
		fa, faOK := refToFloatValue(a)
		fb, fbOK := refToFloatValue(b)
		if faOK && fbOK {
			switch {
			case fa < fb:
				return -1
			case fa > fb:
				return 1
			}
			return 0
		}
		return strings.Compare(pg.FormatValue(a), pg.FormatValue(b))
	}
	refSortSlice(res.Rows, func(a, b []pg.Value) bool {
		for _, k := range keys {
			col, ok := idx[k.Alias]
			if !ok {
				continue
			}
			c := lessVal(a[col], b[col])
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}

func refToFloatValue(v pg.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// refSortSlice is a tiny generic wrapper so eval.go reads cleanly.
func refSortSlice[T any](s []T, less func(a, b T) bool) {
	sort.SliceStable(s, func(i, j int) bool { return less(s[i], s[j]) })
}

// refEvalExpr evaluates an expression under a refBinding. Results follow Cypher's
// ternary logic loosely: nil propagates and comparisons with nil are nil,
// which refIsTrue treats as false.
func (ev *refEvaluator) refEvalExpr(e Expr, b refBinding) (any, error) {
	switch x := e.(type) {
	case VarExpr:
		v, ok := b.get(x.Name)
		if !ok {
			return nil, fmt.Errorf("cypher: unbound variable %q", x.Name)
		}
		return v, nil
	case PropExpr:
		v, ok := b.get(x.Var)
		if !ok {
			return nil, fmt.Errorf("cypher: unbound variable %q", x.Var)
		}
		switch ref := v.(type) {
		case refNodeRef:
			return ev.store.Node(pg.NodeID(ref)).Prop(x.Key), nil
		case refEdgeRef:
			return ev.store.Edge(pg.EdgeID(ref)).Prop(x.Key), nil
		case nil:
			return nil, nil
		default:
			return nil, fmt.Errorf("cypher: %q is not a node or relationship", x.Var)
		}
	case ConstExpr:
		return x.Value, nil
	case ParamExpr:
		v, ok := ev.params[x.Name]
		if !ok {
			return nil, fmt.Errorf("cypher: no value supplied for parameter $%s", x.Name)
		}
		return v, nil
	case NullExpr:
		return nil, nil
	case NotExpr:
		v, err := ev.refEvalExpr(x.E, b)
		if err != nil {
			return nil, err
		}
		if v == nil {
			return nil, nil
		}
		return !refIsTrue(v), nil
	case IsNullExpr:
		v, err := ev.refEvalExpr(x.E, b)
		if err != nil {
			return nil, err
		}
		if x.Neg {
			return v != nil, nil
		}
		return v == nil, nil
	case InExpr:
		v, err := ev.refEvalExpr(x.E, b)
		if err != nil {
			return nil, err
		}
		for _, le := range x.List {
			lv, err := ev.refEvalExpr(le, b)
			if err != nil {
				return nil, err
			}
			if pg.ValueEqual(ev.refMaterialize(v), ev.refMaterialize(lv)) {
				return true, nil
			}
		}
		return false, nil
	case BinaryExpr:
		return ev.refEvalBinary(x, b)
	case CallExpr:
		return ev.refEvalCall(x, b)
	default:
		return nil, fmt.Errorf("cypher: unknown expression %T", e)
	}
}

func (ev *refEvaluator) refEvalBinary(x BinaryExpr, b refBinding) (any, error) {
	l, err := ev.refEvalExpr(x.L, b)
	if err != nil {
		return nil, err
	}
	if x.Op == "AND" || x.Op == "OR" {
		r, err := ev.refEvalExpr(x.R, b)
		if err != nil {
			return nil, err
		}
		if x.Op == "AND" {
			return refIsTrue(l) && refIsTrue(r), nil
		}
		return refIsTrue(l) || refIsTrue(r), nil
	}
	r, err := ev.refEvalExpr(x.R, b)
	if err != nil {
		return nil, err
	}
	if l == nil || r == nil {
		return nil, nil
	}
	lv, rv := ev.refMaterialize(l), ev.refMaterialize(r)
	switch x.Op {
	case "=":
		return pg.ValueEqual(lv, rv), nil
	case "<>":
		return !pg.ValueEqual(lv, rv), nil
	}
	cmp, ok := refCompareValues(lv, rv)
	if !ok {
		return nil, nil
	}
	switch x.Op {
	case "<":
		return cmp < 0, nil
	case "<=":
		return cmp <= 0, nil
	case ">":
		return cmp > 0, nil
	case ">=":
		return cmp >= 0, nil
	default:
		return nil, fmt.Errorf("cypher: unknown operator %q", x.Op)
	}
}

func refCompareValues(a, b pg.Value) (int, bool) {
	fa, faOK := refToFloatValue(a)
	fb, fbOK := refToFloatValue(b)
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

func (ev *refEvaluator) refEvalCall(x CallExpr, b refBinding) (any, error) {
	args := make([]any, len(x.Args))
	for i, a := range x.Args {
		v, err := ev.refEvalExpr(a, b)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	switch x.Func {
	case "COALESCE":
		for _, a := range args {
			if a != nil {
				return a, nil
			}
		}
		return nil, nil
	case "LABELS":
		ref, ok := args[0].(refNodeRef)
		if !ok {
			return nil, fmt.Errorf("cypher: labels() requires a node")
		}
		labels := ev.store.Node(pg.NodeID(ref)).Labels()
		out := make([]pg.Value, len(labels))
		for i, l := range labels {
			out[i] = l
		}
		return out, nil
	case "TYPE":
		ref, ok := args[0].(refEdgeRef)
		if !ok {
			return nil, fmt.Errorf("cypher: type() requires a relationship")
		}
		return ev.store.Edge(pg.EdgeID(ref)).Label(), nil
	case "TOSTRING":
		if args[0] == nil {
			return nil, nil
		}
		return pg.FormatValue(ev.refMaterialize(args[0])), nil
	case "SIZE":
		switch v := args[0].(type) {
		case nil:
			return nil, nil
		case string:
			return int64(len(v)), nil
		case []pg.Value:
			return int64(len(v)), nil
		default:
			return int64(1), nil
		}
	case "ID":
		switch ref := args[0].(type) {
		case refNodeRef:
			return int64(ref), nil
		case refEdgeRef:
			return int64(ref), nil
		default:
			return nil, fmt.Errorf("cypher: id() requires a graph element")
		}
	case "STARTSWITH":
		s, ok1 := args[0].(string)
		p, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, nil
		}
		return strings.HasPrefix(s, p), nil
	case "CONTAINS":
		s, ok1 := args[0].(string)
		sub, ok2 := args[1].(string)
		if !ok1 || !ok2 {
			return nil, nil
		}
		return strings.Contains(s, sub), nil
	default:
		return nil, fmt.Errorf("cypher: unsupported function %s", x.Func)
	}
}

// refIsTrue converts a value to the boolean used by WHERE: only the boolean
// true passes (nil and everything else is false).
func refIsTrue(v any) bool {
	b, ok := v.(bool)
	return ok && b
}

// ReferenceEvalWith exposes the oracle to the external test package.
func ReferenceEvalWith(store *pg.Store, q *Query, opt EvalOptions) (*Results, error) {
	return refEvalWith(store, q, opt)
}
