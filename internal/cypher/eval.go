package cypher

import (
	"context"
	"fmt"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
)

// Always-on evaluation counters (obs.Default registry).
var (
	cEvalQueries = obs.Default.Counter("cypher.eval.queries")
	cEvalRows    = obs.Default.Counter("cypher.eval.rows")
)

// nodeRef and edgeRef are binding values referencing graph elements.
type nodeRef pg.NodeID
type edgeRef pg.EdgeID

// kvPair is one bound variable.
type kvPair struct {
	k string
	v any
}

// binding is a small ordered set of variable→value pairs (nodeRef, edgeRef,
// pg.Value, nil). Queries bind a handful of variables, so linear scans beat
// map hashing, and — the property the match pipeline lives on — a clone is
// one allocation plus a memcpy instead of a map rebuild. The invariant that
// keeps slice sharing safe: a binding is extended (set of a new key) only
// immediately after clone, so no two bindings ever share a backing array at
// different lengths.
type binding []kvPair

func (b binding) get(k string) (any, bool) {
	for i := range b {
		if b[i].k == k {
			return b[i].v, true
		}
	}
	return nil, false
}

// clone copies the binding with headroom for the variables the current
// pattern element is about to bind, so the following set calls stay in the
// same allocation.
func (b binding) clone() binding {
	c := make(binding, len(b), len(b)+2)
	copy(c, b)
	return c
}

// set binds k, replacing an existing entry; callers must use the return
// value (append semantics).
func (b binding) set(k string, v any) binding {
	for i := range b {
		if b[i].k == k {
			b[i].v = v
			return b
		}
	}
	return append(b, kvPair{k, v})
}

// del removes k by swap-remove; callers must use the return value.
func (b binding) del(k string) binding {
	for i := range b {
		if b[i].k == k {
			b[i] = b[len(b)-1]
			return b[:len(b)-1]
		}
	}
	return b
}

// EvalOptions configures evaluation beyond the defaults. The zero value is
// valid: no cancellation, no parameters, no tracing.
type EvalOptions struct {
	// Ctx cancels a running evaluation: the match pipeline checks it every
	// few hundred bindings, so a deadline bounds runaway cross products.
	Ctx context.Context
	// Params supplies values for $name parameter expressions.
	Params map[string]pg.Value
	// Span records each UNION part as a child span with its row count.
	Span *obs.Span
}

// evaluator carries per-evaluation state: the store, cancellation,
// parameters, and scratch buffers reused across rows so the steady-state
// match loop does not allocate per input binding.
type evaluator struct {
	store  *pg.Store
	ctx    context.Context
	params map[string]pg.Value
	steps  int
	seed   [1]binding // reused seed slice for per-row path expansion
}

// tick is the cooperative cancellation point, amortized so the common case
// is one increment and a mask test.
func (ev *evaluator) tick() error {
	ev.steps++
	if ev.steps&255 == 0 && ev.ctx != nil {
		if err := ev.ctx.Err(); err != nil {
			return fmt.Errorf("cypher: query canceled: %w", err)
		}
	}
	return nil
}

// Eval executes a query against a property graph store.
func Eval(store *pg.Store, q *Query) (*Results, error) {
	return EvalWith(store, q, EvalOptions{})
}

// EvalTraced is Eval recording each UNION part as a child span with its row
// count (nil span disables tracing at no cost).
func EvalTraced(store *pg.Store, q *Query, span *obs.Span) (*Results, error) {
	return EvalWith(store, q, EvalOptions{Span: span})
}

// EvalWith executes a query with cancellation, parameters, and tracing.
func EvalWith(store *pg.Store, q *Query, opt EvalOptions) (*Results, error) {
	cEvalQueries.Inc()
	if opt.Ctx != nil {
		if err := opt.Ctx.Err(); err != nil {
			return nil, fmt.Errorf("cypher: query canceled: %w", err)
		}
	}
	ev := &evaluator{store: store, ctx: opt.Ctx, params: opt.Params}
	var combined *Results
	for i, part := range q.Parts {
		var sp *obs.Span
		if opt.Span != nil {
			sp = opt.Span.StartSpan("part" + strconv.Itoa(i+1))
		}
		res, err := ev.evalSingle(part)
		if err != nil {
			return nil, err
		}
		sp.Count("rows", int64(len(res.Rows)))
		sp.End()
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
		combined.Rows = dedupeRows(combined.Rows)
	}
	if len(q.OrderBy) > 0 {
		orderRows(combined, q.OrderBy)
	}
	if q.Limit >= 0 && len(combined.Rows) > q.Limit {
		combined.Rows = combined.Rows[:q.Limit]
	}
	cEvalRows.Add(int64(len(combined.Rows)))
	opt.Span.Count("rows", int64(len(combined.Rows)))
	return combined, nil
}

func (ev *evaluator) evalSingle(sq *SingleQuery) (*Results, error) {
	rows := []binding{nil}
	var err error
	for _, rc := range sq.Reading {
		switch clause := rc.(type) {
		case MatchClause:
			rows, err = ev.evalMatch(clause, rows)
		case UnwindClause:
			rows, err = ev.evalUnwind(clause, rows)
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
	return ev.project(sq.Return, rows)
}

func (ev *evaluator) evalMatch(mc MatchClause, input []binding) ([]binding, error) {
	var out []binding
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
			matches, err = ev.expandPath(path, matches)
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
				v, err := ev.evalExpr(mc.Where, m)
				if err != nil {
					return nil, err
				}
				if isTrue(v) {
					kept = append(kept, m)
				}
			}
			matches = kept
		}
		if len(matches) == 0 && mc.Optional {
			nb := b.clone()
			for _, v := range clauseVars(mc) {
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

// clauseVars lists the variables a match clause introduces.
func clauseVars(mc MatchClause) []string {
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

// expandPath extends bindings along one path pattern.
func (ev *evaluator) expandPath(path PathPattern, input []binding) ([]binding, error) {
	// Anonymous head nodes still need an anchor for hop expansion; bind them
	// directly under a synthetic name that cannot clash with user
	// identifiers instead of re-keying every binding afterwards.
	prevVar := path.Head.Var
	key := prevVar
	if key == "" {
		prevVar = "\x00head"
		key = prevVar
	}
	cur, err := ev.bindNode(path.Head, key, input)
	if err != nil {
		return nil, err
	}
	for _, hop := range path.Hops {
		cur, err = ev.expandHop(prevVar, hop, cur)
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

// bindNode matches the head node pattern against the store (or an existing
// binding), storing each candidate under key and producing one binding per
// match. The candidate set is resolved once per call, not once per input
// row: for a multi-clause MATCH the input can be thousands of bindings and
// the per-row index lookup used to dominate the allocation profile.
func (ev *evaluator) bindNode(np NodePattern, key string, input []binding) ([]binding, error) {
	var out []binding
	candIDs, candNode, all := candidateSet(ev.store, np)
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		if np.Var != "" {
			if v, bound := b.get(np.Var); bound {
				if ref, ok := v.(nodeRef); ok && nodeMatches(ev.store.Node(pg.NodeID(ref)), np) {
					out = append(out, b)
				}
				continue
			}
		}
		switch {
		case all:
			for i := 0; i < ev.store.NumNodes(); i++ {
				out = tryBind(ev.store.Node(pg.NodeID(i)), np, key, b, out)
			}
		case candNode != nil:
			out = tryBind(candNode, np, key, b, out)
		default:
			for _, id := range candIDs {
				out = tryBind(ev.store.Node(id), np, key, b, out)
			}
		}
	}
	return out, nil
}

// tryBind appends a binding extended with the candidate node if it matches
// the pattern. A plain function, not a per-row closure.
func tryBind(n *pg.Node, np NodePattern, key string, b binding, out []binding) []binding {
	if !nodeMatches(n, np) {
		return out
	}
	nb := b.clone().set(key, nodeRef(n.ID))
	return append(out, nb)
}

// candidateSet picks the narrowest index for the pattern without
// materializing a node slice: label patterns reuse the index id slice,
// iri-equality patterns resolve to the one node of the unique index, and
// only the unconstrained case (all) scans every node.
func candidateSet(store *pg.Store, np NodePattern) (ids []pg.NodeID, one *pg.Node, all bool) {
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
		return nil, store.NodeByIRI(iri), false
	}
	return nil, nil, true
}

func nodeMatches(n *pg.Node, np NodePattern) bool {
	if n == nil {
		return false
	}
	for _, l := range np.Labels {
		if !n.HasLabel(l) {
			return false
		}
	}
	for k, want := range np.Props {
		have, ok := n.Props[k]
		if !ok || !pg.ValueEqual(have, want) {
			return false
		}
	}
	return true
}

// expandHop extends each binding across one relationship hop.
func (ev *evaluator) expandHop(fromVar string, hop Hop, input []binding) ([]binding, error) {
	var out []binding
	nodeKey := hop.Node.Var
	if nodeKey == "" {
		nodeKey = "\x00hop"
	}
	for _, b := range input {
		if err := ev.tick(); err != nil {
			return nil, err
		}
		v, _ := b.get(fromVar)
		ref, ok := v.(nodeRef)
		if !ok {
			continue
		}
		from := pg.NodeID(ref)
		if hop.Rel.Dir >= 0 {
			for _, eid := range ev.store.Out(from) {
				e := ev.store.Edge(eid)
				out = ev.tryHop(hop, nodeKey, b, e, e.To, out)
			}
		}
		if hop.Rel.Dir <= 0 {
			for _, eid := range ev.store.In(from) {
				e := ev.store.Edge(eid)
				out = ev.tryHop(hop, nodeKey, b, e, e.From, out)
			}
		}
	}
	return out, nil
}

// tryHop appends the extended binding if the edge and target node satisfy
// the hop pattern. A method rather than a closure: the old per-input-row
// closure allocation showed up directly in the eval benchmarks.
func (ev *evaluator) tryHop(hop Hop, nodeKey string, b binding, e *pg.Edge, target pg.NodeID, out []binding) []binding {
	if len(hop.Rel.Types) > 0 {
		match := false
		for _, t := range hop.Rel.Types {
			if t == e.Label {
				match = true
				break
			}
		}
		if !match {
			return out
		}
	}
	tn := ev.store.Node(target)
	if !nodeMatches(tn, hop.Node) {
		return out
	}
	if hop.Node.Var != "" {
		if v, bound := b.get(hop.Node.Var); bound {
			if r, ok := v.(nodeRef); !ok || pg.NodeID(r) != target {
				return out
			}
		}
	}
	if hop.Rel.Var != "" {
		if v, bound := b.get(hop.Rel.Var); bound {
			if r, ok := v.(edgeRef); !ok || pg.EdgeID(r) != e.ID {
				return out
			}
		}
	}
	nb := b.clone().set(nodeKey, nodeRef(target))
	if hop.Rel.Var != "" {
		nb = nb.set(hop.Rel.Var, edgeRef(e.ID))
	}
	return append(out, nb)
}

func (ev *evaluator) evalUnwind(uc UnwindClause, input []binding) ([]binding, error) {
	var out []binding
	for _, b := range input {
		v, err := ev.evalExpr(uc.Expr, b)
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

// project evaluates the RETURN clause, handling COUNT aggregation.
func (ev *evaluator) project(rc *ReturnClause, rows []binding) (*Results, error) {
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
				v, err := ev.evalExpr(item.Expr, b)
				if err != nil {
					return nil, err
				}
				row[i] = ev.materialize(v)
			}
			res.Rows = append(res.Rows, row)
		}
		if rc.Distinct {
			res.Rows = dedupeRows(res.Rows)
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
			v, err := ev.evalExpr(item.Expr, b)
			if err != nil {
				return nil, err
			}
			key = append(key, ev.materialize(v))
		}
		keyScratch = key[:0]
		ks := valuesKey(key)
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
			v, err := ev.evalExpr(item.Expr, b)
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
				k := pg.FormatValue(ev.materialize(v))
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

// materialize converts binding values to plain result values: nodes render
// as their iri property (or id), edges as their label.
func (ev *evaluator) materialize(v any) pg.Value {
	switch x := v.(type) {
	case nodeRef:
		n := ev.store.Node(pg.NodeID(x))
		if iri, ok := n.Props["iri"].(string); ok {
			return iri
		}
		return int64(x)
	case edgeRef:
		return ev.store.Edge(pg.EdgeID(x)).Label
	case nil:
		return nil
	default:
		return x
	}
}

// valuesKey renders a row as a single delimiter-joined string for grouping
// and dedupe maps, building in place rather than via a parts slice.
func valuesKey(vals []pg.Value) string {
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

func dedupeRows(rows [][]pg.Value) [][]pg.Value {
	seen := make(map[string]bool, len(rows))
	out := rows[:0]
	for _, r := range rows {
		k := valuesKey(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

func orderRows(res *Results, keys []OrderKey) {
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
		fa, faOK := toFloatValue(a)
		fb, fbOK := toFloatValue(b)
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
	sortSlice(res.Rows, func(a, b []pg.Value) bool {
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

func toFloatValue(v pg.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}
