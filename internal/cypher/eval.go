package cypher

import (
	"context"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/qexec"
)

// Always-on evaluation counters (obs.Default registry).
var (
	cEvalQueries = obs.Default.Counter("cypher.eval.queries")
	cEvalRows    = obs.Default.Counter("cypher.eval.rows")
)

// slot is one variable of a match row: a kind tag over a 32-bit payload —
// a node id, an edge id, or an index into the evaluation's value table. The
// zero slot is a variable nothing has bound yet.
type slot uint64

const (
	kUnbound = iota
	kNull
	kNode
	kEdge
	kValue
)

func mkSlot(kind uint8, id uint32) slot { return slot(kind)<<32 | slot(id) }
func (s slot) kind() uint8              { return uint8(s >> 32) }
func (s slot) id() uint32               { return uint32(s) }

// matchTable holds bindings: one slot per variable of the query part
// (anonymous pattern elements included). valueTable holds projected rows.
type (
	matchTable = qexec.Table[slot]
	valueTable = qexec.Table[pg.Value]
)

// EvalOptions configures evaluation beyond the defaults. The zero value is
// valid: no cancellation, no parameters.
type EvalOptions struct {
	// Ctx cancels a running evaluation: every operator checks it every few
	// hundred rows or candidates, so a deadline bounds runaway cross products.
	Ctx context.Context
	// Params supplies values for $name parameter expressions.
	Params map[string]pg.Value
}

// Answer is a query's result as one flat array of values, which Results cuts
// into rows; a caller that serializes the answer reads it row by row.
type Answer struct {
	Cols []string
	// Truncated reports that the row cap passed to Run cut the answer.
	Truncated bool

	rows valueTable
}

// Len returns the number of rows.
func (a *Answer) Len() int { return a.rows.N }

// Row returns row i; it aliases the answer.
func (a *Answer) Row(i int) []pg.Value { return a.rows.Row(i) }

// Results cuts the answer into rows without copying the values.
func (a *Answer) Results() *Results {
	res := &Results{Cols: a.Cols}
	if a.rows.N > 0 {
		res.Rows = make([][]pg.Value, a.rows.N)
		for i := range res.Rows {
			res.Rows[i] = a.rows.Row(i)
		}
	}
	return res
}

// evaluator carries one evaluation's state: the store, cancellation,
// parameters, and the value table the slots of kind kValue index — every
// value a row binds that is not a graph element (UNWIND items) lives there,
// appended once, so a row stays a row of words.
type evaluator struct {
	store  *pg.Store
	x      *qexec.Exec
	params map[string]pg.Value
	vals   []pg.Value
}

// EvalWith executes a query against a property graph store, with the
// cancellation and parameters opt gives.
func EvalWith(store *pg.Store, q *Query, opt EvalOptions) (*Results, error) {
	a, err := Run(store, q, opt, 0)
	if err != nil {
		return nil, err
	}
	return a.Results(), nil
}

// Run is EvalWith returning the answer unmaterialized. maxRows > 0 caps it:
// the answer keeps the first maxRows rows and says whether there were more,
// and where no ORDER BY, DISTINCT, UNION dedupe or aggregate needs every row
// — and no expression left to evaluate could fail — the match stops as soon
// as maxRows+1 are known.
func Run(store *pg.Store, q *Query, opt EvalOptions, maxRows int) (*Answer, error) {
	cEvalQueries.Inc()
	x, err := qexec.New(opt.Ctx, "cypher")
	if err != nil {
		return nil, err
	}
	return run(x, store, q, opt, maxRows)
}

func run(x *qexec.Exec, store *pg.Store, q *Query, opt EvalOptions, maxRows int) (*Answer, error) {
	ev := &evaluator{store: store, x: x, params: opt.Params}
	parts := make([]*partPlan, len(q.Parts))
	for i, sq := range q.Parts {
		if sq.Return == nil {
			return nil, fmt.Errorf("cypher: query lacks RETURN")
		}
		parts[i] = ev.lowerPart(sq)
	}

	// How many rows the tail can use when it does not need them all: a bound
	// is pushed into a part only if nothing between its matches and the cut
	// reorders, merges or counts rows, or could fail on a row past the cut.
	need := 0 // unlimited
	if len(q.OrderBy) == 0 && (q.All || len(parts) == 1) {
		need = q.Limit
		if maxRows > 0 && (need < 0 || need > maxRows+1) {
			need = maxRows + 1
		}
		if need < 0 {
			need = 0
		}
		for _, p := range parts {
			if !p.streams {
				need = 0
			}
		}
	}

	a := &Answer{}
	for i, p := range parts {
		if i == 0 {
			a.Cols = p.cols
			a.rows.Stride = len(p.cols)
		}
		before, limit := a.rows.N, 0
		if need > 0 {
			limit = need - before
		}
		// A part past the bound is not run: it streams, so it cannot fail.
		if need == 0 || limit > 0 {
			part := &a.rows
			if len(p.cols) != a.rows.Stride {
				part = &valueTable{Stride: len(p.cols)} // evaluated for its errors only
			}
			if err := p.eval(part, limit); err != nil {
				return nil, err
			}
		}
		if len(p.cols) != a.rows.Stride {
			return nil, fmt.Errorf("cypher: UNION parts have different arities (%d vs %d)",
				a.rows.Stride, len(p.cols))
		}
	}
	if !q.All && len(parts) > 1 {
		if err := qexec.Distinct(x, &a.rows, valuesKey); err != nil {
			return nil, err
		}
	}
	if len(q.OrderBy) > 0 {
		if err := orderRows(x, a, q.OrderBy, q.Limit); err != nil {
			return nil, err
		}
	}
	a.rows.Slice(0, q.Limit)
	if maxRows > 0 && a.rows.N > maxRows {
		a.rows.Slice(0, maxRows)
		a.Truncated = true
	}
	cEvalRows.Add(int64(a.rows.N))
	return a, nil
}

// partPlan is one lowered single query: variable names resolved to slots,
// one operator per reading clause, and the projection. It is built per
// evaluation and owns its intermediate tables.
type partPlan struct {
	ev    *evaluator
	names []string // slot → variable; "" for an anonymous pattern element
	// holds is, per slot, what its value can be at the current point of
	// lowering (hUnbound, hElement, hAny). It is what lets lowering prove
	// that an expression cannot fail.
	holds   []uint8
	clauses []clauseOp
	ret     *ReturnClause
	items   []lexpr // lowered RETURN expressions; nil for count(*)
	cols    []string
	hasAgg  bool
	// streams: rows come out in match order, one per match, and no expression
	// of the part can fail — so a row limit may cut the matching short.
	streams bool
}

const (
	hUnbound = iota // nothing has bound the variable yet
	hElement        // a node, an edge or null: what a pattern binds
	hAny            // any value: an UNWIND alias
)

// clauseOp is one lowered reading clause: it appends to out the rows in
// yields, stopping once out holds limit rows (limit <= 0: no bound).
type clauseOp interface {
	eval(in, out *matchTable, limit int) error
}

func (p *partPlan) slotOf(name string) int {
	for i, n := range p.names {
		if n == name && name != "" {
			return i
		}
	}
	return -1
}

// bind returns the variable's slot, creating it on first sight; "" always
// gets a fresh slot.
func (p *partPlan) bind(name string) int {
	if s := p.slotOf(name); s >= 0 {
		return s
	}
	p.names = append(p.names, name)
	p.holds = append(p.holds, hUnbound)
	return len(p.names) - 1
}

func (ev *evaluator) lowerPart(sq *SingleQuery) *partPlan {
	p := &partPlan{ev: ev, ret: sq.Return, streams: !sq.Return.Distinct}
	for _, rc := range sq.Reading {
		switch c := rc.(type) {
		case MatchClause:
			p.clauses = append(p.clauses, p.lowerMatch(c))
		case UnwindClause:
			e, total := p.lowerExpr(c.Expr)
			p.streams = p.streams && total
			s := p.bind(c.Alias)
			p.holds[s] = hAny
			p.clauses = append(p.clauses, &unwindOp{p: p, e: e, alias: s})
		}
	}
	for _, item := range sq.Return.Items {
		p.cols = append(p.cols, item.Alias)
		var e lexpr
		if item.Expr != nil {
			var total bool
			e, total = p.lowerExpr(item.Expr)
			p.streams = p.streams && total
		}
		p.items = append(p.items, e)
		if item.Agg != "" {
			p.hasAgg = true
			p.streams = false
		}
	}
	return p
}

// eval runs the part's clauses and appends its projected rows to out.
func (p *partPlan) eval(out *valueTable, limit int) error {
	width := len(p.names)
	cur := &matchTable{Stride: width, N: 1, Data: make([]slot, width)}
	for i, c := range p.clauses {
		l := 0
		if i == len(p.clauses)-1 {
			l = limit // only the last clause's rows are the part's
		}
		next := &matchTable{Stride: width}
		if err := c.eval(cur, next, l); err != nil {
			return err
		}
		if cur = next; cur.N == 0 {
			break
		}
	}
	return p.returnRows(cur, out)
}

// matchOp is a lowered MATCH: its path patterns flattened into steps that a
// depth-first walk takes one after the other over a single scratch row.
type matchOp struct {
	p        *partPlan
	optional bool
	steps    []matchStep
	// where holds the conjuncts of the WHERE clause that run once a match is
	// complete. When the whole clause provably cannot fail, each conjunct
	// moves to the step that binds the last variable it reads (pre: none of
	// this clause's) and where stays empty; otherwise all of them stay here
	// and every one is evaluated on every match, so that an error surfaces
	// exactly when it did before.
	where []lexpr
	pre   []lexpr
	vars  []int // named slots the clause mentions, for OPTIONAL's null fill

	scratch []slot
	one     [1]pg.NodeID // candidates' list for an iri lookup
	out     *matchTable
	limit   int
	matched int
	stop    bool
}

// matchStep binds one pattern element: a path's head node (from < 0) or a
// hop from an already bound node across one relationship.
type matchStep struct {
	node    NodePattern
	nslot   int
	from    int // slot of the hop's source node; -1 for a head
	rel     RelPattern
	rslot   int // -1: the relationship is not named
	filters []lexpr
	// The patterns' names as the store interned them (evaluator.sym). labels
	// and types are slices of symbuf while they fit: resolve runs on the step
	// in its final place, so a lowered query allocates nothing for them.
	labels, types []pg.Sym
	symbuf        [4]pg.Sym
	props         []propWant
	// iri, when set, is an expression the clause requires to equal the
	// node's iri property: the unique index then names the one candidate.
	iri lexpr
}

// propWant is one entry of a node pattern's property map.
type propWant struct {
	key  pg.Sym
	want pg.Value
}

// noSym stands for a name the store never interned: no node has it as a
// label, no edge as its type, no record as a key.
const noSym = ^pg.Sym(0)

// sym resolves a label, type or key name of the query against the store.
func (ev *evaluator) sym(name string) pg.Sym {
	if id, ok := ev.store.Sym(name); ok {
		return id
	}
	return noSym
}

// resolve looks the step's label, key and type names up in the store, once.
func (st *matchStep) resolve(ev *evaluator) {
	ids := st.symbuf[:0]
	for _, l := range st.node.Labels {
		ids = append(ids, ev.sym(l))
	}
	n := len(ids)
	for _, t := range st.rel.Types {
		ids = append(ids, ev.sym(t))
	}
	st.labels, st.types = ids[:n:n], ids[n:]
	for k, want := range st.node.Props {
		st.props = append(st.props, propWant{ev.sym(k), want})
	}
}

func (p *partPlan) lowerMatch(mc MatchClause) *matchOp {
	m := &matchOp{p: p, optional: mc.Optional}
	// boundAt is, per slot, one more than the step after which this clause
	// has bound it; 0 for a slot the clause does not mention, which was
	// settled before it.
	boundAt := make([]int, len(p.names), len(p.names)+4)
	during := append(make([]uint8, 0, len(p.holds)+4), p.holds...) // holds as WHERE sees them
	mention := func(name string) int {
		s := p.bind(name)
		if s == len(boundAt) {
			boundAt, during = append(boundAt, 0), append(during, 0)
		}
		if boundAt[s] == 0 {
			boundAt[s] = len(m.steps) + 1
			during[s] = hElement // whatever it held, a match leaves it what the pattern says
			if name != "" {
				m.vars = append(m.vars, s)
			}
		}
		return s
	}
	for _, path := range mc.Paths {
		prev := mention(path.Head.Var)
		m.steps = append(m.steps, matchStep{node: path.Head, nslot: prev, from: -1, rslot: -1})
		for _, hop := range path.Hops {
			st := matchStep{node: hop.Node, from: prev, rel: hop.Rel, rslot: -1}
			if hop.Rel.Var != "" {
				st.rslot = mention(hop.Rel.Var)
			}
			st.nslot = mention(hop.Node.Var)
			m.steps = append(m.steps, st)
			prev = st.nslot
		}
	}
	for i := range m.steps {
		m.steps[i].resolve(p.ev)
	}

	if mc.Where != nil {
		after := p.holds
		p.holds = during
		var reads [][]int
		allTotal := true
		for _, c := range conjuncts(mc.Where, nil) {
			e, total := p.lowerExpr(c)
			m.where = append(m.where, e)
			reads = append(reads, exprSlots(e, nil))
			allTotal = allTotal && total
		}
		p.holds = after
		if allTotal {
			for i, e := range m.where {
				at := 0
				for _, s := range reads[i] {
					if boundAt[s] > at {
						at = boundAt[s]
					}
				}
				if at == 0 {
					m.pre = append(m.pre, e)
					continue
				}
				st := &m.steps[at-1]
				st.filters = append(st.filters, e)
				if st.from < 0 && len(st.node.Labels) == 0 && st.iri == nil {
					st.iri = iriEquals(e, st.nslot)
				}
			}
			m.where = nil
		} else {
			p.streams = false
		}
	}

	// What the clause leaves behind: a mentioned variable is a node or an
	// edge in every row that matched; an OPTIONAL clause's null fill keeps
	// whatever an already bound variable held and nulls the others.
	for s, at := range boundAt {
		if at > 0 && (!mc.Optional || p.holds[s] == hUnbound) {
			p.holds[s] = hElement
		}
	}
	return m
}

// conjuncts splits an expression at its top-level ANDs: a row passes WHERE
// exactly when every conjunct is true, because AND yields a plain boolean.
func conjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(BinaryExpr); ok && b.Op == "AND" {
		return conjuncts(b.R, conjuncts(b.L, out))
	}
	return append(out, e)
}

// iriEquals recognizes `v.iri = <constant or parameter>` (either way round)
// for the variable in slot s and returns the other side.
func iriEquals(e lexpr, s int) lexpr {
	b, ok := e.(*lBinary)
	if !ok || b.op != "=" {
		return nil
	}
	for _, side := range [2][2]lexpr{{b.l, b.r}, {b.r, b.l}} {
		if prop, ok := side[0].(*lProp); ok && prop.slot == s && prop.key == "iri" {
			if c, ok := side[1].(*lConst); ok {
				return c
			}
		}
	}
	return nil
}

func (m *matchOp) eval(in, out *matchTable, limit int) error {
	m.out, m.limit, m.stop = out, limit, false
	if cap(m.scratch) < in.Stride {
		m.scratch = make([]slot, in.Stride)
	}
	m.scratch = m.scratch[:in.Stride]
	for i := 0; i < in.N && !m.stop; i++ {
		if err := m.p.ev.x.Tick(); err != nil {
			return err
		}
		copy(m.scratch, in.Row(i))
		m.matched = 0
		ok, err := m.p.ev.all(m.pre, m.scratch)
		if err != nil {
			return err
		}
		if ok {
			if err := m.run(0); err != nil {
				return err
			}
		}
		if m.matched == 0 && m.optional {
			// run left the scratch row as it found it: the input row.
			for _, s := range m.vars {
				if m.scratch[s].kind() == kUnbound {
					m.scratch[s] = mkSlot(kNull, 0)
				}
			}
			m.emit()
		}
	}
	return nil
}

func (m *matchOp) emit() {
	m.out.Append(m.scratch)
	m.stop = m.out.N == m.limit
}

// run extends the scratch row across steps[k:] and emits it past the last.
// A step restores the slots it bound before it returns, so the caller's
// bindings are intact for its next candidate.
func (m *matchOp) run(k int) error {
	ev := m.p.ev
	if k == len(m.steps) {
		// Every conjunct is evaluated, pass or not: one that fails must fail
		// the query whatever the others say.
		pass := true
		for _, e := range m.where {
			v, err := ev.evalExpr(e, m.scratch)
			if err != nil {
				return err
			}
			pass = pass && isTrue(v)
		}
		if pass {
			m.matched++
			m.emit()
		}
		return nil
	}
	st := &m.steps[k]
	row := m.scratch
	if st.from < 0 {
		return m.bindHead(k, st)
	}
	src := row[st.from]
	if src.kind() != kNode {
		return nil
	}
	from := pg.NodeID(src.id())
	if st.rel.Dir >= 0 {
		for _, eid := range ev.store.Out(from) {
			e := ev.store.Edge(eid)
			if err := m.tryHop(k, st, e, e.To); err != nil || m.stop {
				return err
			}
		}
	}
	if st.rel.Dir <= 0 {
		for _, eid := range ev.store.In(from) {
			e := ev.store.Edge(eid)
			if err := m.tryHop(k, st, e, e.From); err != nil || m.stop {
				return err
			}
		}
	}
	return nil
}

// bindHead matches a path's head node: an already bound variable is checked
// in place; otherwise the candidates come from the narrowest index — the
// unique iri index, the shortest label list, or every node.
func (m *matchOp) bindHead(k int, st *matchStep) error {
	ev := m.p.ev
	if cur := m.scratch[st.nslot]; cur.kind() != kUnbound {
		if cur.kind() != kNode || !st.nodeMatches(ev.store.Node(pg.NodeID(cur.id()))) {
			return nil
		}
		return m.enter(k, st)
	}
	var err error
	switch ids, all := m.candidates(st); {
	case all:
		for i, n := 0, ev.store.NumNodes(); i < n && err == nil && !m.stop; i++ {
			err = m.tryHead(k, st, ev.store.Node(pg.NodeID(i)))
		}
	default:
		for i := 0; i < len(ids) && err == nil && !m.stop; i++ {
			err = m.tryHead(k, st, ev.store.Node(ids[i]))
		}
	}
	m.scratch[st.nslot] = 0
	return err
}

func (m *matchOp) tryHead(k int, st *matchStep, n pg.Node) error {
	if err := m.p.ev.x.Tick(); err != nil {
		return err
	}
	if !st.nodeMatches(n) {
		return nil
	}
	m.scratch[st.nslot] = mkSlot(kNode, uint32(n.ID))
	return m.enter(k, st)
}

// candidates picks the narrowest index for a head pattern without
// materializing a node slice: label patterns reuse the index id slice,
// iri-equality patterns (in the property map, or proven by WHERE) resolve to
// the node the unique index holds, if any, and only the unconstrained case
// (all) scans every node.
func (m *matchOp) candidates(st *matchStep) (ids []pg.NodeID, all bool) {
	store := m.p.ev.store
	if labels := st.node.Labels; len(labels) > 0 {
		best := store.NodesByLabel(labels[0])
		for _, l := range labels[1:] {
			if ids := store.NodesByLabel(l); len(ids) < len(best) {
				best = ids
			}
		}
		return best, false
	}
	iri, ok := st.node.Props["iri"].(string)
	if c, isConst := st.iri.(*lConst); !ok && isConst && store.IRIUnique() {
		// WHERE promises every node with this iri, which the index has only
		// while no two nodes share one; the filter re-checks the property,
		// so a stale index entry only costs the lookup.
		iri, ok = c.v.v.(string)
	}
	if !ok {
		return nil, true
	}
	if n, found := store.NodeByIRI(iri); found {
		m.one[0] = n.ID
		return m.one[:], false
	}
	return nil, false
}

func (st *matchStep) nodeMatches(n pg.Node) bool {
	for _, l := range st.labels {
		if !n.HasLabelSym(l) {
			return false
		}
	}
	for _, p := range st.props {
		if have := n.PropSym(p.key); have == nil || !pg.ValueEqual(have, p.want) {
			return false
		}
	}
	return true
}

// tryHop takes one edge if it and its far node satisfy the hop pattern and
// agree with what the row already binds.
func (m *matchOp) tryHop(k int, st *matchStep, e pg.Edge, target pg.NodeID) error {
	ev := m.p.ev
	if err := ev.x.Tick(); err != nil {
		return err
	}
	if len(st.rel.Types) > 0 {
		if !slices.Contains(st.types, e.LabelSym()) {
			return nil
		}
	}
	if !st.nodeMatches(ev.store.Node(target)) {
		return nil
	}
	row := m.scratch
	node, edge := mkSlot(kNode, uint32(target)), mkSlot(kEdge, uint32(e.ID))
	oldNode := row[st.nslot]
	if oldNode.kind() != kUnbound && oldNode != node {
		return nil
	}
	var oldEdge slot
	if st.rslot >= 0 {
		if oldEdge = row[st.rslot]; oldEdge.kind() != kUnbound && oldEdge != edge {
			return nil
		}
	}
	row[st.nslot] = node
	if st.rslot >= 0 {
		row[st.rslot] = edge
	}
	err := m.enter(k, st)
	row[st.nslot] = oldNode
	if st.rslot >= 0 {
		row[st.rslot] = oldEdge
	}
	return err
}

// enter runs the filters that became decidable at step k and goes on.
func (m *matchOp) enter(k int, st *matchStep) error {
	ok, err := m.p.ev.all(st.filters, m.scratch)
	if err != nil || !ok {
		return err
	}
	return m.run(k + 1)
}

// all reports whether every expression is true for the row.
func (ev *evaluator) all(es []lexpr, row []slot) (bool, error) {
	for _, e := range es {
		v, err := ev.evalExpr(e, row)
		if err != nil || !isTrue(v) {
			return false, err
		}
	}
	return true, nil
}

// unwindOp expands a list expression into one row per item.
type unwindOp struct {
	p     *partPlan
	e     lexpr
	alias int
}

func (u *unwindOp) eval(in, out *matchTable, limit int) error {
	ev := u.p.ev
	add := func(row []slot, v cval) bool {
		out.Append(row)
		out.Data[len(out.Data)-out.Stride+u.alias] = ev.slotFor(v)
		return out.N == limit
	}
	for i := 0; i < in.N; i++ {
		row := in.Row(i)
		if err := ev.x.Tick(); err != nil {
			return err
		}
		v, err := ev.evalExpr(u.e, row)
		if err != nil {
			return err
		}
		if v.kind == kNull {
			continue // UNWIND NULL produces no rows
		}
		list, ok := v.v.([]pg.Value)
		if !ok {
			if add(row, v) {
				return nil
			}
			continue
		}
		for _, item := range list {
			if err := ev.x.Tick(); err != nil {
				return err
			}
			if add(row, valueOf(item)) {
				return nil
			}
		}
	}
	return nil
}

// slotFor stores an expression value in a row: graph elements by id, any
// other value through the value table.
func (ev *evaluator) slotFor(v cval) slot {
	if v.kind != kValue {
		return mkSlot(v.kind, v.id)
	}
	ev.vals = append(ev.vals, v.v)
	return mkSlot(kValue, uint32(len(ev.vals)-1))
}

// returnRows evaluates the RETURN clause over the matched rows, appending to
// out: a row per match, or a row per group when an item is an aggregate.
func (p *partPlan) returnRows(rows *matchTable, out *valueTable) error {
	ev := p.ev
	if !p.hasAgg {
		first := out.N
		out.Data = slices.Grow(out.Data, rows.N*out.Stride)
		err := qexec.Map(ev.x, rows, out, func(dst []pg.Value, row []slot) error {
			for i, e := range p.items {
				v, err := ev.evalExpr(e, row)
				if err != nil {
					return err
				}
				dst[i] = ev.materialize(v)
			}
			return nil
		})
		if err != nil || !p.ret.Distinct {
			return err
		}
		// DISTINCT is the part's own: rows of earlier parts are not its to drop.
		own := valueTable{Stride: out.Stride, N: out.N - first, Data: out.Data[first*out.Stride:]}
		if err := qexec.Distinct(ev.x, &own, valuesKey); err != nil {
			return err
		}
		out.N, out.Data = first+own.N, out.Data[:(first+own.N)*out.Stride]
		return nil
	}

	// Group by the non-aggregate items.
	type group struct {
		key    []pg.Value
		counts []int64
		seen   []map[string]bool
	}
	items := p.ret.Items
	groups := map[string]*group{}
	var order []*group
	// The grouping key is recomputed per row into reused scratch; only a
	// newly seen group copies it out.
	key := make([]pg.Value, 0, len(items))
	var keyBuf []byte
	for r := 0; r < rows.N; r++ {
		if err := ev.x.Tick(); err != nil {
			return err
		}
		row := rows.Row(r)
		key = key[:0]
		for i, item := range items {
			if item.Agg != "" {
				continue
			}
			v, err := ev.evalExpr(p.items[i], row)
			if err != nil {
				return err
			}
			key = append(key, ev.materialize(v))
		}
		keyBuf = valuesKey(keyBuf[:0], key)
		g, ok := groups[string(keyBuf)]
		if !ok {
			g = &group{
				key:    append([]pg.Value(nil), key...),
				counts: make([]int64, len(items)),
				seen:   make([]map[string]bool, len(items)),
			}
			groups[string(keyBuf)] = g
			order = append(order, g)
		}
		for i, item := range items {
			if item.Agg == "" {
				continue
			}
			if item.Star {
				g.counts[i]++
				continue
			}
			v, err := ev.evalExpr(p.items[i], row)
			if err != nil {
				return err
			}
			if v.kind == kNull {
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
		for _, item := range items {
			if item.Agg == "" {
				return nil
			}
		}
		order = append(order, &group{counts: make([]int64, len(items))})
	}
	for _, g := range order {
		ki := 0
		for i, item := range items {
			if item.Agg != "" {
				out.Data = append(out.Data, g.counts[i])
			} else {
				out.Data = append(out.Data, g.key[ki])
				ki++
			}
		}
		out.N++
	}
	return nil
}

// materialize converts expression values to plain result values: nodes
// render as their iri property (or id), edges as their label.
func (ev *evaluator) materialize(v cval) pg.Value {
	switch v.kind {
	case kNode:
		iri := ev.store.Node(pg.NodeID(v.id)).Prop("iri")
		if _, ok := iri.(string); ok {
			return iri // the stored interface value: no new box
		}
		return int64(v.id)
	case kEdge:
		return ev.store.Edge(pg.EdgeID(v.id)).Label()
	case kValue:
		return v.v
	default:
		return nil
	}
}

// valuesKey appends a row rendered as one delimiter-joined string, the key
// of grouping and dedupe maps.
func valuesKey(dst []byte, vals []pg.Value) []byte {
	for i, v := range vals {
		if i > 0 {
			dst = append(dst, 0x1f)
		}
		switch x := v.(type) {
		case nil:
			dst = append(dst, "\x00null"...)
		case string:
			dst = append(dst, x...)
		case int64:
			dst = strconv.AppendInt(dst, x, 10)
		default:
			dst = append(dst, pg.FormatValue(v)...)
		}
	}
	return dst
}

// sortKey is what ORDER BY needs of a value, extracted once per row: nulls
// sort last, numbers by value, anything else — and a number against a
// non-number — by its rendering.
type sortKey struct {
	null, num bool
	f         float64
	s         string
}

func compareSortKeys(a, b *sortKey) int {
	if a.null || b.null {
		switch {
		case a.null && b.null:
			return 0
		case a.null:
			return 1
		default:
			return -1
		}
	}
	if a.num && b.num {
		switch {
		case a.f < b.f:
			return -1
		case a.f > b.f:
			return 1
		}
		return 0
	}
	return strings.Compare(a.s, b.s)
}

// orderRows sorts the combined answer by output column. The sort may be cut
// to its first limit rows when every key column holds numbers only or
// non-numbers only: mixed, a number compares by value with one neighbour and
// by rendering with the other, which is no order at all, and only a true
// order makes a bounded selection equal the stable sort.
func orderRows(x *qexec.Exec, a *Answer, keys []OrderKey, limit int) error {
	type col struct {
		at   int
		desc bool
	}
	var cols []col
	for _, k := range keys {
		for c := len(a.Cols) - 1; c >= 0; c-- { // a repeated alias sorts by its last column
			if a.Cols[c] == k.Alias {
				cols = append(cols, col{c, k.Desc})
				break
			}
		}
	}
	if len(cols) == 0 {
		return nil
	}
	t := &a.rows
	nk := len(cols)
	sk := make([]sortKey, t.N*nk)
	total := true
	for c, oc := range cols {
		nums, others := false, false
		for i := 0; i < t.N; i++ {
			if err := x.Tick(); err != nil {
				return err
			}
			k := &sk[i*nk+c]
			switch v := t.Data[i*t.Stride+oc.at].(type) {
			case nil:
				k.null = true
			case int64:
				k.num, k.f = true, float64(v)
			case float64:
				k.num, k.f = true, v
				if v != v {
					total = false // NaN equals everything
				}
			case string:
				k.s = v
			default:
				k.s = pg.FormatValue(v)
			}
			nums, others = nums || k.num, others || !k.num && !k.null
		}
		if nums && others {
			total = false
			for i := 0; i < t.N; i++ {
				if k := &sk[i*nk+c]; k.num {
					k.s = pg.FormatValue(t.Data[i*t.Stride+oc.at])
				}
			}
		}
	}
	less := func(i, j int) bool {
		for c, oc := range cols {
			cmp := compareSortKeys(&sk[i*nk+c], &sk[j*nk+c])
			if cmp == 0 {
				continue
			}
			if oc.desc {
				return cmp > 0
			}
			return cmp < 0
		}
		return false
	}
	return qexec.Order(x, t, less, total, limit)
}
