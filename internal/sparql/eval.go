package sparql

import (
	"context"
	"strconv"
	"strings"

	"github.com/s3pg/s3pg/internal/qexec"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/xsd"
)

// unbound is the slot of a variable without a value (before its pattern
// runs, or past an OPTIONAL that did not match). It is also MatchEncoded's
// wildcard, so a pattern position reads its slot and passes it on as is.
const unbound = ^rdf.TermID(0)

// table holds solutions as rows of dictionary ids, one slot per variable of
// the query.
type table = qexec.Table[rdf.TermID]

// Answer is a query's result before any term is decoded: rows of dictionary
// ids over the graph's dictionary. Results materializes it; a caller that
// serializes the answer reads it cell by cell with View instead.
type Answer struct {
	Vars []string
	// Truncated reports that the row cap passed to Run cut the answer.
	Truncated bool

	rows   table
	dict   *rdf.Dict
	scalar *rdf.Term // the one cell of an ASK or COUNT answer
}

// Len returns the number of rows.
func (a *Answer) Len() int {
	if a.scalar != nil {
		return 1
	}
	return a.rows.N
}

// Term decodes one cell; the zero Term is an unbound variable.
func (a *Answer) Term(row, col int) rdf.Term {
	if a.scalar != nil {
		return *a.scalar
	}
	id := a.rows.Data[row*a.rows.Stride+col]
	if id == unbound {
		return rdf.Term{}
	}
	return a.dict.Term(id)
}

// View is Term's kind and value, which is all a cell's canonical string
// tr(µ) reads: a resident term's value aliases the dictionary, and nothing
// is allocated. An unbound variable is kind 0.
func (a *Answer) View(row, col int) (rdf.Kind, string) {
	if a.scalar != nil {
		return a.scalar.Kind, a.scalar.Value
	}
	id := a.rows.Data[row*a.rows.Stride+col]
	if id == unbound {
		return 0, ""
	}
	if k, v, ok := a.dict.ResidentView(id); ok {
		return k, v
	}
	return a.dict.View(id)
}

// Results decodes the whole answer: one array of terms, cut into rows.
func (a *Answer) Results() *Results {
	n, w := a.Len(), len(a.Vars)
	flat := make([]rdf.Term, n*w)
	rows := make([][]rdf.Term, n)
	for i := range rows {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
		for j := range rows[i] {
			rows[i][j] = a.Term(i, j)
		}
	}
	if n == 0 {
		rows = nil
	}
	return &Results{Vars: a.Vars, Rows: rows}
}

// EvalCtx evaluates a query against a graph with cooperative cancellation:
// every operator checks ctx every few hundred rows or index candidates. A nil
// ctx disables the checks.
func EvalCtx(ctx context.Context, g *rdf.Graph, q *Query) (*Results, error) {
	a, err := Run(ctx, g, q, 0)
	if err != nil {
		return nil, err
	}
	return a.Results(), nil
}

// Run evaluates a query and returns the undecoded answer. maxRows > 0 caps
// it: the answer keeps the first maxRows rows and says whether there were
// more, and where no DISTINCT, ORDER BY or COUNT needs every solution the
// scans stop as soon as maxRows+1 are known.
func Run(ctx context.Context, g *rdf.Graph, q *Query, maxRows int) (*Answer, error) {
	x, err := qexec.New(ctx, "sparql")
	if err != nil {
		return nil, err
	}
	return run(x, g, q, maxRows)
}

func run(x *qexec.Exec, g *rdf.Graph, q *Query, maxRows int) (*Answer, error) {
	pl := &plan{x: x, g: g, dict: g.Dict()}
	root := pl.lowerGroup(q.Where)

	vars := q.Vars
	if len(vars) == 0 {
		vars = collectVars(q.Where)
	}
	cols := make([]int, len(vars))
	for i, v := range vars {
		cols[i] = pl.slot(v)
	}
	// ORDER BY reads projected columns only; a key naming any other variable
	// orders nothing. A variable projected twice sorts by its last column.
	var order []orderCol
	for _, k := range q.OrderBy {
		for c := len(vars) - 1; c >= 0; c-- {
			if vars[c] == k.Var {
				order = append(order, orderCol{c, k.Desc})
				break
			}
		}
	}

	// How many solutions the tail can use, when it does not need them all.
	need := 0 // unlimited
	switch {
	case q.Ask:
		need = 1
	case q.CountVar == "" && !q.Distinct && len(order) == 0:
		want := q.Limit
		if maxRows > 0 && (want < 0 || want > maxRows+1) {
			want = maxRows + 1
		}
		if want >= 0 {
			need = q.Offset + want
			if need == 0 {
				need = 1 // LIMIT 0 still evaluates; 0 would mean unlimited
			}
		}
	}

	seed := table{Stride: len(pl.slots), N: 1, Data: make([]rdf.TermID, len(pl.slots))}
	for i := range seed.Data {
		seed.Data[i] = unbound
	}
	sols, err := root.eval(&seed, need)
	if err != nil {
		return nil, err
	}

	if q.Ask {
		return scalarAnswer("ask", strconv.FormatBool(sols.N > 0), rdf.XSDBoolean), nil
	}
	if q.CountVar != "" {
		return scalarAnswer(q.CountVar, strconv.Itoa(sols.N), rdf.XSDInteger), nil
	}

	a := &Answer{Vars: vars, dict: pl.dict}
	a.rows.Stride = len(cols)
	a.rows.Data = make([]rdf.TermID, 0, sols.N*len(cols))
	err = qexec.Map(x, sols, &a.rows, func(dst, row []rdf.TermID) error {
		for i, c := range cols {
			dst[i] = row[c]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if q.Distinct {
		if err := qexec.Distinct(x, &a.rows, idKey); err != nil {
			return nil, err
		}
	}
	if len(order) > 0 {
		keep := -1
		if q.Limit >= 0 {
			keep = q.Offset + q.Limit
		}
		if err := pl.orderBy(&a.rows, order, keep); err != nil {
			return nil, err
		}
	}
	a.rows.Slice(q.Offset, q.Limit)
	if maxRows > 0 && a.rows.N > maxRows {
		a.rows.Slice(0, maxRows)
		a.Truncated = true
	}
	return a, nil
}

func scalarAnswer(name, lexical, datatype string) *Answer {
	t := rdf.NewTypedLiteral(lexical, datatype)
	return &Answer{Vars: []string{name}, scalar: &t}
}

// idKey is the DISTINCT key of a projected row: its ids. Two cells hold the
// same term exactly when they hold the same id.
func idKey(dst []byte, row []rdf.TermID) []byte {
	for _, id := range row {
		dst = append(dst, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	}
	return dst
}

func collectVars(g *Group) []string {
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

// plan is one request's lowered query: variable names resolved to slots,
// constants to dictionary ids, and one operator per group element. It is
// built per evaluation and owns every intermediate table, so nothing about
// it outlives the request or is shared between requests.
type plan struct {
	x     *qexec.Exec
	g     *rdf.Graph
	dict  *rdf.Dict
	slots []string // slot → variable name; a query names a handful
}

// slot returns the variable's slot, assigning the next one on first sight.
func (pl *plan) slot(name string) int {
	for i, s := range pl.slots {
		if s == name {
			return i
		}
	}
	pl.slots = append(pl.slots, name)
	return len(pl.slots) - 1
}

// op is one lowered group element. eval reads in (never writing to it) and
// returns its solutions, in a table the operator owns and reuses on its next
// call; limit > 0 lets it stop once it holds that many.
type op interface {
	eval(in *table, limit int) (*table, error)
}

// groupOp runs its elements left to right, each over the solutions of the
// one before; an empty intermediate result ends the group.
type groupOp struct{ elems []op }

func (g *groupOp) eval(in *table, limit int) (*table, error) {
	cur := in
	for i, el := range g.elems {
		l := 0
		if i == len(g.elems)-1 {
			l = limit // only the last element's output is the group's
		}
		var err error
		if cur, err = el.eval(cur, l); err != nil {
			return nil, err
		}
		if cur.N == 0 {
			break
		}
	}
	return cur, nil
}

func last(ops []op) op {
	if len(ops) == 0 {
		return nil
	}
	return ops[len(ops)-1]
}

func (pl *plan) lowerGroup(g *Group) *groupOp {
	out := &groupOp{}
	if g == nil {
		return out
	}
	for _, el := range g.Elements {
		switch e := el.(type) {
		case BGP:
			out.elems = append(out.elems, pl.lowerBGP(e.Patterns))
		case Filter:
			// A filter right after a basic graph pattern tests each solution
			// as the join finds it — same rows, same order, no table between.
			if b, ok := last(out.elems).(*bgpOp); ok {
				b.filters = append(b.filters, pl.lowerExpr(e.Expr))
				continue
			}
			out.elems = append(out.elems, &filterOp{pl: pl, e: pl.lowerExpr(e.Expr)})
		case Optional:
			out.elems = append(out.elems, &optionalOp{pl: pl, sub: pl.lowerGroup(e.Group)})
		case Union:
			u := &unionOp{pl: pl}
			for _, b := range e.Branches {
				u.branches = append(u.branches, pl.lowerGroup(b))
			}
			out.elems = append(out.elems, u)
		}
	}
	return out
}

// bgpOp joins its triple patterns by nested index scans over ids: for each
// input row it walks the ordered patterns depth first, extending one scratch
// row in place, and appends the row to out when the last pattern matched.
// That visits solutions in the order a pattern-at-a-time join would list
// them. No term is decoded.
type bgpOp struct {
	pl      *plan
	steps   []patStep
	first   *patStep // head of the join order chosen for the current input
	filters []lexpr  // FILTERs that directly follow the pattern

	out     table
	scratch []rdf.TermID
	limit   int
	stop    bool  // out reached limit
	err     error // cancellation seen inside a scan callback

	ordered  bool
	lastMask uint64
}

// patPos is one position of a triple pattern: a variable's slot, or a
// constant's dictionary id.
type patPos struct {
	slot    int // -1: constant
	id      rdf.TermID
	missing bool // a constant the dictionary has never seen: no triple has it
}

type patStep struct {
	b     *bgpOp
	pos   [3]patPos
	next  *patStep
	visit func(s, p, o rdf.TermID) bool // onTriple, bound once at lowering
	// free marks the positions the current scan binds (unbound variables);
	// the others were handed to the scan and hold by construction.
	free [3]bool
	used bool // scratch for the ordering pass
}

func (pl *plan) lowerBGP(patterns []TriplePattern) *bgpOp {
	b := &bgpOp{pl: pl, steps: make([]patStep, len(patterns))}
	for i, p := range patterns {
		st := &b.steps[i]
		st.b = b
		for k, tv := range [3]TermOrVar{p.S, p.P, p.O} {
			if tv.IsVar() {
				st.pos[k] = patPos{slot: pl.slot(tv.Var)}
				continue
			}
			id, ok := pl.dict.Lookup(tv.Term)
			st.pos[k] = patPos{slot: -1, id: id, missing: !ok}
		}
		st.visit = st.onTriple
	}
	return b
}

// order chains the patterns greedily: at each step the one with the most
// positions bound — constants, and variables bound in the first input row or
// by a pattern already chained — ties going to source order.
func (b *bgpOp) order(first []rdf.TermID) {
	var mask uint64
	if len(first) <= 64 {
		for i, id := range first {
			if id != unbound {
				mask |= 1 << i
			}
		}
		if b.ordered && mask == b.lastMask {
			return
		}
		b.ordered, b.lastMask = true, mask
	}
	bound := make([]bool, len(first))
	for i, id := range first {
		bound[i] = id != unbound
	}
	for i := range b.steps {
		b.steps[i].used = false
	}
	link := &b.first
	for range b.steps {
		var best *patStep
		bestScore := -1
		for i := range b.steps {
			st := &b.steps[i]
			if st.used {
				continue
			}
			score := 0
			for _, p := range st.pos {
				if p.slot < 0 || bound[p.slot] {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = st, score
			}
		}
		best.used = true
		for _, p := range best.pos {
			if p.slot >= 0 {
				bound[p.slot] = true
			}
		}
		*link, link = best, &best.next
	}
	*link = nil
}

func (b *bgpOp) eval(in *table, limit int) (*table, error) {
	b.out.Reset(in.Stride)
	if in.N == 0 {
		return &b.out, nil
	}
	b.order(in.Row(0))
	if cap(b.scratch) < in.Stride {
		b.scratch = make([]rdf.TermID, in.Stride)
	}
	b.scratch = b.scratch[:in.Stride]
	b.limit, b.stop, b.err = limit, false, nil
	for i := 0; i < in.N && !b.stop; i++ {
		if err := b.pl.x.Tick(); err != nil {
			return nil, err
		}
		copy(b.scratch, in.Row(i))
		b.run(b.first)
		if b.err != nil {
			return nil, b.err
		}
	}
	return &b.out, nil
}

// run scans for st's pattern under the scratch row and recurses into the
// next pattern for every match; past the last pattern the row is a solution.
func (b *bgpOp) run(st *patStep) {
	if st == nil {
		for _, f := range b.filters {
			// An expression error eliminates the solution, like false.
			if v, err := b.pl.evalExpr(f, b.scratch); err != nil || !b.pl.truthy(&v) {
				return
			}
		}
		b.out.Append(b.scratch)
		b.stop = b.out.N == b.limit
		return
	}
	var ids [3]rdf.TermID
	for k, p := range st.pos {
		switch {
		case p.missing:
			return
		case p.slot < 0:
			ids[k] = p.id
		default:
			ids[k] = b.scratch[p.slot] // unbound is the wildcard
			st.free[k] = ids[k] == unbound
		}
	}
	b.pl.g.MatchEncoded(ids[0], ids[1], ids[2], st.visit)
}

func (st *patStep) onTriple(s, p, o rdf.TermID) bool {
	b := st.b
	if b.err = b.pl.x.Tick(); b.err != nil {
		return false
	}
	row, ids := b.scratch, [3]rdf.TermID{s, p, o}
	ok := true
	for k, free := range st.free {
		if !free {
			continue
		}
		// A variable the pattern names twice is free at both positions: the
		// first binds it, the second must agree.
		slot := st.pos[k].slot
		if row[slot] == unbound {
			row[slot] = ids[k]
		} else if row[slot] != ids[k] {
			ok = false
			break
		}
	}
	if ok {
		b.run(st.next)
	}
	for k, free := range st.free {
		if free {
			row[st.pos[k].slot] = unbound
		}
	}
	return !b.stop && b.err == nil
}

// filterOp keeps the solutions its expression holds for; an expression
// error eliminates the solution, it never fails the query.
type filterOp struct {
	pl  *plan
	e   lexpr
	out table
}

func (f *filterOp) eval(in *table, limit int) (*table, error) {
	f.out.Reset(in.Stride)
	err := qexec.Filter(f.pl.x, in, &f.out, limit, func(row []rdf.TermID) (bool, error) {
		v, err := f.pl.evalExpr(f.e, row)
		return err == nil && f.pl.truthy(&v), nil
	})
	return &f.out, err
}

// optionalOp left-joins its group, one input row at a time.
type optionalOp struct {
	pl  *plan
	sub *groupOp
	out table
}

func (o *optionalOp) eval(in *table, limit int) (*table, error) {
	o.out.Reset(in.Stride)
	one := table{Stride: in.Stride, N: 1}
	for i := 0; i < in.N; i++ {
		if err := o.pl.x.Tick(); err != nil {
			return nil, err
		}
		left := 0
		if limit > 0 {
			left = limit - o.out.N
		}
		one.Data = in.Row(i)
		ext, err := o.sub.eval(&one, left)
		if err != nil {
			return nil, err
		}
		if ext.N == 0 {
			o.out.Append(one.Data)
		} else {
			o.out.AppendTable(ext, left)
		}
		if limit > 0 && o.out.N == limit {
			break
		}
	}
	return &o.out, nil
}

// unionOp concatenates its branches' solutions, each branch over the whole
// input.
type unionOp struct {
	pl       *plan
	branches []*groupOp
	out      table
}

func (u *unionOp) eval(in *table, limit int) (*table, error) {
	u.out.Reset(in.Stride)
	for _, br := range u.branches {
		left := 0
		if limit > 0 {
			left = limit - u.out.N
		}
		part, err := br.eval(in, left)
		if err != nil {
			return nil, err
		}
		u.out.AppendTable(part, left)
		if limit > 0 && u.out.N == limit {
			break
		}
	}
	return &u.out, nil
}

// orderCol is one effective ORDER BY key: a projected column.
type orderCol struct {
	col  int
	desc bool
}

// termKey is what compareTerms needs of a term, extracted once per row: the
// kind, the lexical form, and for a literal whose lexical form parses, its
// value (n: integer, boolean as 0/1, or seconds of a time; f: float, or the
// nanoseconds of a time).
type termKey struct {
	kind rdf.Kind // 0: unbound
	vk   xsd.ValueKind
	n    int64
	f    float64
	s    string
}

func (pl *plan) termKey(id rdf.TermID) termKey {
	if id == unbound {
		return termKey{}
	}
	kind, value := pl.dict.View(id)
	k := termKey{kind: kind, s: value}
	if kind != rdf.Literal {
		return k
	}
	v, err := xsd.Parse(value, pl.dict.DatatypeIRI(id))
	if err != nil {
		return k
	}
	k.vk = v.Kind
	switch v.Kind {
	case xsd.KindInt:
		k.n = v.I
	case xsd.KindFloat:
		k.f = v.F
	case xsd.KindBool:
		if v.B {
			k.n = 1
		}
	case xsd.KindTime:
		k.n, k.f = v.T.Unix(), float64(v.T.Nanosecond())
	}
	return k
}

// compareKeys orders terms: by kind, then literals by value where both
// parse into comparable value spaces, lexically otherwise.
func compareKeys(a, b *termKey) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	if a.vk != 0 && b.vk != 0 {
		numeric := func(k xsd.ValueKind) bool { return k == xsd.KindInt || k == xsd.KindFloat }
		switch {
		case a.vk == xsd.KindInt && b.vk == xsd.KindInt, a.vk == xsd.KindBool && b.vk == xsd.KindBool:
			return cmpOrdered(a.n, b.n)
		case numeric(a.vk) && numeric(b.vk):
			af, bf := a.f, b.f
			if a.vk == xsd.KindInt {
				af = float64(a.n)
			}
			if b.vk == xsd.KindInt {
				bf = float64(b.n)
			}
			return cmpOrdered(af, bf)
		case a.vk == xsd.KindTime && b.vk == xsd.KindTime:
			if c := cmpOrdered(a.n, b.n); c != 0 {
				return c
			}
			return cmpOrdered(a.f, b.f)
		}
	}
	// Strings (their lexical forms are their values), lexical forms that do
	// not parse, and unrelated value spaces — a type error — order lexically.
	return strings.Compare(a.s, b.s)
}

func cmpOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// orderBy sorts the projected rows. Keys are extracted once per row; the
// comparison is compareTerms on them. The sort may be cut to its first keep
// rows when the keys of every column are mutually comparable — one value
// space per column — because only then is the comparison a strict weak
// order, and only for those does a bounded selection equal the stable sort.
func (pl *plan) orderBy(t *table, order []orderCol, keep int) error {
	nk := len(order)
	keys := make([]termKey, t.N*nk)
	total := true
	for c, oc := range order {
		var spaces, bigInt uint
		for i := 0; i < t.N; i++ {
			if err := pl.x.Tick(); err != nil {
				return err
			}
			k := pl.termKey(t.Data[i*t.Stride+oc.col])
			keys[i*nk+c] = k
			if k.kind != rdf.Literal {
				continue
			}
			switch k.vk {
			case 0, xsd.KindString:
				spaces |= 1 // lexical
			case xsd.KindInt:
				spaces |= 2
				if k.n > 1<<53 || k.n < -(1<<53) {
					bigInt = 1
				}
			case xsd.KindFloat:
				spaces |= 2 | 16
				if k.f != k.f {
					total = false // NaN equals everything
				}
			case xsd.KindBool:
				spaces |= 4
			case xsd.KindTime:
				spaces |= 8
			}
		}
		// More than one literal value space, or integers compared both
		// exactly (with each other) and rounded (with floats).
		if lit := spaces &^ 16; lit&(lit-1) != 0 || spaces&16 != 0 && bigInt != 0 {
			total = false
		}
	}
	less := func(i, j int) bool {
		for c, oc := range order {
			cmp := compareKeys(&keys[i*nk+c], &keys[j*nk+c])
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
	return qexec.Order(pl.x, t, less, total, keep)
}
