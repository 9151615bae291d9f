package core

import (
	"fmt"
	"strings"

	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/sparql"
)

// TranslateQuery is F_qt: it translates a SPARQL SELECT query over the
// source RDF graph into an equivalent Cypher query over the S3PG-transformed
// property graph, driven by the F_st mapping recovered from the PG-Schema.
// The paper performs this translation manually (§5.2) and names automating
// it as future work; this implements it for the workload's query class:
// a single basic graph pattern of type assertions and property patterns
// with variable objects.
//
// Properties whose values may live both as key/value attributes and as
// value-node edges (the escape paths of the transformation) are expanded
// into UNION ALL branches covering every realization combination, exactly
// like the paper's hand-written Q22.
func TranslateQuery(query string, spg *pgschema.Schema) (string, error) {
	q, err := sparql.Parse(query)
	if err != nil {
		return "", err
	}
	m, err := BuildMapping(spg)
	if err != nil {
		return "", err
	}
	if q.CountVar != "" {
		return "", fmt.Errorf("core: COUNT queries are not supported by the translator")
	}
	if len(q.Where.Elements) != 1 {
		return "", fmt.Errorf("core: only single-BGP queries are supported")
	}
	bgp, ok := q.Where.Elements[0].(sparql.BGP)
	if !ok {
		return "", fmt.Errorf("core: only basic graph patterns are supported")
	}

	tr := &translator{m: m, labels: map[string]string{}}
	for _, p := range bgp.Patterns {
		if err := tr.classify(p); err != nil {
			return "", err
		}
	}
	return tr.render(q)
}

// propPattern is a non-type pattern awaiting realization.
type propPattern struct {
	subj  string // subject variable
	pred  string // predicate IRI
	obj   string // object variable
	route *Route // nil when the subject's label has no route (error later)
}

type translator struct {
	m      *Mapping
	labels map[string]string // subject var → label
	props  []propPattern
}

func (t *translator) classify(p sparql.TriplePattern) error {
	if !p.S.IsVar() {
		return fmt.Errorf("core: constant subjects are not supported")
	}
	if p.P.IsVar() {
		return fmt.Errorf("core: variable predicates are not supported")
	}
	if p.P.Term == rdf.A {
		if p.O.IsVar() || !p.O.Term.IsIRI() {
			return fmt.Errorf("core: type patterns need a constant class")
		}
		label := t.m.LabelOfClass(p.O.Term.Value)
		if label == "" {
			return fmt.Errorf("core: class %s is not mapped", p.O.Term.Value)
		}
		t.labels[p.S.Var] = label
		return nil
	}
	if !p.O.IsVar() {
		return fmt.Errorf("core: constant objects are not supported (filter on the variable instead)")
	}
	t.props = append(t.props, propPattern{subj: p.S.Var, pred: p.P.Term.Value, obj: p.O.Var})
	return nil
}

// resolveRoutes fills in the routes once all labels are known.
func (t *translator) resolveRoutes() error {
	for i := range t.props {
		p := &t.props[i]
		label, ok := t.labels[p.subj]
		if !ok {
			return fmt.Errorf("core: variable ?%s has no type pattern", p.subj)
		}
		r := t.m.Route([]string{label}, p.pred)
		if r == nil {
			return fmt.Errorf("core: no mapping for property %s on %s", p.pred, label)
		}
		p.route = r
	}
	return nil
}

// realization chooses KV (false) or edge (true) for each property pattern.
func (t *translator) render(q *sparql.Query) (string, error) {
	if err := t.resolveRoutes(); err != nil {
		return "", err
	}

	// Branch over realizations: KV-routed properties may also live on
	// escape edges, so each contributes two branches.
	var branchable []int
	for i, p := range t.props {
		if p.route.Kind == RouteKV {
			branchable = append(branchable, i)
		}
	}
	if len(branchable) > 4 {
		return "", fmt.Errorf("core: too many dual-realization properties (%d)", len(branchable))
	}

	var branches []string
	total := 1 << len(branchable)
	for mask := 0; mask < total; mask++ {
		edgeFor := make(map[int]bool)
		for bit, idx := range branchable {
			edgeFor[idx] = mask&(1<<bit) != 0
		}
		branch, err := t.renderBranch(q, edgeFor)
		if err != nil {
			return "", err
		}
		branches = append(branches, branch)
	}
	sep := "\nUNION ALL\n"
	if q.Distinct {
		sep = "\nUNION\n"
	}
	out := strings.Join(branches, sep)
	if q.Limit >= 0 {
		out += fmt.Sprintf("\nLIMIT %d", q.Limit)
	}
	return out, nil
}

// renderBranch emits one MATCH…RETURN query for a fixed realization choice.
func (t *translator) renderBranch(q *sparql.Query, edgeFor map[int]bool) (string, error) {
	nodeVar := func(v string) string { return "n_" + v }

	var paths []string
	var unwinds []string
	valueExpr := map[string]string{} // object var → return expression
	mentioned := map[string]bool{}

	for i, p := range t.props {
		src := nodeVar(p.subj)
		srcPat := fmt.Sprintf("(%s:%s)", src, t.labels[p.subj])
		mentioned[p.subj] = true
		useEdge := p.route.Kind == RouteEdge || edgeFor[i]
		if !useEdge {
			// Key/value realization.
			unwinds = append(unwinds, fmt.Sprintf("UNWIND %s.%s AS %s", src, p.route.Name, p.obj))
			valueExpr[p.obj] = p.obj
			paths = append(paths, srcPat)
			continue
		}
		// Edge realization. If the object variable is itself typed, match
		// the entity label directly; otherwise use a target placeholder.
		if tl, typed := t.labels[p.obj]; typed {
			paths = append(paths, fmt.Sprintf("%s-[:%s]->(%s:%s)", srcPat, p.route.Name, nodeVar(p.obj), tl))
			mentioned[p.obj] = true
			valueExpr[p.obj] = nodeVar(p.obj) + ".iri"
		} else {
			target := "t_" + p.obj
			paths = append(paths, fmt.Sprintf("%s-[:%s]->(%s)", srcPat, p.route.Name, target))
			valueExpr[p.obj] = fmt.Sprintf("COALESCE(%s.value, %s.iri)", target, target)
		}
	}
	// Typed variables that appear in no property pattern still need a MATCH.
	for v, label := range t.labels {
		if !mentioned[v] {
			paths = append(paths, fmt.Sprintf("(%s:%s)", nodeVar(v), label))
		}
	}

	var b strings.Builder
	b.WriteString("MATCH ")
	b.WriteString(strings.Join(paths, ", "))
	for _, u := range unwinds {
		b.WriteString("\n")
		b.WriteString(u)
	}
	b.WriteString("\nRETURN ")
	if q.Distinct {
		b.WriteString("DISTINCT ")
	}
	var items []string
	for _, v := range q.Vars {
		if _, isEntity := t.labels[v]; isEntity {
			items = append(items, fmt.Sprintf("%s.iri AS %s", nodeVar(v), v))
			continue
		}
		expr, ok := valueExpr[v]
		if !ok {
			return "", fmt.Errorf("core: projected variable ?%s is not bound by the pattern", v)
		}
		if expr == v {
			items = append(items, v)
		} else {
			items = append(items, fmt.Sprintf("%s AS %s", expr, v))
		}
	}
	if len(items) == 0 {
		return "", fmt.Errorf("core: no projection variables")
	}
	b.WriteString(strings.Join(items, ", "))
	return b.String(), nil
}
