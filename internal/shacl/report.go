package shacl

import (
	"fmt"
	"sort"
	"strings"
)

// ViolationReport aggregates a validation pass into per-shape counts along
// the constraint families of ViolationKind. It is the data-vs-shapes summary
// the lenient pipeline prints and exports: full violation lists scale with
// the dirtiness of the data, while the report stays bounded by the schema
// size.
type ViolationReport struct {
	// ByShape maps shape name → violation kind → count.
	ByShape map[string]map[ViolationKind]int `json:"by_shape"`
	// Total is the overall violation count.
	Total int `json:"total"`
}

// NewViolationReport builds the aggregate report for a violation list.
func NewViolationReport(vs []Violation) *ViolationReport {
	r := &ViolationReport{ByShape: make(map[string]map[ViolationKind]int)}
	for _, v := range vs {
		r.Add(v)
	}
	return r
}

// Add folds one violation into the report.
func (r *ViolationReport) Add(v Violation) {
	m := r.ByShape[v.Shape]
	if m == nil {
		m = make(map[ViolationKind]int)
		r.ByShape[v.Shape] = m
	}
	m[v.Kind]++
	r.Total++
}

// String renders the report as one line per shape, shapes sorted by name and
// kinds in constraint-family order, e.g.:
//
//	http://…/shapes#Person: 2 cardinality, 1 datatype
func (r *ViolationReport) String() string {
	if r == nil || r.Total == 0 {
		return "no violations"
	}
	shapes := make([]string, 0, len(r.ByShape))
	for s := range r.ByShape {
		shapes = append(shapes, s)
	}
	sort.Strings(shapes)
	var b strings.Builder
	fmt.Fprintf(&b, "%d violation(s)", r.Total)
	for _, s := range shapes {
		var parts []string
		for _, k := range []ViolationKind{ViolationCardinality, ViolationDatatype, ViolationClass, ViolationNodeKind} {
			if n := r.ByShape[s][k]; n > 0 {
				parts = append(parts, fmt.Sprintf("%d %s", n, k))
			}
		}
		fmt.Fprintf(&b, "\n  %s: %s", s, strings.Join(parts, ", "))
	}
	return b.String()
}
