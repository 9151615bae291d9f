package sparql

import "testing"

// ParseSeeds is the seed corpus of FuzzParse; the differential tests also
// evaluate every seed that parses.
var ParseSeeds = []string{
	"PREFIX ex: <http://example.org/univ#>\nSELECT ?s ?n WHERE { ?s a ex:Person ; ex:name ?n . }",
	"SELECT DISTINCT ?s WHERE { ?s ?p ?o . FILTER(isLiteral(?o) && REGEX(?o, \"^A\")) } ORDER BY ?s LIMIT 5",
	"SELECT (COUNT(?s) AS ?n) WHERE { { ?s a ?c } UNION { ?s ?p ?o } OPTIONAL { ?s ?q ?v } }",
	"SELECT ?x WHERE { FILTER((((((?x > 1)))))) }",
	"SELECT ?s WHERE { ?s ?p ?o } ORDER BY ?s LIMIT 10 OFFSET 5",
	"SELECT ?s WHERE { ?s ?p ?o } OFFSET 3 LIMIT 2",
	"ASK WHERE { ?s a ?c . FILTER(BOUND(?s)) }",
	"ASK { ?s ?p ?o }",
	"ASK {",
	"SELECT",
	"\x00\xff SELECT ?s WHERE {",
}

// FuzzParse checks that the SPARQL parser neither panics nor hangs on
// arbitrary input. Input length is capped to bound recursion depth in the
// expression grammar (parenthesized expressions recurse per byte of input).
func FuzzParse(f *testing.F) {
	for _, s := range ParseSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 2048 {
			return
		}
		_, _ = Parse(src)
	})
}
