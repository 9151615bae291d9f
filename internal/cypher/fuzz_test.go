package cypher

import (
	"strings"
	"testing"
)

// FuzzLexer checks the tokenizer invariants on arbitrary input: scanning
// never panics, always terminates, and makes progress — the token stream of
// an n-byte input has at most n tokens before tEOF.
func FuzzLexer(f *testing.F) {
	f.Add(`MATCH (p:Person {name: "Alice"})-[:worksFor]->(d:Department) RETURN p.name, d`)
	f.Add(`MATCH (a)-[r:advisedBy|takesCourse]-(b) WHERE a.regNo STARTS WITH "Bs" RETURN count(DISTINCT a)`)
	f.Add(`UNWIND [1, 2.5, 'x'] AS v RETURN v ORDER BY v DESC LIMIT 3`)
	f.Add(`RETURN "unterminated`)
	f.Add("RETURN 'mixed\" quotes")
	f.Add("\x00\xff\x80 <<>>!= <> -- //")
	f.Add(strings.Repeat("(", 200) + strings.Repeat("🜚", 20))
	f.Fuzz(func(t *testing.T, src string) {
		l := newLexer(src)
		for i := 0; ; i++ {
			if i > len(src) {
				t.Fatalf("lexer produced more than %d tokens without reaching EOF", len(src))
			}
			tok := l.next()
			if tok.kind == tEOF {
				break
			}
			// Strings and backtick idents may legitimately be empty; number
			// and punctuation tokens always carry at least one byte.
			if (tok.kind == tNumber || tok.kind == tPunct) && tok.text == "" {
				t.Fatalf("token %d has empty text (kind %d)", i, tok.kind)
			}
		}
	})
}

// ParseSeeds is the seed corpus of FuzzParse; the differential tests also
// evaluate every seed that parses.
var ParseSeeds = []string{
	`MATCH (p:Person) WHERE p.name = "Alice" OR p.dob < 2000 RETURN p`,
	`MATCH (a)-->(b) RETURN labels(a), type(a) UNION ALL MATCH (c) RETURN c, c`,
	`MATCH (n:Person) WHERE n.name = $who AND n.age >= $min RETURN n.name, $tag`,
	`MATCH (n) WHERE n.x = $ RETURN n`,
	`RETURN $1`,
	`MATCH ((((`,
}

// FuzzParse checks that the full Cypher parser rejects or accepts arbitrary
// input without panicking. Input length is capped to bound recursion depth.
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
