package sparql

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// TestTermSpellings: every spelling of a term that Turtle reads, SPARQL
// reads too, in a pattern and as a FILTER constant, and finds the one
// statement of the graph that holds it.
func TestTermSpellings(t *testing.T) {
	g, err := rio.ParseTurtle(`@prefix ex: <http://example.org/> .
ex:a ex:p "café" . ex:b ex:p "a\rb" . ex:c ex:p "x" . ex:d ex:p 1.5e3 .
ex:e ex:p true . ex:f ex:p ex:café . ex:g ex:p "it's"@en .`)
	if err != nil {
		t.Fatal(err)
	}
	for _, where := range []string{
		`?s ex:p "café"`,
		`?s ex:p "a\rb"`,
		`?s ex:p ?o FILTER(?o = "a\rb")`,
		`?s ex:p ?o FILTER(?o = "café")`,
		`?s ex:p 'x'`,
		`?s ex:p """x"""`,
		`?s ex:p '''x'''`,
		`?s ex:p 1.5e3`,
		`?s ex:p true`,
		`?s ex:p ?o FILTER(?o = true)`,
		`?s ex:p ex:café`,
		`?s ex:p ex:café` + " .\n?s ex:p ex:café",
		`?s ex:p 'it\'s'@EN`,
		`?é ex:p ?o FILTER(?é = ex:a)`,
	} {
		q, err := Parse("PREFIX ex: <http://example.org/>\nSELECT ?s WHERE { " + where + " }")
		if err != nil {
			t.Errorf("%s: %v", where, err)
			continue
		}
		res, err := EvalCtx(context.Background(), g, q)
		if err != nil {
			t.Fatal(err)
		}
		if res.Len() != 1 {
			t.Errorf("%s: %d rows, want 1", where, res.Len())
		}
	}
}

func TestParseUpdateTemplate(t *testing.T) {
	for _, src := range []string{
		"INSERT DATA { <http://s> <http://p> <http://o> }",
		"INSERT DATA { <http://s> <http://p> <http://o> . }",
		"PREFIX ex: <http://e/> INSERT DATA { ex:s ex:p 'x' . ex:s ex:q ex:café }",
		"INSERT DATA { <http://s> <http://p> <http://o> ; }",
		"INSERT DATA { [ <http://p> <http://o> ] }",
	} {
		if _, err := ParseUpdate(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
	// A parse error names the request's own line and column.
	_, err := ParseUpdate("PREFIX ex: <http://e/>\nINSERT DATA {\n  ex:a ex:b ex:c .\n  ex:a ex:b }")
	if err == nil || !strings.Contains(err.Error(), "line 4:13:") {
		t.Errorf("error %v, want one at line 4:13", err)
	}
}

// spellings returns ways to write the term in Turtle and SPARQL: its
// N-Triples form and, for a literal, its short, single-quote and long
// strings, and a short one with every non-ASCII character a \u or \U
// escape.
func spellings(t rdf.Term) []string {
	out := []string{string(t.AppendTo(nil))}
	if t.Kind != rdf.Literal {
		return out
	}
	suffix := ""
	if t.Lang != "" {
		suffix = "@" + t.Lang
	} else if t.Datatype != "" {
		suffix = "^^<" + t.Datatype + ">"
	}
	quote := func(open, close, s string, esc ...string) string {
		return open + strings.NewReplacer(esc...).Replace(s) + close + suffix
	}
	out = append(out,
		quote(`"`, `"`, t.Value, `\`, `\\`, `"`, `\"`, "\n", `\n`, "\r", `\r`),
		quote(`'`, `'`, t.Value, `\`, `\\`, `'`, `\'`, "\n", `\n`, "\r", `\r`),
		quote(`"""`, `"""`, t.Value, `\`, `\\`, `"`, `\"`))
	if utf8.ValidString(t.Value) {
		var b strings.Builder
		for _, r := range t.Value {
			switch {
			case r == '"' || r == '\\' || r == '\n' || r == '\r' || r >= utf8.RuneSelf && r <= 0xFFFF:
				fmt.Fprintf(&b, `\u%04X`, r)
			case r > 0xFFFF:
				fmt.Fprintf(&b, `\U%08X`, r)
			default:
				b.WriteRune(r)
			}
		}
		out = append(out, `"`+b.String()+`"`+suffix)
	}
	return out
}

// FuzzTermSyntax holds the readers of RDF term syntax to one answer: for a
// term that Turtle reads back from its N-Triples form, every spelling of it
// must read as that term in a Turtle statement, in a SPARQL triple pattern,
// as a FILTER constant and inside an INSERT DATA block.
func FuzzTermSyntax(f *testing.F) {
	f.Add(uint8(0), "http://example.org/café", "")
	f.Add(uint8(1), "café a\rb \"q\" 'x' \\ \b\f\n\t}) # . ;", "")
	f.Add(uint8(2), "chat", "fr-CA")
	f.Add(uint8(3), "1.5e3", rdf.XSDDouble)
	f.Add(uint8(3), "x", "http://example.org/dt")
	f.Add(uint8(4), "\U0001F600'''", "")
	f.Add(uint8(0), "http://a b", "")
	f.Fuzz(func(t *testing.T, kind uint8, value, extra string) {
		var term rdf.Term
		switch kind % 5 {
		case 0:
			term = rdf.NewIRI(value)
		case 1:
			term = rdf.NewLiteral(value)
		case 2:
			term = rdf.NewLangLiteral(value, extra)
		case 3:
			term = rdf.NewTypedLiteral(value, extra)
		default:
			var err error
			if term, err = rdf.NewTripleTerm(rdf.NewTriple(
				rdf.NewIRI("http://s"), rdf.NewIRI("http://p"), rdf.NewLiteral(value))); err != nil {
				return
			}
		}
		read := func(sp string) (rdf.Term, error) {
			g, err := rio.ParseTurtle("<http://s> <http://p> " + sp + " .")
			if err != nil {
				return rdf.Term{}, err
			}
			if ts := g.Triples(); len(ts) == 1 {
				return ts[0].O, nil
			}
			return rdf.Term{}, fmt.Errorf("%d triples", g.Len())
		}
		if got, err := read(string(term.AppendTo(nil))); err != nil || got != term {
			return // a term Turtle cannot spell
		}
		for _, sp := range spellings(term) {
			var got [4]rdf.Term
			var errs [4]error
			got[0], errs[0] = read(sp)
			if q, err := Parse("SELECT ?s WHERE { ?s <http://p> " + sp + " }"); err != nil {
				errs[1] = err
			} else {
				got[1] = q.Where.Elements[0].(BGP).Patterns[0].O.Term
			}
			if q, err := Parse("SELECT ?s WHERE { ?s <http://p> ?o FILTER(?o = " + sp + ") }"); err != nil {
				errs[2] = err
			} else {
				got[2] = q.Where.Elements[1].(Filter).Expr.(BinaryExpr).R.(ConstExpr).Term
			}
			if d, err := ParseUpdate("INSERT DATA { <http://s> <http://p> " + sp + " }"); err != nil {
				errs[3] = err
			} else {
				got[3] = d.Inserts[0].O
			}
			for i, surface := range []string{"Turtle", "a SPARQL pattern", "a FILTER", "INSERT DATA"} {
				if errs[i] != nil || got[i] != term {
					t.Fatalf("%s read %q as %v (%v), want %v", surface, sp, got[i], errs[i], term)
				}
			}
		}
	})
}
