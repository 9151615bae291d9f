package rio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/s3pg/s3pg/internal/rdf"
)

func TestParseNTriplesLine(t *testing.T) {
	cases := []struct {
		line string
		want rdf.Triple
	}{
		{
			`<http://a/s> <http://a/p> <http://a/o> .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewIRI("http://a/o")),
		},
		{
			`<http://a/s> <http://a/p> "lit" .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("lit")),
		},
		{
			`<http://a/s> <http://a/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewTypedLiteral("5", rdf.XSDInteger)),
		},
		{
			`<http://a/s> <http://a/p> "bonjour"@fr .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLangLiteral("bonjour", "fr")),
		},
		{
			`_:b1 <http://a/p> _:b2 .`,
			rdf.NewTriple(rdf.NewBlank("b1"), rdf.NewIRI("http://a/p"), rdf.NewBlank("b2")),
		},
		{
			`<http://a/s> <http://a/p> "say \"hi\"\n" .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("say \"hi\"\n")),
		},
		{
			`<http://a/s> <http://a/p> "été" .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("été")),
		},
		{
			`<http://a/s> <http://a/p> "\u00e9t\u00E9 \U0001F600\t" .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("été 😀\t")),
		},
		{
			`<http://a/s> <http://a/p> "colour"@EN-GB .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLangLiteral("colour", "en-gb")),
		},
		{
			`<http://a/s> <http://a/p> "s"^^<http://www.w3.org/2001/XMLSchema#string> .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("s")),
		},
		{
			"<http://a/s>\t<http://a/p>\t<http://a/o>\t.\t# a comment after the statement",
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewIRI("http://a/o")),
		},
		{
			`<http://a/s> <http://a/p> <http://a/o>.#`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewIRI("http://a/o")),
		},
		{
			`<http://a/s> <http://a/p> "x\by\fz\'" .`,
			rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/p"), rdf.NewLiteral("x\by\fz'")),
		},
	}
	for _, c := range cases {
		got, err := ParseNTriplesLine(c.line)
		if err != nil {
			t.Errorf("ParseNTriplesLine(%q) error: %v", c.line, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseNTriplesLine(%q) = %v, want %v", c.line, got, c.want)
		}
	}
}

// TestParseNTriplesLineAllocs: the terms ParseNTriplesLine returns are
// substrings of the line, so a line allocates only for what is not in it —
// a decoded lexical form or a lower-cased language tag (one string each, plus
// the scratch buffer they are decoded into) and a quoted triple's encoding.
func TestParseNTriplesLineAllocs(t *testing.T) {
	for _, c := range []struct {
		line string
		max  float64
	}{
		{`<http://a/s> <http://a/p> <http://a/o> .`, 0},
		{`_:b1 <http://a/p> _:b2 .`, 0},
		{`<http://a/s> <http://a/p> "plain literal" .`, 0},
		{`<http://a/s> <http://a/p> "5"^^<http://www.w3.org/2001/XMLSchema#integer> .`, 0},
		{`<http://a/s> <http://a/p> "s"^^<http://www.w3.org/2001/XMLSchema#string> .`, 0},
		{`<http://a/s> <http://a/p> "bonjour"@fr .`, 0},
		{`<http://a/s> <http://a/p> "Bonjour"@FR-fr .`, 2},
		{`<http://a/s> <http://a/p> "say \"hi\"\n twice: \"hi\"\n" .`, 2},
		{`<http://a/s> <http://a/p> "say \"hi\""@EN .`, 3},
		{`<< <http://a/s> <http://a/p> "o" >> <http://a/c> "0.9" .`, 7},
	} {
		if got := testing.AllocsPerRun(100, func() { ParseNTriplesLine(c.line) }); got > c.max {
			t.Errorf("ParseNTriplesLine(%q) allocates %v times, want at most %v", c.line, got, c.max)
		}
	}
}

func TestParseNTriplesErrors(t *testing.T) {
	bad := []string{
		`<http://a/s> <http://a/p> <http://a/o>`,                                             // no dot
		`<http://a/s> <http://a/p>`,                                                          // missing object
		`"lit" <http://a/p> <http://a/o> .`,                                                  // literal subject
		`<http://a/s> _:b <http://a/o> .`,                                                    // blank predicate
		`<http://a/s> <http://a/p> "unterminated .`,                                          // bad literal
		`<http://a/s> <http://a/p> <http://a/o> . <http://a/s> <http://a/p> <http://a/o2> .`, // second statement on the line
		`<http://a/s> <http://a/p> <http://a/o> .junk`,                                       // text after the '.'
		`<http://a/s> <http://a/p> <http://a/o> ..`,                                          // two terminators
		`<http://a/s> <http://a/p> "x"@ .`,                                                   // empty language tag
		`<http://a/s> <http://a/p> "\uD800" .`,                                               // \u escape of a surrogate
		`<http://a/s> <http://a/p> "\U00110000" .`,                                           // \U escape past U+10FFFF
		`<http://a/s> <http://a/p> "\uZZZZ" .`,                                               // not hex
	}
	for _, line := range bad {
		if _, err := ParseNTriplesLine(line); err == nil {
			t.Errorf("expected error for %q", line)
		}
	}
}

func TestNTriplesRoundTrip(t *testing.T) {
	g := rdf.NewGraph()
	g.Add(rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.A, rdf.NewIRI("http://a/T")))
	g.Add(rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/name"), rdf.NewLiteral("weird \"chars\"\t\n\\")))
	g.Add(rdf.NewTriple(rdf.NewBlank("x"), rdf.NewIRI("http://a/age"), rdf.NewTypedLiteral("7", rdf.XSDInteger)))
	g.Add(rdf.NewTriple(rdf.NewIRI("http://a/s"), rdf.NewIRI("http://a/label"), rdf.NewLangLiteral("été", "fr")))

	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := LoadNTriples(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Fatalf("round trip mismatch:\n%s", buf.String())
	}
}

func TestReadNTriplesSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\n<http://a/s> <http://a/p> <http://a/o> .\n   \n# more\n"
	g, err := LoadNTriples(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 1 {
		t.Fatalf("Len = %d, want 1", g.Len())
	}
}

func TestParseTurtleBasics(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .

ex:bob a ex:Student, ex:Person ;
    ex:regNo "Bs12" ;
    ex:age 23 ;
    ex:gpa 3.7 ;
    ex:height 1.8e0 ;
    ex:enrolled true ;
    ex:advisedBy ex:alice .

ex:alice ex:name "Alice"@en .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://example.org/" + l) }
	wantTriples := []rdf.Triple{
		rdf.NewTriple(ex("bob"), rdf.A, ex("Student")),
		rdf.NewTriple(ex("bob"), rdf.A, ex("Person")),
		rdf.NewTriple(ex("bob"), ex("regNo"), rdf.NewLiteral("Bs12")),
		rdf.NewTriple(ex("bob"), ex("age"), rdf.NewTypedLiteral("23", rdf.XSDInteger)),
		rdf.NewTriple(ex("bob"), ex("gpa"), rdf.NewTypedLiteral("3.7", rdf.XSDDecimal)),
		rdf.NewTriple(ex("bob"), ex("height"), rdf.NewTypedLiteral("1.8e0", rdf.XSDDouble)),
		rdf.NewTriple(ex("bob"), ex("enrolled"), rdf.NewTypedLiteral("true", rdf.XSDBoolean)),
		rdf.NewTriple(ex("bob"), ex("advisedBy"), ex("alice")),
		rdf.NewTriple(ex("alice"), ex("name"), rdf.NewLangLiteral("Alice", "en")),
	}
	if g.Len() != len(wantTriples) {
		t.Fatalf("Len = %d, want %d; got %v", g.Len(), len(wantTriples), g.Triples())
	}
	for _, tr := range wantTriples {
		if !g.Has(tr) {
			t.Errorf("missing triple %v", tr)
		}
	}
}

func TestParseTurtleBlankNodePropertyList(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:knows [ ex:name "Anon" ; ex:age 4 ] .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d, want 3: %v", g.Len(), g.Triples())
	}
	// The blank node must be shared between the three triples.
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://example.org/" + l) }
	objs := g.Objects(ex("s"), ex("knows"))
	if len(objs) != 1 || !objs[0].IsBlank() {
		t.Fatalf("knows object = %v", objs)
	}
	b := objs[0]
	if got := g.Objects(b, ex("name")); len(got) != 1 || got[0] != rdf.NewLiteral("Anon") {
		t.Fatalf("blank node name = %v", got)
	}
}

func TestParseTurtleCollection(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:s ex:list ( ex:a ex:b "c" ) .
ex:t ex:list () .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://example.org/" + l) }
	first, rest, nilT := rdf.NewIRI(rdf.RDFFirst), rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil)

	// Walk the list from ex:s.
	heads := g.Objects(ex("s"), ex("list"))
	if len(heads) != 1 {
		t.Fatalf("heads = %v", heads)
	}
	var items []rdf.Term
	cell := heads[0]
	for cell != nilT {
		f := g.Objects(cell, first)
		if len(f) != 1 {
			t.Fatalf("cell %v first = %v", cell, f)
		}
		items = append(items, f[0])
		r := g.Objects(cell, rest)
		if len(r) != 1 {
			t.Fatalf("cell %v rest = %v", cell, r)
		}
		cell = r[0]
	}
	want := []rdf.Term{ex("a"), ex("b"), rdf.NewLiteral("c")}
	if len(items) != len(want) {
		t.Fatalf("items = %v", items)
	}
	for i := range want {
		if items[i] != want[i] {
			t.Fatalf("items[%d] = %v, want %v", i, items[i], want[i])
		}
	}
	// Empty collection maps to rdf:nil.
	if got := g.Objects(ex("t"), ex("list")); len(got) != 1 || got[0] != nilT {
		t.Fatalf("empty list = %v", got)
	}
}

func TestParseTurtleSHACLShape(t *testing.T) {
	// The shape of Figure 4e: sh:or with a collection of blank property lists.
	src := `
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix ex: <http://example.org/> .
@prefix shape: <http://example.org/shapes/> .

shape:Student a sh:NodeShape ;
  sh:property [
    sh:path ex:advisedBy ;
    sh:or ( [ sh:nodeKind sh:IRI ; sh:class ex:Person ]
            [ sh:nodeKind sh:IRI ; sh:class ex:Professor ] ) ;
    sh:minCount 1 ] ;
  sh:targetClass ex:Student .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	shape := rdf.NewIRI("http://example.org/shapes/Student")
	if got := g.Objects(shape, rdf.A); len(got) != 1 || got[0] != rdf.NewIRI(rdf.SHNodeShape) {
		t.Fatalf("shape type = %v", got)
	}
	props := g.Objects(shape, rdf.NewIRI(rdf.SHProperty))
	if len(props) != 1 {
		t.Fatalf("property shapes = %v", props)
	}
	ors := g.Objects(props[0], rdf.NewIRI(rdf.SHOr))
	if len(ors) != 1 {
		t.Fatalf("sh:or = %v", ors)
	}
}

func TestParseTurtleErrors(t *testing.T) {
	bad := []string{
		`ex:s ex:p ex:o .`,                                   // undeclared prefix
		`@prefix ex: <http://x/> . ex:s ex:p ex:o`,           // missing dot
		`@prefix ex: <http://x/> . ex:s ex:p "open .`,        // unterminated string
		`@prefix ex: <http://x/> . ex:s ex:p ( ex:a  .`,      // unterminated collection
		`@prefix ex: <http://x/> . ex:s ex:p [ ex:q 1 .`,     // unterminated bnode list
		`@prefix ex: <http://x/> . ex:s ex:p "x"@ .`,         // empty language tag
		`@prefix ex: <http://x/> . ex:s ex:p "\uDFFF" .`,     // \u escape of a surrogate
		`@prefix ex: <http://x/> . ex:s ex:p "\UFFFFFFFF" .`, // \U escape past U+10FFFF
	}
	for _, src := range bad {
		if _, err := ParseTurtle(src); err == nil {
			t.Errorf("expected parse error for %q", src)
		}
	}
}

// TestTurtleTerms: each row's object, read by the Turtle parser, is the
// given term.
func TestTurtleTerms(t *testing.T) {
	const pre = "@prefix ex: <http://example.org/> .\n@base <http://base.org/> .\nex:s ex:p "
	ex := func(l string) rdf.Term { return rdf.NewIRI("http://example.org/" + l) }
	for _, c := range []struct {
		obj  string
		want rdf.Term
	}{
		{`"x\by\fz\'\"\r"`, rdf.NewLiteral("x\by\fz'\"\r")},
		{`'it\'s'`, rdf.NewLiteral("it's")},
		{`"caf\u00E9"`, rdf.NewLiteral("café")},
		{`"""a "quoted"\t\"""` + "\n" + `line"""`, rdf.NewLiteral("a \"quoted\"\t\"\"\"\nline")},
		{`'''x\u0041'''@EN`, rdf.NewLangLiteral("xA", "en")},
		{`ex:café`, ex("café")},
		{`ex:a\,b\!c\~`, ex("a,b!c~")},
		{`ex:a.b..c`, ex("a.b..c")},
		{`ex:a:b%20c`, ex("a:b%20c")},
		{`ex:`, ex("")},
		{`<rel>`, rdf.NewIRI("http://base.org/rel")},
		{`1.5e3`, rdf.NewTypedLiteral("1.5e3", rdf.XSDDouble)},
		{`-7`, rdf.NewTypedLiteral("-7", rdf.XSDInteger)},
		{`true`, rdf.NewTypedLiteral("true", rdf.XSDBoolean)},
		{`_:été.1`, rdf.NewBlank("été.1")},
	} {
		g, err := ParseTurtle(pre + c.obj + " .")
		if err != nil {
			t.Errorf("%s: %v", c.obj, err)
			continue
		}
		if got := g.Objects(ex("s"), ex("p")); len(got) != 1 || got[0] != c.want {
			t.Errorf("%s read as %v, want %v", c.obj, got, c.want)
		}
	}
}

// TestIRIRefCharacters: an IRI reference holding a character IRIREF
// excludes is a *ParseError in strict mode; lenient mode skips the
// statement, counts it, and keeps the rest.
func TestIRIRefCharacters(t *testing.T) {
	for _, iri := range []string{"<http://a b>", "<http://a<b>", `<http://a"b>`, "<http://a{b}>",
		"<http://a|b>", "<http://a^b>", "<http://a`b>", `<http://a\b>`, "<http://a\tb>", "<http://a\nb>"} {
		src := "<http://s> <http://p> " + iri + " .\n<http://s> <http://p> <http://o> .\n"
		var pe *ParseError
		if _, err := ParseTurtle(src); !errors.As(err, &pe) {
			t.Errorf("%q: strict error %v, want a *ParseError", iri, err)
		}
		skipped := 0
		g, err := ParseTurtleWith(context.Background(), src, Options{Lenient: true, OnError: func(ParseError) { skipped++ }})
		if err != nil || skipped != 1 || g.Len() != 1 {
			t.Errorf("%q: lenient read kept %v, skipped %d, error %v; want 1 triple, 1 skip, no error", iri, g, skipped, err)
		}
	}
}

// TestQuotedTripleComponents: a quoted triple's components are Turtle-star's
// — no blank node property list or collection, whose triples would be
// asserted while the quoted triple is not.
func TestQuotedTripleComponents(t *testing.T) {
	for _, src := range []string{
		"<< [ <http://p> 1 ] <http://q> <http://r> >> <http://s> <http://t> .",
		"<http://s> <http://t> << <http://a> <http://q> ( 1 2 ) >> .",
	} {
		if g, err := ParseTurtle(src); err == nil {
			t.Errorf("%s read as %v", src, g.Triples())
		}
	}
	g, err := ParseTurtle("<< [] <http://q> () >> <http://s> [ <http://p> 1 ] .")
	if err != nil || g.Len() != 2 {
		t.Fatalf("read as %v, %v; want 2 triples", g, err)
	}
}

// TestNewEscapesRoundTrip: the literal that \b, \f and \' spell, read from
// N-Triples or Turtle, serializes through Term.AppendTo to a line both read
// back to the same triple.
func TestNewEscapesRoundTrip(t *testing.T) {
	want := rdf.NewLiteral("a\bb\fc'd")
	const spelled = `<http://s> <http://p> "a\bb\fc\'d" .`
	nt, err := ParseNTriplesLine(spelled)
	if err != nil || nt.O != want {
		t.Fatalf("N-Triples read %v, %v; want %v", nt.O, err, want)
	}
	line := string(nt.AppendTo(nil))
	if back, err := ParseNTriplesLine(line); err != nil || back != nt {
		t.Fatalf("N-Triples read %q back as %v, %v", line, back, err)
	}
	for _, src := range []string{spelled, line} {
		if g, err := ParseTurtle(src); err != nil || g.Len() != 1 || !g.Has(nt) {
			t.Fatalf("Turtle read %q as %v, %v", src, g, err)
		}
	}
}

func TestTurtleWriterRoundTrip(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:bob a ex:Student ;
  ex:name "Bob" ;
  ex:age 23 ;
  ex:advisedBy ex:alice .
ex:alice ex:name "A\"quote" .
`
	g, err := ParseTurtle(src)
	if err != nil {
		t.Fatal(err)
	}
	w := NewTurtleWriter()
	w.Prefix("ex", "http://example.org/")
	var buf bytes.Buffer
	if err := w.Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTurtle(buf.String())
	if err != nil {
		t.Fatalf("re-parse error: %v\noutput:\n%s", err, buf.String())
	}
	if !g.Equal(back) {
		t.Fatalf("turtle round trip mismatch:\n%s", buf.String())
	}
}

// Property: any graph of random triples round-trips through N-Triples.
func TestQuickNTriplesRoundTrip(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := rdf.NewGraph()
		dts := []string{"", rdf.XSDInteger, rdf.XSDDouble, rdf.XSDDate}
		for i := 0; i <= int(n)%40; i++ {
			s := rdf.NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(10)))
			p := rdf.NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(5)))
			var o rdf.Term
			switch rng.Intn(4) {
			case 0:
				o = rdf.NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(10)))
			case 1:
				o = rdf.NewBlank(fmt.Sprintf("b%d", rng.Intn(5)))
			case 2:
				o = rdf.NewLangLiteral(fmt.Sprintf("v%d\n\"x\"", rng.Intn(9)), "en")
			default:
				dt := dts[rng.Intn(len(dts))]
				o = rdf.NewTypedLiteral(fmt.Sprintf("%d", rng.Intn(100)), dt)
			}
			g.Add(rdf.NewTriple(s, p, o))
		}
		var buf bytes.Buffer
		if err := WriteNTriples(&buf, g); err != nil {
			return false
		}
		back, err := LoadNTriples(&buf)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
