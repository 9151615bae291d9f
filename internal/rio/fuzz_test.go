package rio

import (
	"context"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/s3pg/s3pg/internal/rdf"
)

// ntSeeds are representative well-formed and malformed N-Triples lines used
// to seed both line-level and document-level fuzzing.
var ntSeeds = []string{
	`<http://example.org/s> <http://example.org/p> <http://example.org/o> .`,
	`<http://example.org/s> <http://example.org/p> "plain" .`,
	`<http://example.org/s> <http://example.org/p> "typed"^^<http://www.w3.org/2001/XMLSchema#gYear> .`,
	`<http://example.org/s> <http://example.org/p> "tagged"@en-GB .`,
	`_:b1 <http://example.org/p> _:b2 .`,
	`<< <http://example.org/s> <http://example.org/p> "o" >> <http://example.org/certainty> "0.9" .`,
	`# comment`,
	``,
	`<http://example.org/s> <http://example.org/p>`,
	`<http://example.org/s> <http://example.org/p> "unterminated .`,
	`<http://example.org/s> <http://example.org/p> "esc é \q" .`,
	"\xff\xfe not utf8 .",
	strings.Repeat("<<", 100),
}

// FuzzParseNTriplesLine checks that single-line parsing never panics, and
// that every accepted triple round-trips: serializing it and reparsing must
// yield the identical triple.
func FuzzParseNTriplesLine(f *testing.F) {
	for _, s := range ntSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		tr, err := ParseNTriplesLine(line)
		if err != nil {
			return
		}
		back, err := ParseNTriplesLine(tr.String())
		if err != nil {
			t.Fatalf("accepted triple %q does not reparse: %v", tr, err)
		}
		if back != tr {
			t.Fatalf("round trip changed the triple: %v != %v", back, tr)
		}
	})
}

// FuzzReadNTriplesLenient checks the lenient reader invariant: with an
// unlimited error budget every input — however corrupted — parses to
// completion without error, and every line is either a triple or a recorded
// skip.
func FuzzReadNTriplesLenient(f *testing.F) {
	f.Add(strings.Join(ntSeeds, "\n"))
	for _, s := range ntSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		skipped := 0
		opts := Options{Lenient: true, MaxErrors: -1, OnError: func(ParseError) { skipped++ }}
		triples := 0
		err := ReadNTriplesWith(context.Background(), strings.NewReader(src), opts, func(rdf.Triple) error {
			triples++
			return nil
		})
		if err != nil {
			t.Fatalf("lenient unlimited parse failed: %v", err)
		}
		lines := 0
		for _, l := range strings.Split(src, "\n") {
			l = strings.TrimSpace(l)
			if l != "" && !strings.HasPrefix(l, "#") {
				lines++
			}
		}
		if triples+skipped != lines {
			t.Fatalf("%d triples + %d skipped != %d statement lines", triples, skipped, lines)
		}
	})
}

// FuzzReadTurtle checks that the Turtle parser neither panics nor loops on
// arbitrary input, and that the lenient reader's recovery always terminates
// with a nil error under an unlimited budget.
func FuzzReadTurtle(f *testing.F) {
	f.Add("@prefix ex: <http://example.org/> .\nex:s ex:p ex:o ; ex:q \"v\" .")
	f.Add("@prefix ex: <http://example.org/> .\nex:s ex:p ( 1 2.5 1e3 true ) .")
	f.Add("ex:s ex:p ex:o .") // undeclared prefix
	f.Add("<s> <p> [ <q> [ <r> 'x' ] ] .")
	f.Add("<s> <p> \"\"\"long\nstring\"\"\"@en .")
	f.Add("<< <s> <p> <o> >> <q> 1 .")
	f.Add(strings.Repeat("[", 300))
	f.Add(strings.Repeat("(", 300))
	f.Add("\x00\xff @prefix : <x .")
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := ParseTurtleWith(context.Background(), src, Options{}); err != nil {
			// Strict mode may reject; it must only do so via ParseError-based
			// errors, which the lenient invariant below exercises.
			_ = err
		}
		if _, err := ParseTurtleWith(context.Background(), src, Options{Lenient: true, MaxErrors: -1}); err != nil {
			t.Fatalf("lenient unlimited parse failed: %v", err)
		}
	})
}

// FuzzLoadNTriplesPaths holds the loader against the reference on any input,
// strict and lenient: the loader with tiny blocks on 1, 2 and 4 workers, fed
// by a reader that returns half of what it is asked for so that partial
// lines carry from block to block, must build the graph a
// statement-by-statement Graph.Add of what ReadNTriplesWith hands out builds
// — the same term under every id, the same encoded triple in every slot — or
// fail the same way, after the same OnError calls.
func FuzzLoadNTriplesPaths(f *testing.F) {
	long := `<http://example.org/s> <http://example.org/p> "` + strings.Repeat("x", 70<<10) + `" .`
	for _, s := range []string{
		strings.Join(ntSeeds, "\n"),
		"<http://example.org/s> <http://example.org/p> \"tab\\there \\\"q\\\" \\u00e9 \\U0001F600\" .\n<http://example.org/s> <http://example.org/p> \"tab\\there \\\"q\\\" é 😀\" .",
		"_:b <http://example.org/p> \"Hello\"@EN-gb .\n_:b <http://example.org/p> \"Hello\"@en-GB .\n_:b <http://example.org/p> \"Hello\"@en-gb .",
		"<http://example.org/s> <http://example.org/p> \"v\"^^<http://www.w3.org/2001/XMLSchema#string> .\n<http://example.org/s> <http://example.org/p> \"v\" .",
		"<< <http://example.org/s> <http://example.org/p> \"o\" >> <http://example.org/w> \"1\" .\n<http://example.org/s> <http://example.org/p> \"o\" .",
		"<http://example.org/a> <http://example.org/p> <http://example.org/b> .\r\n\r\n# comment\r\n<http://example.org/b> <http://example.org/p> <http://example.org/a> . # trailing\r\n",
		"\n\n   \n# only comments\n\t\n",
		long + "\n<http://example.org/s> <http://example.org/p> <http://example.org/o> .\n" + long,
		"<http://example.org/a> <http://example.org/p> <http://example.org/b> . <http://example.org/c> <http://example.org/p> <http://example.org/d> .\ngarbage\n<http://example.org/a> <http://example.org/p> \"x\"@ .",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		for _, opts := range []Options{{}, {Lenient: true, MaxErrors: 3}} {
			ref := observeLoad(opts, referenceLoad(src))
			for _, workers := range []int{1, 2, 4} {
				got := observeLoad(opts, func(o Options) (*rdf.Graph, error) {
					return loadNTriples(context.Background(), iotest.HalfReader(strings.NewReader(src)), o, workers, nil, nil, 37)
				})
				requireSameOutcome(t, ref, got)
			}
		}
	})
}
