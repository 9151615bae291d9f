package rio

import (
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/rdf"
)

// corruptNTLines mirrors the corruption classes of the fixtures corpus
// (duplicated here because fixtures imports rio).
var corruptNTLines = []string{
	`<http://e.org/x> <http://e.org/name>`,                 // truncated
	`<http://e.org/x> <http://e.org/name> "unterminated .`, // unterminated literal
	`<http://e.org/x> <http://e.org/knows <http://e.org/y> .`,
	`<http://e.org/x> <http://e.org/age> "41"`, // missing '.'
	"\xff\xfe\x00 binary garbage \x80 .",
	`this is not an n-triples statement at all .`,
	`"literal subject" <http://e.org/p> <http://e.org/o> .`,                                                     // term kinds violate positions
	strings.Repeat("<<", maxQuotedDepth+2) + " x",                                                               // nesting past the depth guard
	`<http://e.org/x> <http://e.org/p> <http://e.org/y> . <http://e.org/x> <http://e.org/p> <http://e.org/z> .`, // two statements on one line
	`<http://e.org/x> <http://e.org/p> <http://e.org/y> .junk`,                                                  // text after the '.'
	`<http://e.org/x> <http://e.org/p> "x"@ .`,                                                                  // empty language tag
	`<http://e.org/x> <http://e.org/p> "\uDBFF\uDC00" .`,                                                        // surrogates, not a code point
}

func TestNTriplesStrictRejectsCorruptLines(t *testing.T) {
	for _, line := range corruptNTLines {
		err := ReadNTriplesWith(context.Background(), strings.NewReader(line+"\n"), Options{}, func(rdf.Triple) error { return nil })
		if err == nil {
			t.Errorf("strict parse accepted %q", line)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("error for %q is %T, not a *ParseError: %v", line, err, err)
			continue
		}
		if pe.Line != 1 {
			t.Errorf("ParseError.Line = %d for single-line input %q", pe.Line, line)
		}
	}
}

// TestNTriplesLenientSkipsCorruptLines interleaves every corrupt line with
// clean statements: the lenient reader must deliver exactly the clean triples
// and report exactly the corrupt lines, with accurate line numbers.
func TestNTriplesLenientSkipsCorruptLines(t *testing.T) {
	var b strings.Builder
	cleanLine := `<http://e.org/s> <http://e.org/p> <http://e.org/o%d> .`
	for i, bad := range corruptNTLines {
		b.WriteString(strings.Replace(cleanLine, "%d", string(rune('a'+i)), 1))
		b.WriteByte('\n')
		b.WriteString(bad)
		b.WriteByte('\n')
	}
	var skipped []ParseError
	opts := Options{Lenient: true, OnError: func(e ParseError) { skipped = append(skipped, e) }}
	triples := 0
	err := ReadNTriplesWith(context.Background(), strings.NewReader(b.String()), opts, func(rdf.Triple) error {
		triples++
		return nil
	})
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if triples != len(corruptNTLines) {
		t.Errorf("delivered %d clean triples, want %d", triples, len(corruptNTLines))
	}
	if len(skipped) != len(corruptNTLines) {
		t.Fatalf("skipped %d statements, want %d", len(skipped), len(corruptNTLines))
	}
	for i, e := range skipped {
		if want := 2 * (i + 1); e.Line != want {
			t.Errorf("skip %d reported line %d, want %d (%v)", i, e.Line, want, &e)
		}
	}
}

func TestNTriplesMaxErrors(t *testing.T) {
	src := strings.Repeat("garbage line\n", 10)
	opts := Options{Lenient: true, MaxErrors: 3}
	err := ReadNTriplesWith(context.Background(), strings.NewReader(src), opts, func(rdf.Triple) error { return nil })
	if !errors.Is(err, ErrTooManyErrors) {
		t.Fatalf("err = %v, want ErrTooManyErrors", err)
	}
}

// TestNTriplesLongLine pins the satellite fix: lines beyond former
// bufio.Scanner token limits parse fine through the bufio.Reader loop.
func TestNTriplesLongLine(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 17 MiB line")
	}
	lex := strings.Repeat("a", 17<<20) // > the 16 MiB cap the Scanner-based reader had
	src := `<http://e.org/s> <http://e.org/p> "` + lex + "\" .\n" +
		"<http://e.org/s> <http://e.org/p2> <http://e.org/o> .\n"
	var got []rdf.Triple
	if err := ReadNTriplesWith(context.Background(), strings.NewReader(src), Options{}, func(tr rdf.Triple) error {
		got = append(got, tr)
		return nil
	}); err != nil {
		t.Fatalf("long line failed: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d triples, want 2", len(got))
	}
	if got[0].O.Value != lex {
		t.Fatalf("long literal corrupted: %d bytes, want %d", len(got[0].O.Value), len(lex))
	}
}

func TestNTriplesContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ReadNTriplesWith(ctx, strings.NewReader("<a> <b> <c> .\n"), Options{}, func(rdf.Triple) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTurtleContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParseTurtleWith(ctx, "<a> <b> <c> .", Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestTurtleLenientRecovery checks statement-level resynchronization: a
// malformed statement in the middle of a document costs only that statement.
func TestTurtleLenientRecovery(t *testing.T) {
	src := `
@prefix ex: <http://example.org/> .
ex:a ex:p "ok1" .
ex:c undeclared:name "dropped" .
ex:d ex:p "ok2" ; ex:q ex:e .
ex:z ex:p "unterminated string literal .
`
	var skipped []ParseError
	opts := Options{Lenient: true, OnError: func(e ParseError) { skipped = append(skipped, e) }}
	g, err := ParseTurtleWith(context.Background(), src, opts)
	if err != nil {
		t.Fatalf("lenient parse failed: %v", err)
	}
	if len(skipped) != 2 {
		t.Fatalf("skipped %d statements, want 2: %v", len(skipped), skipped)
	}
	want, err := ParseTurtle(`
@prefix ex: <http://example.org/> .
ex:a ex:p "ok1" .
ex:d ex:p "ok2" ; ex:q ex:e .
`)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatalf("recovered graph has %d triples, want %d", g.Len(), want.Len())
	}
}

// TestTurtleStrictParseErrorPosition checks that strict Turtle failures carry
// usable line information.
func TestTurtleStrictParseErrorPosition(t *testing.T) {
	_, err := ParseTurtle("@prefix ex: <http://example.org/> .\nex:a ex:p %% .")
	if err == nil {
		t.Fatal("expected error")
	}
	var pe *ParseError
	if !errors.As(err, &pe) {
		t.Fatalf("error is %T, not a *ParseError: %v", err, err)
	}
	if pe.Line != 2 {
		t.Fatalf("ParseError.Line = %d, want 2 (%v)", pe.Line, pe)
	}
}

// TestTurtleCancelPropagatesInLenientMode pins the discrimination between
// parse errors (recoverable) and every other error (never swallowed).
func TestTurtleCancelPropagatesInLenientMode(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ParseTurtleWith(ctx, "<a> <b> <c> .", Options{Lenient: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestTurtleDepthGuard(t *testing.T) {
	for _, src := range []string{
		strings.Repeat("[", maxTurtleDepth*2),
		strings.Repeat("(", maxTurtleDepth*2),
		"<s> <p> " + strings.Repeat("<<", maxTurtleDepth*2) + " .",
	} {
		if _, err := ParseTurtle(src); err == nil {
			t.Errorf("hostile nesting %q… accepted", src[:10])
		}
		// Lenient mode must recover from the same input, not crash.
		if _, err := ParseTurtleWith(context.Background(), src, Options{Lenient: true}); err != nil {
			t.Errorf("lenient parse of hostile nesting failed: %v", err)
		}
	}
}
