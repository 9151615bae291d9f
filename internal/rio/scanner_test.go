package rio

import (
	"errors"
	"io"
	"strings"
	"testing"
)

const scannerDoc = "" +
	"<http://x/a> <http://x/p> <http://x/b> .\n" +
	"# a comment line\n" +
	"\n" +
	"<http://x/b> <http://x/p> \"v\" .\n" +
	"<http://x/c> <http://x/p> \"w\"@en .\n" +
	"<http://x/d> <http://x/p> <http://x/a> ." // no trailing newline

// TestScannerStatements: comment and blank lines are skipped, and a last
// line without a newline is a statement like any other.
func TestScannerStatements(t *testing.T) {
	sc := NewNTriplesScanner(strings.NewReader(scannerDoc), Options{})
	var stmts []string
	for {
		tr, ok, err := sc.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		stmts = append(stmts, tr.String())
	}
	if len(stmts) != 4 || !strings.Contains(stmts[3], "http://x/d") {
		t.Fatalf("got statements %q, want 4 ending with d's", stmts)
	}
	if sc.Line() != 6 {
		t.Fatalf("consumed %d lines, want 6", sc.Line())
	}
}

// TestScannerLongLine: lines longer than the internal buffer must parse and
// count correctly (no bufio.Scanner token limit).
func TestScannerLongLine(t *testing.T) {
	long := strings.Repeat("x", 200*1024)
	doc := "<http://x/a> <http://x/p> \"" + long + "\" .\n" +
		"<http://x/b> <http://x/p> <http://x/a> .\n"
	sc := NewNTriplesScanner(strings.NewReader(doc), Options{})
	tr, ok, err := sc.Scan()
	if err != nil || !ok {
		t.Fatalf("Scan: %v ok=%v", err, ok)
	}
	if got := tr.O.Value; got != long {
		t.Fatalf("long literal mangled: got %d bytes, want %d", len(got), len(long))
	}
	if _, ok, err = sc.Scan(); err != nil || !ok {
		t.Fatalf("second Scan: %v ok=%v", err, ok)
	}
	if _, ok, _ = sc.Scan(); ok {
		t.Fatal("expected EOF")
	}
}

// TestScannerLenient: malformed lines are skipped and tallied, and the error
// budget aborts the scan.
func TestScannerLenient(t *testing.T) {
	doc := "<http://x/a> <http://x/p> <http://x/b> .\n" +
		"this is not a triple\n" +
		"<http://x/b> <http://x/p> <http://x/c> .\n"
	var reported []ParseError
	sc := NewNTriplesScanner(strings.NewReader(doc), Options{
		Lenient: true,
		OnError: func(pe ParseError) { reported = append(reported, pe) },
	})
	n := 0
	for {
		_, ok, err := sc.Scan()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 2 || len(reported) != 1 {
		t.Fatalf("got %d triples, %d reported", n, len(reported))
	}
	if reported[0].Line != 2 {
		t.Fatalf("reported line %d, want 2", reported[0].Line)
	}

	// Budget exhaustion hard-stops.
	bad := strings.Repeat("garbage\n", 5)
	sc = NewNTriplesScanner(strings.NewReader(bad), Options{Lenient: true, MaxErrors: 2})
	for {
		_, ok, err := sc.Scan()
		if err != nil {
			if !errors.Is(err, ErrTooManyErrors) {
				t.Fatalf("want ErrTooManyErrors, got %v", err)
			}
			break
		}
		if !ok {
			t.Fatal("scan ended without exceeding the error budget")
		}
	}
}

// TestScannerStrictError: strict mode aborts on the first malformed line with
// a ParseError carrying the right line number.
func TestScannerStrictError(t *testing.T) {
	doc := "<http://x/a> <http://x/p> <http://x/b> .\nnope\n"
	sc := NewNTriplesScanner(strings.NewReader(doc), Options{})
	if _, ok, err := sc.Scan(); err != nil || !ok {
		t.Fatalf("first Scan: %v ok=%v", err, ok)
	}
	_, _, err := sc.Scan()
	var pe *ParseError
	if !errors.As(err, &pe) || pe.Line != 2 {
		t.Fatalf("want ParseError at line 2, got %v", err)
	}
}

// TestScannerReadError: I/O errors from the underlying reader abort the scan
// and are returned verbatim.
func TestScannerReadError(t *testing.T) {
	boom := errors.New("disk on fire")
	r := io.MultiReader(
		strings.NewReader("<http://x/a> <http://x/p> <http://x/b> .\n"),
		&failingReader{err: boom},
	)
	sc := NewNTriplesScanner(r, Options{})
	if _, ok, err := sc.Scan(); err != nil || !ok {
		t.Fatalf("first Scan: %v ok=%v", err, ok)
	}
	if _, _, err := sc.Scan(); !errors.Is(err, boom) {
		t.Fatalf("want underlying read error, got %v", err)
	}
}

type failingReader struct{ err error }

func (f *failingReader) Read([]byte) (int, error) { return 0, f.err }
