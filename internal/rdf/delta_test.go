package rdf_test

import (
	"bufio"
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

// fmtEncode is the delta encoding as it was first written, through fmt and
// string concatenation: the oracle Encode's bytes are held to, so that WAL
// records written by either stay interchangeable.
func fmtEncode(d *rdf.Delta) []byte {
	var sb strings.Builder
	bw := bufio.NewWriter(&sb)
	fmt.Fprintf(bw, "%s %d %d\n", "S3PG-DELTA 1", len(d.Deletes), len(d.Inserts))
	for _, t := range d.Deletes {
		fmt.Fprintf(bw, "D %s\n", fmtTriple(t))
	}
	for _, t := range d.Inserts {
		fmt.Fprintf(bw, "I %s\n", fmtTriple(t))
	}
	bw.Flush()
	return []byte(sb.String())
}

func fmtTriple(t rdf.Triple) string {
	return fmtTerm(t.S) + " " + fmtTerm(t.P) + " " + fmtTerm(t.O) + " ."
}

func fmtTerm(t rdf.Term) string {
	switch t.Kind {
	case rdf.IRI:
		return "<" + t.Value + ">"
	case rdf.Blank:
		return "_:" + t.Value
	case rdf.Literal:
		var b strings.Builder
		b.WriteByte('"')
		for i := 0; i < len(t.Value); i++ {
			switch c := t.Value[i]; c {
			case '"':
				b.WriteString(`\"`)
			case '\\':
				b.WriteString(`\\`)
			case '\n':
				b.WriteString(`\n`)
			case '\r':
				b.WriteString(`\r`)
			case '\t':
				b.WriteString(`\t`)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
		if t.Lang != "" {
			b.WriteByte('@')
			b.WriteString(t.Lang)
		} else if t.Datatype != "" {
			b.WriteString("^^<")
			b.WriteString(t.Datatype)
			b.WriteByte('>')
		}
		return b.String()
	case rdf.TripleTerm:
		if q, ok := t.AsTriple(); ok {
			return "<< " + fmtTerm(q.S) + " " + fmtTerm(q.P) + " " + fmtTerm(q.O) + " >>"
		}
		return "<< malformed >>"
	default:
		return "<invalid term>"
	}
}

// fuzzTerm makes a term of the kind sel picks from the strings a and b.
func fuzzTerm(sel uint8, a, b string) rdf.Term {
	switch sel % 9 {
	case 0:
		return rdf.NewIRI("http://example.org/" + a)
	case 1:
		return rdf.NewBlank(a)
	case 2:
		return rdf.NewLiteral(a)
	case 3:
		return rdf.NewLangLiteral(a, b)
	case 4:
		return rdf.NewTypedLiteral(a, "http://example.org/dt#"+b)
	case 5:
		if tt, err := rdf.NewTripleTerm(rdf.NewTriple(rdf.NewIRI(b), rdf.NewIRI("http://p"), rdf.NewLiteral(a))); err == nil {
			return tt
		}
		return rdf.Term{Kind: rdf.TripleTerm, Value: a}
	case 6:
		return rdf.Term{Kind: rdf.TripleTerm, Value: a} // malformed
	case 7:
		return rdf.Term{Kind: rdf.Kind(sel), Value: a} // invalid
	default:
		return rdf.NewIRI(a)
	}
}

// checkDeltaEncode holds Encode to fmtEncode on d, and requires the
// statements that a line of N-Triples can carry (no raw line break, parsed
// back to themselves) to come back equal from DecodeDelta.
func checkDeltaEncode(t *testing.T, d *rdf.Delta) {
	t.Helper()
	want := fmtEncode(d)
	if got := d.Encode(); !bytes.Equal(got, want) {
		t.Fatalf("Encode differs from the fmt renderer\n got: %q\nwant: %q", got, want)
	}
	carried := &rdf.Delta{}
	keep := func(ts []rdf.Triple) (out []rdf.Triple) {
		for _, tr := range ts {
			s := tr.String()
			if back, err := rio.ParseNTriplesLine(s); err == nil && back == tr && !strings.Contains(s, "\n") {
				out = append(out, tr)
			}
		}
		return out
	}
	carried.Deletes, carried.Inserts = keep(d.Deletes), keep(d.Inserts)
	back, err := rdf.DecodeDelta(carried.Encode(), rio.ParseNTriplesLine)
	if err != nil {
		t.Fatalf("DecodeDelta(%q): %v", carried.Encode(), err)
	}
	if !reflect.DeepEqual(back, carried) {
		t.Fatalf("round trip changed the delta\n got: %v\nwant: %v", back, carried)
	}
}

func TestDeltaEncodeMatchesFmt(t *testing.T) {
	strs := []string{"", "a", "x y", "quote\" back\\slash\nnl\rcr\ttab", "日本語", "bad \xff utf8", "<>{}"}
	for sel := 0; sel < 9*9; sel++ {
		for i, a := range strs {
			b := strs[(i+1)%len(strs)]
			tr := rdf.NewTriple(fuzzTerm(uint8(sel), a, b), rdf.NewIRI("http://p/"+b), fuzzTerm(uint8(sel/9), a, "en"))
			checkDeltaEncode(t, &rdf.Delta{Deletes: []rdf.Triple{tr}, Inserts: []rdf.Triple{tr, tr}})
		}
	}
	checkDeltaEncode(t, &rdf.Delta{})
}

// FuzzDeltaEncode holds Encode to the fmt renderer, and its round trip
// through DecodeDelta, over deltas built from arbitrary strings.
func FuzzDeltaEncode(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(1), "s", "v", "en")
	f.Add(uint8(5), uint8(3), uint8(2), "quote\"\n", "x", "de")
	f.Add(uint8(6), uint8(4), uint8(0), "\x1f", "\xff", "")
	f.Fuzz(func(t *testing.T, ss, os, n uint8, a, b, c string) {
		d := &rdf.Delta{}
		for i := 0; i < int(n%5); i++ {
			tr := rdf.NewTriple(fuzzTerm(ss+uint8(i), a, c), rdf.NewIRI(b), fuzzTerm(os+uint8(i), b, c))
			if i%2 == 0 {
				d.Deletes = append(d.Deletes, tr)
			} else {
				d.Inserts = append(d.Inserts, tr)
			}
		}
		checkDeltaEncode(t, d)
	})
}

// TestDecodeDeltaErrors pins DecodeDelta's answers to damaged payloads.
func TestDecodeDeltaErrors(t *testing.T) {
	const line = "<http://s> <http://p> <http://o> ."
	for _, c := range []struct{ payload, err string }{
		{"", `rdf: bad delta header "": unexpected EOF`},
		{"S3PG-DELTA 2 0 0\n", `rdf: bad delta header "S3PG-DELTA 2 0 0": input does not match format`},
		{"S3PG-DELTA 1 x 0\n", `rdf: bad delta header "S3PG-DELTA 1 x 0": expected integer`},
		{"S3PG-DELTA 1 1 1\nD " + line, "rdf: delta header counts (1, 1) exceed payload"},
		{"S3PG-DELTA 1 1 1\nD " + line + "\n", `rdf: delta line 2: bad prefix ""`},
		{"S3PG-DELTA 1 -1 1\nD " + line + "\n", "rdf: delta header counts (-1, 1) exceed payload"},
		{"S3PG-DELTA 1 1 0\nX " + line + "\n", `rdf: delta line 1: bad prefix "X ` + line + `"`},
		{"S3PG-DELTA 1 0 1\nD " + line + "\n", "rdf: delta line 1: more deletes than the header declared"},
		{"S3PG-DELTA 1 1 0\nI " + line + "\n", "rdf: delta line 1: more inserts than the header declared"},
		{"S3PG-DELTA 1 1 0\nD <http://s> .\n", "rdf: delta line 1: "},
	} {
		_, err := rdf.DecodeDelta([]byte(c.payload), rio.ParseNTriplesLine)
		if err == nil || !strings.HasPrefix(err.Error(), c.err) {
			t.Errorf("DecodeDelta(%q) = %v, want %q", c.payload, err, c.err)
		}
	}
	// Sscanf reads the header: leading zeros, a sign, extra spaces and
	// trailing text are accepted, and lines past the counts are ignored.
	for _, h := range []string{"S3PG-DELTA 1 01 0", "S3PG-DELTA 1 +1 0", "S3PG-DELTA 1  1 0", "S3PG-DELTA 1 1 0 junk"} {
		d, err := rdf.DecodeDelta([]byte(h+"\nD "+line+"\nnot a statement"), rio.ParseNTriplesLine)
		if err != nil || len(d.Deletes) != 1 || d.Inserts != nil {
			t.Errorf("header %q: %v, %v", h, d, err)
		}
	}
}

func BenchmarkDecodeDelta(b *testing.B) {
	d := &rdf.Delta{}
	for i := 0; i < 80; i++ {
		d.Inserts = append(d.Inserts, rdf.NewTriple(rdf.NewIRI(fmt.Sprintf("http://dbpedia.org/resource/E%d", i)),
			rdf.NewIRI("http://dbpedia.org/ontology/name"), rdf.NewLangLiteral(fmt.Sprintf("Name %d", i), "en")))
	}
	enc := d.Encode()
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := rdf.DecodeDelta(enc, rio.ParseNTriplesLine); err != nil {
			b.Fatal(err)
		}
	}
}
