package sparql

import (
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
)

func TestParseUpdateInsertData(t *testing.T) {
	d, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		INSERT DATA {
			ex:alice a ex:Person ;
				ex:name "Alice" ;
				ex:age "34"^^<http://www.w3.org/2001/XMLSchema#integer> .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deletes) != 0 || len(d.Inserts) != 3 {
		t.Fatalf("got %d deletes / %d inserts, want 0 / 3", len(d.Deletes), len(d.Inserts))
	}
	want := rdf.NewTriple(
		rdf.NewIRI("http://example.org/alice"), rdf.A, rdf.NewIRI("http://example.org/Person"))
	if d.Inserts[0] != want {
		t.Fatalf("first insert = %v, want %v", d.Inserts[0], want)
	}
}

func TestParseUpdateDeleteThenInsert(t *testing.T) {
	d, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		DELETE DATA { ex:a ex:p ex:b . } ;
		INSERT DATA { ex:a ex:p ex:c . } ;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Deletes) != 1 || len(d.Inserts) != 1 {
		t.Fatalf("got %d deletes / %d inserts, want 1 / 1", len(d.Deletes), len(d.Inserts))
	}
}

// TestParseUpdateSequentialSemantics checks that the ';'-separated operations
// fold as SPARQL's sequential execution demands: the last operation naming a
// triple wins, so INSERT-then-DELETE nets to a delete and DELETE-then-INSERT
// nets to an insert — never both.
func TestParseUpdateSequentialSemantics(t *testing.T) {
	tr := rdf.NewTriple(
		rdf.NewIRI("http://example.org/a"),
		rdf.NewIRI("http://example.org/p"),
		rdf.NewIRI("http://example.org/b"))

	t.Run("insert then delete nets to delete", func(t *testing.T) {
		d, err := ParseUpdate(`
			PREFIX ex: <http://example.org/>
			INSERT DATA { ex:a ex:p ex:b . } ;
			DELETE DATA { ex:a ex:p ex:b . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Inserts) != 0 || len(d.Deletes) != 1 || d.Deletes[0] != tr {
			t.Fatalf("got %d deletes / %d inserts (%v), want the single triple deleted",
				len(d.Deletes), len(d.Inserts), d)
		}
	})
	t.Run("delete then insert nets to insert", func(t *testing.T) {
		d, err := ParseUpdate(`
			PREFIX ex: <http://example.org/>
			DELETE DATA { ex:a ex:p ex:b . } ;
			INSERT DATA { ex:a ex:p ex:b . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Deletes) != 0 || len(d.Inserts) != 1 || d.Inserts[0] != tr {
			t.Fatalf("got %d deletes / %d inserts (%v), want the single triple inserted",
				len(d.Deletes), len(d.Inserts), d)
		}
	})
	t.Run("insert delete insert nets to insert", func(t *testing.T) {
		d, err := ParseUpdate(`
			PREFIX ex: <http://example.org/>
			INSERT DATA { ex:a ex:p ex:b . } ;
			DELETE DATA { ex:a ex:p ex:b . } ;
			INSERT DATA { ex:a ex:p ex:b . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Deletes) != 0 || len(d.Inserts) != 1 {
			t.Fatalf("got %d deletes / %d inserts, want 0 / 1", len(d.Deletes), len(d.Inserts))
		}
	})
	t.Run("untouched triples keep their operations", func(t *testing.T) {
		d, err := ParseUpdate(`
			PREFIX ex: <http://example.org/>
			INSERT DATA { ex:a ex:p ex:b . ex:x ex:p ex:y . } ;
			DELETE DATA { ex:a ex:p ex:b . ex:q ex:p ex:r . }`)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Inserts) != 1 || d.Inserts[0].S.Value != "http://example.org/x" {
			t.Fatalf("inserts = %v, want only ex:x ex:p ex:y", d.Inserts)
		}
		if len(d.Deletes) != 2 {
			t.Fatalf("deletes = %v, want ex:a ex:p ex:b and ex:q ex:p ex:r", d.Deletes)
		}
	})
}

func TestParseUpdatePrefixBetweenOperations(t *testing.T) {
	d, err := ParseUpdate(`
		PREFIX a: <http://example.org/a#>
		INSERT DATA { a:x a:p a:y . } ;
		PREFIX b: <http://example.org/b#>
		INSERT DATA { b:x b:p b:y . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts) != 2 {
		t.Fatalf("got %d inserts, want 2", len(d.Inserts))
	}
	if d.Inserts[1].S.Value != "http://example.org/b#x" {
		t.Fatalf("second insert subject = %v", d.Inserts[1].S)
	}
}

func TestParseUpdateQuotedTriples(t *testing.T) {
	d, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		INSERT DATA { << ex:a ex:knows ex:b >> ex:certainty "0.9"^^<http://www.w3.org/2001/XMLSchema#double> . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts) != 1 || !d.Inserts[0].S.IsTripleTerm() {
		t.Fatalf("quoted-triple subject not preserved: %v", d.Inserts)
	}
}

func TestParseUpdateRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"empty", "", "no INSERT DATA"},
		{"blank in delete", "DELETE DATA { _:b <http://p> <http://o> . }", "blank nodes"},
		{"pattern update", "INSERT { ?s ?p ?o } WHERE { ?s ?p ?o }", "followed by DATA"},
		{"delete where", "DELETE WHERE { ?s ?p ?o }", "followed by DATA"},
		{"graph block", "INSERT DATA { GRAPH <http://g> { <http://s> <http://p> <http://o> } }", "GRAPH blocks"},
		{"unterminated block", "INSERT DATA { <http://s> <http://p> <http://o> .", "unterminated data block"},
		{"missing semicolon", "INSERT DATA { } INSERT DATA { }", "expected ';'"},
		{"trailing garbage", "INSERT DATA { } ; garbage", "expected PREFIX"},
		{"load", "LOAD <http://example.org/data.nt>", "expected PREFIX"},
		{"bad turtle", "INSERT DATA { <http://s> <http://p> }", "DATA block"},
		{"brace in block", "INSERT DATA { <http://s> <http://p> { } }", "line 1:37: expected IRI"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseUpdate(tc.src)
			if err == nil {
				t.Fatalf("ParseUpdate(%q) succeeded, want error containing %q", tc.src, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseUpdateBraceInsideLiteralAndIRI(t *testing.T) {
	d, err := ParseUpdate(`INSERT DATA {
		<http://s> <http://p> "closing } brace" .
		<http://s> <http://q> "long ''' } quote"@en .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inserts) != 2 {
		t.Fatalf("got %d inserts, want 2", len(d.Inserts))
	}
	if d.Inserts[0].O.Value != "closing } brace" {
		t.Fatalf("literal lost its brace: %v", d.Inserts[0].O)
	}
}

func TestParseUpdateRoundTripsThroughDeltaEncoding(t *testing.T) {
	d, err := ParseUpdate(`
		PREFIX ex: <http://example.org/>
		DELETE DATA { ex:a ex:name "Old \"name\"\n" . } ;
		INSERT DATA {
			ex:a ex:name "New"@en .
			<< ex:a ex:knows ex:b >> ex:since "2020"^^<http://www.w3.org/2001/XMLSchema#gYear> .
		}`)
	if err != nil {
		t.Fatal(err)
	}
	enc := d.Encode()
	back, err := rdf.DecodeDelta(enc, rio.ParseNTriplesLine)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Deletes) != len(d.Deletes) || len(back.Inserts) != len(d.Inserts) {
		t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
			len(back.Deletes), len(back.Inserts), len(d.Deletes), len(d.Inserts))
	}
	for i := range d.Deletes {
		if back.Deletes[i] != d.Deletes[i] {
			t.Fatalf("delete %d changed: %v vs %v", i, back.Deletes[i], d.Deletes[i])
		}
	}
	for i := range d.Inserts {
		if back.Inserts[i] != d.Inserts[i] {
			t.Fatalf("insert %d changed: %v vs %v", i, back.Inserts[i], d.Inserts[i])
		}
	}
}
