package sparql

import (
	"reflect"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/rdf"
)

// graphBlock is the data-block reader the oracle uses: the block collected
// into a graph of its own and its statements read back out of it, in
// admission order, each once.
func graphBlock(u *updateParser, emit func(rdf.Triple)) error {
	g := rdf.NewGraph()
	if err := u.triplesTemplate(func(t rdf.Triple) { g.Add(t) }); err != nil {
		return err
	}
	for _, t := range g.Triples() {
		emit(t)
	}
	return nil
}

// checkAgainstGraphOracle requires ParseUpdate to answer src as the parse
// through graphBlock does: the same Delta, or the same error.
func checkAgainstGraphOracle(t *testing.T, src string) {
	t.Helper()
	got, gerr := ParseUpdate(src)
	oracle := newUpdateParser(src)
	oracle.readBlock = graphBlock
	want, werr := oracle.parse()
	if (gerr == nil) != (werr == nil) || gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%q: error %v, graph oracle %v", src, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%q: delta %v, graph oracle %v", src, got, want)
	}
}

// updateOracleSeeds exercise what the graph oracle would fold: duplicate
// statements inside a block and across blocks, blank nodes (labelled,
// anonymous, collections) and PREFIX lines between operations.
var updateOracleSeeds = []string{
	"PREFIX ex: <http://example.org/>\nINSERT DATA { ex:a ex:p ex:b . ex:a ex:p ex:b . ex:c ex:p \"x\" , \"x\" }",
	"PREFIX ex: <http://example.org/>\nINSERT DATA { ex:a ex:p 1 } ; DELETE DATA { ex:a ex:p 1 . ex:b ex:p 2 } ; INSERT DATA { ex:b ex:p 2 . ex:a ex:p 1 }",
	"INSERT DATA { _:b1 <http://p> _:b2 . _:b1 <http://p> _:b2 . [] <http://q> ( 1 2 ) } ; INSERT DATA { [] <http://q> ( 1 2 ) }",
	"PREFIX a: <http://a/>\nINSERT DATA { a:x a:y a:z } ; PREFIX a: <http://b/>\nINSERT DATA { a:x a:y a:z . a:x a:y a:z }",
	"DELETE DATA { <http://s> <http://p> <http://o> . <http://s> <http://p> ( 1 ) }",
	"INSERT DATA { << <http://s> <http://p> <http://o> >> <http://c> \"0.9\" . << <http://s> <http://p> <http://o> >> <http://c> \"0.9\" }",
	"INSERT DATA { <http://s> <http://p> \"a\"^^<http://www.w3.org/2001/XMLSchema#string> , \"a\" , \"A\"@EN , \"A\"@en }",
}

func TestParseUpdateMatchesGraphOracle(t *testing.T) {
	for _, src := range updateOracleSeeds {
		checkAgainstGraphOracle(t, src)
	}
}

// FuzzParseUpdate checks that the SPARQL Update parser neither panics nor
// hangs on arbitrary input: malformed INSERT DATA bodies, truncated triples,
// unbalanced quoting, and RDF-star depth bombs (bounded by the Turtle
// parser's depth guard). Successful parses must satisfy the DELETE DATA
// blank-node invariant, and every answer must equal the one a parse through
// a graph per data block gives.
func FuzzParseUpdate(f *testing.F) {
	f.Add("PREFIX ex: <http://example.org/>\nINSERT DATA { ex:a a ex:Person ; ex:name \"A\" . }")
	f.Add("DELETE DATA { <http://s> <http://p> \"v\" . } ; INSERT DATA { <http://s> <http://p> \"w\" . }")
	f.Add("INSERT DATA { << <http://s> <http://p> <http://o> >> <http://c> \"0.9\" . }")
	f.Add("BASE <http://example.org/>\nINSERT DATA { <a> <b> <c> . }")
	f.Add("INSERT DATA { \"unterminated")
	f.Add("INSERT DATA { " + strings.Repeat("<<", 200))
	f.Add("DELETE DATA { _:b <http://p> <http://o> . }")
	f.Add(";;;")
	f.Add("INSERT DATA { <http://s> <http://p> <http://o> }")
	f.Add("PREFIX ex: <http://example.org/>\nINSERT DATA { ex:a ex:p 'x' ; ex:q ex:café } ; DELETE DATA { ex:a ex:p 'y' }")
	f.Add("INSERT DATA { <http://s> <http://p> '''multi\nline''' , 'it\\'s' , \"caf\\u00E9\" }")
	for _, src := range updateOracleSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			return
		}
		checkAgainstGraphOracle(t, src)
		d, err := ParseUpdate(src)
		if err != nil {
			return
		}
		for _, tr := range d.Deletes {
			if hasBlank(tr) {
				t.Fatalf("accepted DELETE DATA with a blank node: %v", tr)
			}
		}
	})
}
