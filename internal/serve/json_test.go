package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
)

// encodingJSON is the body the handler used to write for r: its Body through
// json.Encoder + SetIndent, the wire format AppendJSON is pinned to.
func encodingJSON(r *Response) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(Body{
		Graph: r.Graph, Job: r.Job, Lang: r.Lang, LSN: r.LSN, Cache: r.Cache,
		Columns: r.Columns, Rows: r.Rows(), Truncated: r.Truncated,
	})
	return buf.Bytes(), err
}

// checkWire holds AppendJSON to encodingJSON on one response: the same
// bytes, or an error from both.
func checkWire(t *testing.T, r *Response) {
	t.Helper()
	want, wantErr := encodingJSON(r)
	got, gotErr := r.AppendJSON(nil)
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("error outcome: encoding/json %v, AppendJSON %v", wantErr, gotErr)
	}
	if wantErr == nil && !bytes.Equal(want, got) {
		t.Fatalf("wire bytes differ\nencoding/json:\n%s\nAppendJSON:\n%s", want, got)
	}
	// Appending must not disturb what the buffer already holds.
	if pre, _ := r.AppendJSON([]byte("xy")); gotErr == nil && !bytes.Equal(pre, append([]byte("xy"), got...)) {
		t.Fatal("AppendJSON onto a non-empty buffer differs")
	}
}

// valueSnapshot is a snapshot whose :T nodes each carry one of the values
// under "v" (and its position under "i"), and whose graph has, per string,
// statements whose subject IRI, blank node and literal object are all made of
// it, plus an RDF-star annotation whose subject quotes the first of them.
func valueSnapshot(values []pg.Value, strs []string) *Snapshot {
	st := pg.NewStore()
	for i, v := range values {
		props := map[string]pg.Value{"i": int64(i)}
		if v != nil {
			props["v"] = v
		}
		st.AddNode([]string{"T"}, props)
	}
	g := rdf.NewGraph()
	p := rdf.NewIRI("http://x/p")
	for _, s := range strs {
		g.Add(rdf.NewTriple(rdf.NewIRI("http://x/"+s), p, rdf.NewLiteral(s)))
		g.Add(rdf.NewTriple(rdf.NewBlank(s), p, rdf.NewLangLiteral(s, "en")))
		// A string holding the quoted-triple key's own separators cannot be quoted.
		if quoted, err := rdf.NewTripleTerm(rdf.NewTriple(rdf.NewIRI("http://x/"+s), p, rdf.NewLiteral(s))); err == nil {
			g.Add(rdf.NewTriple(quoted, rdf.NewIRI("http://x/since"), quoted))
		}
	}
	return NewSnapshot(g, st, "", 42)
}

var wireStrings = []string{
	"", "plain", "<a href=\"x\">&amp;</a>", "line\u2028sep\u2029arator", "\x00\x01\x1f\x7f\b\f\n\r\t",
	"bad \xff\xfe utf8 \xc3", `quote" back\slash /`, "日本語 🜚", "é́",
}

func wireValues() []pg.Value {
	vals := []pg.Value{
		nil, true, false,
		int64(0), int64(-1), int64(255), int64(256), int64(math.MaxInt64), int64(math.MinInt64),
		0.0, math.Copysign(0, -1), 1.0, -2.5, 1e-7, 9.99e-7, 1e-6, 1.5e-9, -1e-9, 1e20, 1e21, 1.5e300,
		123456789.125, 5e-324, math.MaxFloat64, 100000000000000000000.0, 1e-10, 1e-5,
		[]pg.Value{},
		[]pg.Value{int64(1), "x<y", 2.5, nil, true},
		[]pg.Value{[]pg.Value{}, []pg.Value{nil, []pg.Value{"deep", []pg.Value{1e21}}}},
	}
	for _, s := range wireStrings {
		vals = append(vals, s)
	}
	return vals
}

func mustExecute(t *testing.T, snap *Snapshot, req Request) *Response {
	t.Helper()
	r, err := Execute(context.Background(), snap, req)
	if err != nil {
		t.Fatalf("%s %q: %v", req.Lang, req.Query, err)
	}
	return r
}

// TestRowJSONMatchesEncodingJSON pins the wire format: AppendJSON equals
// json.Encoder + SetIndent byte for byte, the traps included.
func TestRowJSONMatchesEncodingJSON(t *testing.T) {
	snap := valueSnapshot(wireValues(), wireStrings)
	requests := []Request{
		{Lang: "cypher", Query: `MATCH (n:T) RETURN n.i AS i, n.v AS v`},
		{Lang: "cypher", Query: `MATCH (n:T) RETURN n.v AS v`, MaxRows: 5},
		{Lang: "cypher", Query: `MATCH (n:T) RETURN n.v AS v LIMIT 5`, MaxRows: 5},
		{Lang: "cypher", Query: `MATCH (n:Nothing) RETURN n.v AS v, n AS n`},
		{Lang: "cypher", Query: "MATCH (n:T) RETURN count(*) AS n, labels(n) AS `<&>`"},
		{Lang: "cypher", Query: `MATCH (n:T) RETURN count(*) AS n`},
		{Lang: "sparql", Query: `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`},
		{Lang: "sparql", Query: `SELECT ?s ?o ?unbound WHERE { ?s ?p ?o } ORDER BY ?o`, MaxRows: 7},
		{Lang: "sparql", Query: `SELECT ?s WHERE { ?s <http://x/none> ?o }`},
		{Lang: "sparql", Query: `SELECT ?s ?o WHERE { ?s <http://x/since> ?o }`},
		{Lang: "sparql", Query: `SELECT * WHERE { }`},
		{Lang: "sparql", Query: `SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }`},
		{Lang: "sparql", Query: `ASK { ?s ?p ?o }`},
	}
	envelopes := []struct{ graph, job, cache string }{
		{"g<1>", "", "live"}, {"", "job-7", "hit"}, {"", "", "miss"}, {"both", "set", ""},
	}
	for i, req := range requests {
		r := mustExecute(t, snap, req)
		env := envelopes[i%len(envelopes)]
		r.Graph, r.Job, r.Cache = env.graph, env.job, env.cache
		checkWire(t, r)
		if req.MaxRows > 0 && !r.Truncated && req.Query != requests[2].Query {
			t.Errorf("%q: cap %d did not truncate", req.Query, req.MaxRows)
		}
	}

	// What JSON cannot carry fails in both encoders.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := valueSnapshot([]pg.Value{1.5, []pg.Value{"in a list", f}}, nil)
		checkWire(t, mustExecute(t, bad, requests[0]))
		if _, err := mustExecute(t, bad, requests[0]).AppendJSON(nil); err == nil {
			t.Errorf("%v encoded without error", f)
		}
	}
}

// wordTraps are the bytes jsonstr.AppendEscaped's word test must stop at, and the
// multi-byte sequences after which the scan must pick up again: each escaped
// ASCII byte, the bounds of the control range, DEL (which stays literal), a
// 2-, 3- and 4-byte rune, the two line separators JSON escapes, a lone
// continuation byte and a truncated 3-byte sequence.
var wordTraps = []string{
	`"`, `\`, "<", ">", "&",
	"\x00", "\x1f", "\x7f",
	"é", "日", "🜚", "\u2028", "\u2029",
	"\x80", "\xe2\x80",
}

// TestRowJSONWordBoundaries holds AppendJSON to encoding/json on plain runs
// of 0 to 24 bytes with one trap at every offset: before, inside and after
// each eight-byte word the scan reads, a multi-byte trap straddling a word
// boundary included. The cells put the run at several offsets of their
// value (an IRI's cell starts with "http://x/").
func TestRowJSONWordBoundaries(t *testing.T) {
	const run = "http://example.org/r_0-9~"
	for _, trap := range wordTraps {
		var strs []string
		for n := 0; n <= 24; n++ {
			for off := 0; off <= n; off++ {
				strs = append(strs, run[:off]+trap+run[off:n])
			}
		}
		values := make([]pg.Value, len(strs))
		for i, s := range strs {
			values[i] = s
		}
		snap := valueSnapshot(values, strs)
		t.Run(fmt.Sprintf("%q", trap), func(t *testing.T) {
			checkWire(t, mustExecute(t, snap, Request{Lang: "cypher", Query: `MATCH (n:T) RETURN n.i AS i, n.v AS v`}))
			checkWire(t, mustExecute(t, snap, Request{Lang: "sparql", Query: `SELECT ?s ?o WHERE { ?s ?p ?o }`}))
		})
	}
}

// TestAppendJSONAllocatesNothing: a SPARQL answer over a resident graph
// encodes into a buffer with room without allocating — the wire strings'
// answer and every SPARQL answer of the query mix.
func TestAppendJSONAllocatesNothing(t *testing.T) {
	snaps := []*Snapshot{valueSnapshot(nil, wireStrings)}
	reqs := []Request{{Lang: "sparql", Query: `SELECT ?s ?p ?o WHERE { ?s ?p ?o }`}}
	qsnap, cases := qmix(t)
	for _, c := range cases {
		if c.req.Lang == "sparql" {
			snaps, reqs = append(snaps, qsnap), append(reqs, c.req)
		}
	}
	for i, req := range reqs {
		r := mustExecute(t, snaps[i], req)
		buf, err := r.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(10, func() { buf, _ = r.AppendJSON(buf[:0]) }); allocs != 0 {
			t.Errorf("%q: encoding %d rows into a %d-byte buffer allocates %.1f times", req.Query, r.Len(), cap(buf), allocs)
		}
	}
}

// FuzzRowJSON feeds arbitrary strings and numbers through both engines'
// answers and both encoders.
func FuzzRowJSON(f *testing.F) {
	for i, s := range wireStrings {
		f.Add(s, int64(i)<<uint(7*i), math.Float64frombits(uint64(i)<<57|uint64(i)), i%2 == 0)
	}
	for i, trap := range wordTraps { // past the first word, then a plain word after the trap
		f.Add("0123456789ab"[:9+i%4]+trap+"tail of it", int64(i), float64(i), i%2 == 1)
	}
	f.Add("e", int64(-0), 1e21, true)
	f.Add("e", int64(1), 9.999999999999999e-7, false)
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64, b bool) {
		values := []pg.Value{s, i, fl, b, nil, []pg.Value{s, []pg.Value{fl, i}, b}}
		snap := valueSnapshot(values, []string{s})
		checkWire(t, mustExecute(t, snap, Request{Lang: "cypher", Query: `MATCH (n:T) RETURN n.i AS i, n.v AS v`}))
		checkWire(t, mustExecute(t, snap, Request{Lang: "sparql", Query: `SELECT ?s ?o WHERE { ?s ?p ?o }`}))
	})
}
