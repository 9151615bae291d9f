package rio

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
)

// hintDocument serializes a generated DBpedia-like graph as N-Triples.
func hintDocument(tb testing.TB) ([]byte, int) {
	tb.Helper()
	g := datagen.Generate(datagen.Profiles()["DBpedia2022"], 0.0002, 1)
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes(), g.Len()
}

// opaque hides everything about a reader but Read, so the loader cannot size
// the graph.
type opaque struct{ io.Reader }

// TestLoadNTriplesHintIsInvisible: a reader that reports its size gets a
// pre-sized graph, any other reader does not, and the two graphs are the same
// graph — ids, admission order, everything an accessor can see.
func TestLoadNTriplesHintIsInvisible(t *testing.T) {
	doc, triples := hintDocument(t)
	if len(doc) <= ntBlockSize {
		t.Fatalf("fixture has %d bytes, the hint needs more than a block's %d", len(doc), ntBlockSize)
	}
	hinted, err := LoadNTriples(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := LoadNTriples(opaque{bytes.NewReader(doc)})
	if err != nil {
		t.Fatal(err)
	}
	if hinted.Len() != triples || plain.Len() != triples || hinted.Dict().Len() != plain.Dict().Len() {
		t.Fatalf("hinted %d triples / %d terms, plain %d / %d, want %d triples",
			hinted.Len(), hinted.Dict().Len(), plain.Len(), plain.Dict().Len(), triples)
	}
	type enc struct{ s, p, o rdf.TermID }
	var want []enc
	plain.ForEachEncoded(func(_ int, s, p, o rdf.TermID) bool {
		want = append(want, enc{s, p, o})
		return true
	})
	i := 0
	hinted.ForEachEncoded(func(_ int, s, p, o rdf.TermID) bool {
		if (enc{s, p, o}) != want[i] {
			t.Fatalf("slot %d: hinted graph has %v, plain graph %v", i, enc{s, p, o}, want[i])
		}
		i++
		return true
	})
	for id := 0; id < plain.Dict().Len(); id++ {
		if a, b := hinted.Dict().Term(rdf.TermID(id)), plain.Dict().Term(rdf.TermID(id)); a != b {
			t.Fatalf("term %d: hinted %v, plain %v", id, a, b)
		}
	}
}

// TestLoadNTriplesHintedAllocs guards the sized load: once the hint is taken
// nothing the graph owns grows again, and a term it introduces is copied into
// the dictionary's chunks rather than made a string, so next to nothing is
// allocated per triple. A regrowth is few allocations but many bytes, so the
// unsized load of the same document is held against it in bytes.
func TestLoadNTriplesHintedAllocs(t *testing.T) {
	doc, triples := hintDocument(t)
	load := func(r func() io.Reader) (allocs, bytes float64) {
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := LoadNTriples(r()); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		n := float64(runs * triples)
		return float64(after.Mallocs-before.Mallocs) / n, float64(after.TotalAlloc-before.TotalAlloc) / n
	}
	allocs, hinted := load(func() io.Reader { return bytes.NewReader(doc) })
	_, plain := load(func() io.Reader { return opaque{bytes.NewReader(doc)} })
	t.Logf("hinted: %.2f allocs and %.0f bytes per triple; unsized: %.0f bytes", allocs, hinted, plain)
	if allocs > 0.1 {
		t.Fatalf("hinted LoadNTriples allocates %.2f times per triple, want <= 0.1", allocs)
	}
	if hinted > 0.85*plain {
		t.Fatalf("hinted load allocates %.0f bytes per triple, the unsized load %.0f: something still regrows", hinted, plain)
	}
}

// TestLoadNTriplesAllocsFollowTerms: a statement whose terms the dictionary
// holds costs the loader no allocation — not for the line, not for an
// escaped lexical form, an upper-case language tag or an xsd:string
// datatype. The document cycles through 5000 distinct statements over 154
// terms, so doubling its lines from 5000 adds parsing, interning and
// duplicate checks but no term and no triple, and must add (almost) no
// allocation; what a line cost before was at least its string.
func TestLoadNTriplesAllocsFollowTerms(t *testing.T) {
	const subjects, preds, objects = 50, 4, 100
	doc := func(n int) string {
		var b strings.Builder
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<http://ex.org/s%d> <http://ex.org/p%d> ", i%subjects, i%preds)
			switch o := (i / subjects) % objects; o % 4 {
			case 0:
				fmt.Fprintf(&b, "\"v\\u00e9 \\\"%d\\\"\" .\n", o)
			case 1:
				fmt.Fprintf(&b, "\"v%d\"@EN-GB .\n", o)
			case 2:
				fmt.Fprintf(&b, "\"%d\"^^<http://www.w3.org/2001/XMLSchema#string> .\n", o)
			default:
				fmt.Fprintf(&b, "_:b%d .\n", o)
			}
		}
		return b.String()
	}
	allocs := func(n int) float64 {
		src := doc(n)
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadNTriplesWith(context.Background(), strings.NewReader(src), Options{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const n = 5000
	a1, a2, a4 := allocs(n), allocs(2*n), allocs(4*n)
	t.Logf("allocations for %d / %d / %d lines: %.0f / %.0f / %.0f", n, 2*n, 4*n, a1, a2, a4)
	// The graph is sized from the input's length (Graph.Grow), and a larger
	// duplicate index is a few more tables.
	const bound = 64
	if a2-a1 > bound || a4-a2 > bound {
		t.Fatalf("doubling the lines added %.0f then %.0f allocations, want at most %d each: something is allocated per line", a2-a1, a4-a2, bound)
	}
}

// BenchmarkLoadNTriplesHinted is the sequential loader over a reader that
// reports its size (what the CLI hands it: a file).
func BenchmarkLoadNTriplesHinted(b *testing.B) {
	doc, triples := hintDocument(b)
	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	for i := 0; i < b.N; i++ {
		g, err := LoadNTriples(bytes.NewReader(doc))
		if err != nil || g.Len() != triples {
			b.Fatalf("loaded %d triples, err %v", g.Len(), err)
		}
	}
}

// batchSeqDocument is the input of the bench's batch_seq workload:
// DBpedia2022 @ 0.001 as N-Triples, 116 k triples.
var batchSeqDocument = sync.OnceValues(func() ([]byte, int) {
	g := datagen.Generate(datagen.Profiles()["DBpedia2022"], 0.001, 1)
	var buf bytes.Buffer
	if err := WriteNTriples(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes(), g.Len()
})

// BenchmarkLoadThenMatch is a load followed by the graph's first read,
// Match(?, rdf:type, ?) to the end, on batch_seq's input. Admission leaves
// the posting lists to that read, so this is what ingest costs a graph that
// is read. It also reports the live heap of one graph per triple after the
// load (loaded-B/triple) and after the read built its index
// (indexed-B/triple).
func BenchmarkLoadThenMatch(b *testing.B) {
	doc, triples := batchSeqDocument()
	typ := rdf.A
	match := func(g *rdf.Graph) (n int) {
		g.Match(nil, &typ, nil, func(rdf.Triple) bool { n++; return true })
		return n
	}
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	base := heap()
	g, err := LoadNTriples(bytes.NewReader(doc))
	if err != nil {
		b.Fatal(err)
	}
	loaded := heap()
	types := match(g)
	indexed := heap()
	runtime.KeepAlive(g)

	b.ReportAllocs()
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadNTriples(bytes.NewReader(doc))
		if err != nil {
			b.Fatal(err)
		}
		if n := match(g); n != types {
			b.Fatalf("the first Match found %d rdf:type triples, %d before", n, types)
		}
	}
	b.ReportMetric(float64(loaded-base)/float64(triples), "loaded-B/triple")
	b.ReportMetric(float64(indexed-base)/float64(triples), "indexed-B/triple")
}
