package sparql

import (
	"runtime"
	"strings"
	"testing"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rdf"
)

// growBodies renders grow batches the way a live client sends them, one
// N-Triples statement a line in an INSERT DATA block: batches of 78 new
// non-type statements DBpedia2022 @ 0.0003 grows by, the shape of the
// benchmark's live grow updates.
func growBodies(tb testing.TB, n int) []string {
	tb.Helper()
	const stmts = 78
	p := datagen.Profiles()["DBpedia2022"]
	g := datagen.Generate(p, 0.0003, 1)
	var grown []rdf.Triple
	datagen.Evolve(g, p, float64(2*n*stmts)/float64(g.Len()), 2).ForEach(func(t rdf.Triple) bool {
		if t.P != rdf.A {
			grown = append(grown, t)
		}
		return true
	})
	var bodies []string
	for lo := 0; lo+stmts <= len(grown) && len(bodies) < n; lo += stmts {
		var b strings.Builder
		b.WriteString("INSERT DATA {\n")
		for _, t := range grown[lo : lo+stmts] {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
		bodies = append(bodies, b.String())
	}
	if len(bodies) < n {
		tb.Fatalf("%d grow bodies, want %d", len(bodies), n)
	}
	return bodies
}

// TestParseUpdateGrowAllocBudget: parsing a grow batch's body allocates at
// most half of the 115 KB a batch took when each statement was folded by its
// N-Triples string into an unsized table and the Delta's slices grew by
// appending.
func TestParseUpdateGrowAllocBudget(t *testing.T) {
	bodies := growBodies(t, 20)
	for _, src := range bodies { // warm up: the parser's lazily built tables
		if _, err := ParseUpdate(src); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, src := range bodies {
		if _, err := ParseUpdate(src); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(bodies))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("a grow body of %d bytes (mean of %.0f): %.0f B, %.0f allocs", len(bodies[0]), n, bytes,
		float64(after.Mallocs-before.Mallocs)/n)
	if bytes > 115e3/2 {
		t.Errorf("parsing a grow body allocates %.0f B, want <= %.0f", bytes, 115e3/2)
	}
}

func BenchmarkParseUpdateGrow(b *testing.B) {
	bodies := growBodies(b, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseUpdate(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}
