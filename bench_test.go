// Benchmarks regenerating the paper's tables and figures (§5), one per
// artifact, plus ablations for the design choices called out in DESIGN.md.
// Run them all with:
//
//	go test -bench=. -benchmem
//
// The benches use small dataset scales so the whole suite stays fast;
// cmd/experiments runs the same measurements at arbitrary scales.
package s3pg_test

import (
	"context"
	"fmt"
	"io"
	"slices"
	"testing"

	"github.com/s3pg/s3pg/internal/baseline/neosem"
	"github.com/s3pg/s3pg/internal/baseline/rdf2pgx"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/stats"
)

const (
	benchScale = 0.0002
	benchSeed  = 1
)

// benchEnv builds a shared experiment environment writing to io.Discard.
func benchEnv() *exp.Env {
	return exp.NewEnv(exp.Config{Scale: benchScale, Seed: benchSeed, W: io.Discard, MinSupport: 0.02, Workers: 1})
}

// --- Table 2 ---

func BenchmarkTable2_DatasetStats(b *testing.B) {
	for _, name := range exp.DatasetNames {
		e := benchEnv()
		g := e.Graph(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				d := stats.ComputeDataset(g)
				if d.Triples == 0 {
					b.Fatal("empty dataset")
				}
			}
		})
	}
}

// --- Table 3 ---

func BenchmarkTable3_ShapeStats(b *testing.B) {
	for _, name := range exp.DatasetNames {
		e := benchEnv()
		g := e.Graph(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sg := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
				if stats.ComputeShapes(sg).PropertyShapes == 0 {
					b.Fatal("no property shapes")
				}
			}
		})
	}
}

// --- Table 4: transformation times per method and dataset ---

func BenchmarkTable4_Transform(b *testing.B) {
	for _, name := range exp.DatasetNames {
		e := benchEnv()
		g := e.Graph(name)
		sg := e.Shapes(name)
		b.Run(name+"/S3PG", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Transform(g, sg, core.Parsimonious); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/rdf2pg", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rdf2pgx.Transform(g)
			}
		})
		b.Run(name+"/NeoSem", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				neosem.Transform(g)
			}
		})
	}
}

// BenchmarkObsOverhead_Transform quantifies the cost of the obs span
// instrumentation on the full F_st∘F_dt pipeline: the untraced sub-benchmark
// passes a nil span (the production default — every span call no-ops without
// allocating), the traced one pays for a live span tree with MemStats reads
// at each phase boundary. The delta between the two is the price of -trace.
func BenchmarkObsOverhead_Transform(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	sg := e.Shapes("DBpedia2022")
	b.Run("untraced", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.TransformWith(context.Background(), g, sg, core.Parsimonious, nil, core.TransformOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("traced", func(b *testing.B) {
		b.ReportAllocs()
		var root *obs.Span
		for i := 0; i < b.N; i++ {
			root = obs.NewSpan("bench")
			if _, err := core.TransformWith(context.Background(), g, sg, core.Parsimonious, root, core.TransformOptions{}); err != nil {
				b.Fatal(err)
			}
			root.End()
		}
		b.StopTimer()
		if !slices.ContainsFunc(root.Record().Children, func(c obs.SpanRecord) bool { return c.Name == "F_dt" }) {
			b.Fatal("trace lost the F_dt phase")
		}
	})
}

// BenchmarkTable4_Loading measures the CSV bulk export/import (the L column).
func BenchmarkTable4_Loading(b *testing.B) {
	e := benchEnv()
	store, _ := e.S3PG("DBpedia2022")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var nodes, edges discardCounter
		if err := store.WriteCSV(&nodes, &edges); err != nil {
			b.Fatal(err)
		}
	}
}

type discardCounter struct{ n int }

func (d *discardCounter) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }

// --- Table 5 ---

func BenchmarkTable5_PGStats(b *testing.B) {
	e := benchEnv()
	s3store, _ := e.S3PG("DBpedia2022")
	neoStore := e.NeoSem("DBpedia2022")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := stats.ComputePG(s3store)
		c := stats.ComputePG(neoStore)
		if a.Nodes <= c.Nodes {
			b.Fatal("S3PG graph should be larger (value nodes)")
		}
	}
}

// --- Tables 6 and 7: accuracy workloads ---

func BenchmarkTable6_AccuracyDBpedia(b *testing.B) {
	e := benchEnv()
	e.S3PG("DBpedia2022") // materialize outside the timer
	e.NeoSem("DBpedia2022")
	e.RDF2PG("DBpedia2022")
	queries := exp.DBpediaQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.MeasureAccuracy(e, "DBpedia2022", queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.S3PG != 1 {
				b.Fatalf("%s: S3PG accuracy %f", r.Query.ID, r.S3PG)
			}
		}
	}
}

func BenchmarkTable7_AccuracyBio2RDF(b *testing.B) {
	e := benchEnv()
	e.S3PG("Bio2RDFCT")
	e.NeoSem("Bio2RDFCT")
	e.RDF2PG("Bio2RDFCT")
	queries := exp.Bio2RDFQueries()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := exp.MeasureAccuracy(e, "Bio2RDFCT", queries)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.S3PG != 1 {
				b.Fatalf("%s: S3PG accuracy %f", r.Query.ID, r.S3PG)
			}
		}
	}
}

// --- Figure 6: query runtime per category and engine ---

func BenchmarkFig6_QueryRuntime(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	s3store, _ := e.S3PG("DBpedia2022")
	neoStore := e.NeoSem("DBpedia2022")
	rdfStore := e.RDF2PG("DBpedia2022")

	byCat := map[exp.Category][]exp.Query{}
	for _, q := range exp.DBpediaQueries() {
		byCat[q.Category] = append(byCat[q.Category], q)
	}
	for _, cat := range []exp.Category{exp.CatSingleType, exp.CatMTHomoLit, exp.CatMTHomoNonL, exp.CatMTHetero} {
		queries := byCat[cat]
		b.Run(fmt.Sprintf("%s/SPARQL", cat), func(b *testing.B) {
			parsed := make([]*sparql.Query, len(queries))
			for i, q := range queries {
				parsed[i] = mustParse(b, sparql.Parse, q.SPARQL)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, q := range parsed {
					if _, err := sparql.EvalCtx(context.Background(), g, q); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		for _, m := range []struct {
			name  string
			store *pg.Store
		}{{"S3PG", s3store}, {"NeoSem", neoStore}, {"rdf2pg", rdfStore}} {
			store := m.store
			b.Run(fmt.Sprintf("%s/%s", cat, m.name), func(b *testing.B) {
				parsed := make([]*cypher.Query, len(queries))
				for i, q := range queries {
					parsed[i] = mustParse(b, cypher.Parse, q.Cypher)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for _, q := range parsed {
						if _, err := cypher.EvalWith(store, q, cypher.EvalOptions{}); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
	}
}

// --- §5.4 monotonicity ---

func BenchmarkMonotonicity_FullRetransform(b *testing.B) {
	e := benchEnv()
	p := e.Profile("DBpedia2022")
	s1 := e.Graph("DBpedia2022")
	delta := datagen.Evolve(s1, p, 0.0521, benchSeed+1000)
	sg := e.Shapes("DBpedia2022")
	s2 := s1.Clone()
	s2.AddAll(delta)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Transform(s2, sg, core.NonParsimonious); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonotonicity_IncrementalDelta(b *testing.B) {
	e := benchEnv()
	p := e.Profile("DBpedia2022")
	s1 := e.Graph("DBpedia2022")
	delta := datagen.Evolve(s1, p, 0.0521, benchSeed+1000)
	sg := e.Shapes("DBpedia2022")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr, err := core.NewTransformer(sg, core.NonParsimonious)
		if err != nil {
			b.Fatal(err)
		}
		if err := tr.Apply(s1); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := tr.Apply(delta); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §4) ---

// BenchmarkAblation_DictVsString compares the dictionary-encoded, indexed
// triple store against a string-keyed equivalent: both ingest the dataset
// and build a subject index, then answer one subject-lookup per subject —
// the access pattern of Algorithm 1's property phase. Interned uint32 ids
// keep the triple set and posting lists compact, while the string variant
// re-hashes full IRIs at every step.
func BenchmarkAblation_DictVsString(b *testing.B) {
	e := benchEnv()
	triples := e.Graph("DBpedia2020").Triples()
	var subjects []rdf.Term
	seen := map[rdf.Term]bool{}
	for _, t := range triples {
		if !seen[t.S] {
			seen[t.S] = true
			subjects = append(subjects, t.S)
		}
	}
	b.Run("dict", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := rdf.NewGraph()
			for _, t := range triples {
				g.Add(t)
			}
			total := 0
			for _, s := range subjects {
				total += g.MatchCount(&s, nil, nil)
			}
			if total != g.Len() {
				b.Fatalf("lookup mismatch: %d vs %d", total, g.Len())
			}
		}
	})
	b.Run("string", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			set := make(map[string]struct{}, len(triples))
			bySubj := make(map[string][]int, len(subjects))
			for idx, t := range triples {
				key := t.S.String() + "\x1f" + t.P.String() + "\x1f" + t.O.String()
				if _, dup := set[key]; dup {
					continue
				}
				set[key] = struct{}{}
				bySubj[t.S.String()] = append(bySubj[t.S.String()], idx)
			}
			total := 0
			for _, s := range subjects {
				total += len(bySubj[s.String()])
			}
			if total != len(set) {
				b.Fatalf("lookup mismatch: %d vs %d", total, len(set))
			}
		}
	})
}

// BenchmarkAblation_TwoPassVsNaive compares Algorithm 1's two-phase
// transformation against a naive single-pass merge (the strategy of the
// plugin-style importers): every triple triggers lookup-or-create work and
// type triples must patch already-created nodes. The naive pass is somewhat
// cheaper per triple because it does no schema routing — but its output is
// untyped and lossy (every literal becomes an anonymous VALUE node, no
// key/value inlining, no conformance); the ablation quantifies what the
// schema-driven routing costs on top.
func BenchmarkAblation_TwoPassVsNaive(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	sg := e.Shapes("DBpedia2022")
	b.Run("two-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := core.Transform(g, sg, core.Parsimonious); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("naive-single-pass", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			naiveSinglePass(g)
		}
	})
}

// naiveSinglePass is the ablation baseline: one pass, string-keyed merges.
func naiveSinglePass(g *rdf.Graph) *pg.Store {
	st := pg.NewStore()
	byIRI := make(map[string]pg.NodeID)
	merge := func(iri string) pg.NodeID {
		if id, ok := byIRI[iri]; ok {
			return id
		}
		n := st.AddNode(nil, map[string]pg.Value{"iri": iri})
		byIRI[iri] = n.ID
		return n.ID
	}
	g.ForEach(func(t rdf.Triple) bool {
		sid := merge(t.S.Value)
		switch {
		case t.P == rdf.A:
			st.AddLabel(sid, rdf.LocalName(t.O.Value))
		case t.O.IsResource():
			st.AddEdge(sid, merge(t.O.Value), rdf.LocalName(t.P.Value), nil)
		default:
			vn := st.AddNode([]string{"VALUE"}, map[string]pg.Value{"value": t.O.Value})
			st.AddEdge(sid, vn.ID, rdf.LocalName(t.P.Value), nil)
		}
		return true
	})
	return st
}

// BenchmarkAblation_ParsimoniousVsNonParsimonious quantifies the §4.1.1
// trade-off: the monotone encoding produces a larger graph and costs more
// to build.
func BenchmarkAblation_ParsimoniousVsNonParsimonious(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	sg := e.Shapes("DBpedia2022")
	for _, mode := range []core.Mode{core.Parsimonious, core.NonParsimonious} {
		b.Run(mode.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Transform(g, sg, mode); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Optimize measures the §7 post-hoc compaction of a
// non-parsimonious graph and reports how much of it folds away.
func BenchmarkAblation_Optimize(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	sg := e.Shapes("DBpedia2022")
	store, spg, err := core.Transform(g, sg, core.NonParsimonious)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var opt *pg.Store
	for i := 0; i < b.N; i++ {
		opt, _, err = core.Optimize(store, spg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(store.NumNodes()-opt.NumNodes()), "nodes-folded")
}

// BenchmarkAblation_MatchIndexVsScan shows the value of the posting-list
// indexes behind Graph.Match.
func BenchmarkAblation_MatchIndexVsScan(b *testing.B) {
	e := benchEnv()
	g := e.Graph("DBpedia2022")
	subj := rdf.NewIRI(e.Profile("DBpedia2022").NS + "Person_1")
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.MatchCount(&subj, nil, nil)
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			n := 0
			g.ForEach(func(t rdf.Triple) bool {
				if t.S == subj {
					n++
				}
				return true
			})
		}
	})
}

// --- Inverse mapping and validation throughput ---

func BenchmarkInverseData(b *testing.B) {
	e := benchEnv()
	store, spg := e.S3PG("DBpedia2020")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.InverseData(store, spg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSHACLValidation(b *testing.B) {
	e := benchEnv()
	g := e.Graph("Bio2RDFCT")
	sg := e.Shapes("Bio2RDFCT")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shacl.Validate(g, sg)
	}
}

// mustParse parses a workload query of the paper or fails the benchmark.
func mustParse[Q any](b *testing.B, parse func(string) (Q, error), src string) Q {
	b.Helper()
	q, err := parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return q
}
