package exp

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"text/tabwriter"
	"time"

	"github.com/s3pg/s3pg/internal/baseline/neosem"
	"github.com/s3pg/s3pg/internal/baseline/rdf2pgx"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/stats"
)

// RunAll regenerates every table and figure.
func RunAll(e *Env) error {
	if err := RunTable2(e); err != nil {
		return err
	}
	if err := RunTable3(e); err != nil {
		return err
	}
	if _, err := RunTable4(e); err != nil {
		return err
	}
	if err := RunTable5(e); err != nil {
		return err
	}
	if _, err := RunTable6(e); err != nil {
		return err
	}
	if _, err := RunTable7(e); err != nil {
		return err
	}
	if _, err := RunFig6(e); err != nil {
		return err
	}
	_, err := RunMonotonicity(e)
	return err
}

// RunTable2 prints the dataset statistics (Table 2).
func RunTable2(e *Env) error {
	fmt.Fprintf(e.Cfg.W, "== Table 2: Size and characteristics of the datasets (scale %g) ==\n", e.Cfg.Scale)
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tDBpedia2020\tDBpedia2022\tBio2RDFCT")
	rows := []struct {
		name string
		get  func(stats.Dataset) string
	}{
		{"# of triples", func(d stats.Dataset) string { return human(d.Triples) }},
		{"# of objects", func(d stats.Dataset) string { return human(d.Objects) }},
		{"# of subjects", func(d stats.Dataset) string { return human(d.Subjects) }},
		{"# of literals", func(d stats.Dataset) string { return human(d.Literals) }},
		{"# of instances", func(d stats.Dataset) string { return human(d.Instances) }},
		{"# of classes", func(d stats.Dataset) string { return fmt.Sprint(d.Classes) }},
		{"# of properties", func(d stats.Dataset) string { return fmt.Sprint(d.Properties) }},
		{"Size in MBs", func(d stats.Dataset) string { return fmt.Sprintf("%.1f", float64(d.SizeBytes)/1e6) }},
	}
	cols := make([]stats.Dataset, len(DatasetNames))
	for i, name := range DatasetNames {
		cols[i] = stats.ComputeDataset(e.Graph(name))
	}
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\n", r.name, r.get(cols[0]), r.get(cols[1]), r.get(cols[2]))
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
	return nil
}

// RunTable3 prints the SHACL shape statistics (Table 3).
func RunTable3(e *Env) error {
	fmt.Fprintln(e.Cfg.W, "== Table 3: SHACL shapes statistics ==")
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "\tNS\tPS\tSingle\tMulti\tST-L\tST-NL\tMT-Homo-L\tMT-Homo-NL\tMT-Hetero")
	for _, name := range DatasetNames {
		s := stats.ComputeShapes(e.Shapes(name))
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			name, s.NodeShapes, s.PropertyShapes, s.SingleType, s.MultiType,
			s.SingleTypeLiteral, s.SingleTypeNonLiteral,
			s.MultiTypeHomoLit, s.MultiTypeHomoNonLit, s.MultiTypeHetero)
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
	return nil
}

// Table4Row holds the measured transformation (T) and loading (L) times of
// one method on one dataset. For S3PG, Phases carries the obs span tree of
// the transformation (F_st, mapping, F_dt with its two phases).
type Table4Row struct {
	Dataset   string
	Method    string
	Transform time.Duration
	Load      time.Duration
	HeapBytes uint64
	Phases    *obs.SpanRecord
}

// Sum returns T+L.
func (r Table4Row) Sum() time.Duration { return r.Transform + r.Load }

// RunTable4 measures and prints transformation and loading times (Table 4).
// Loading is the CSV bulk export/import path, mirroring the paper's use of
// Neo4j's CSV importer. NeoSemantics transforms through the store directly,
// so — as in the paper — its T and L cannot be separated and only the sum
// is reported.
func RunTable4(e *Env) ([]Table4Row, error) {
	var out []Table4Row
	for _, name := range DatasetNames {
		g := e.Graph(name)
		sg := e.Shapes(name)

		var s3store *pg.Store
		s3span := measure("S3PG/"+name, func(sp *obs.Span) {
			tr, err := core.TransformWith(context.Background(), g, sg, core.Parsimonious, sp,
				core.TransformOptions{Workers: e.Cfg.Workers})
			if err != nil {
				panic(err)
			}
			s3store = tr.Store()
		})
		lS3 := loadTime(s3store)
		rec := s3span.Record()
		out = append(out, Table4Row{name, "S3PG", s3span.Wall(), lS3, s3span.HeapGrowth(), &rec})

		var rdfStore *pg.Store
		rSpan := measure("rdf2pg/"+name, func(*obs.Span) { rdfStore, _ = rdf2pgx.Transform(g) })
		lR := loadTime(rdfStore)
		out = append(out, Table4Row{name, "rdf2pg", rSpan.Wall(), lR, rSpan.HeapGrowth(), nil})

		nSpan := measure("NeoSem/"+name, func(*obs.Span) { _, _ = neosem.Transform(g) })
		out = append(out, Table4Row{name, "NeoSem", nSpan.Wall(), 0, nSpan.HeapGrowth(), nil})
	}

	fmt.Fprintln(e.Cfg.W, "== Table 4: Transformation (T) and Loading (L) times ==")
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tmethod\tT\tL\tSum\tpeak-heap")
	for _, r := range out {
		tStr, lStr := obs.FormatDuration(r.Transform), obs.FormatDuration(r.Load)
		if r.Method == "NeoSem" {
			tStr, lStr = "-", "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n",
			r.Dataset, r.Method, tStr, lStr, obs.FormatDuration(r.Sum()), obs.FormatBytes(r.HeapBytes))
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W, "\n-- S3PG per-phase breakdown (obs trace) --")
	for _, r := range out {
		if r.Phases != nil {
			if err := r.Phases.WriteTree(e.Cfg.W); err != nil {
				return nil, err
			}
		}
	}
	fmt.Fprintln(e.Cfg.W)
	return out, nil
}

// loadTime measures the CSV export + bulk import round trip.
func loadTime(store *pg.Store) time.Duration {
	sp := measure("load", func(*obs.Span) {
		var nodes, edges bytes.Buffer
		if err := store.WriteCSV(&nodes, &edges); err != nil {
			panic(err)
		}
		if _, err := pg.LoadCSV(&nodes, &edges); err != nil {
			panic(err)
		}
	})
	return sp.Wall()
}

// RunTable5 prints the transformed-graph statistics (Table 5).
func RunTable5(e *Env) error {
	fmt.Fprintln(e.Cfg.W, "== Table 5: Transformed graphs (PG models) stats ==")
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "dataset\tmethod\t# nodes\t# edges\t# rel types")
	for _, name := range DatasetNames {
		s3store, _ := e.S3PG(name)
		for _, m := range []struct {
			name  string
			store *pg.Store
		}{
			{"S3PG", s3store},
			{"NeoSem", e.NeoSem(name)},
			{"rdf2pg", e.RDF2PG(name)},
		} {
			p := stats.ComputePG(m.store)
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\n",
				name, m.name, human(p.Nodes), human(p.Edges), p.RelTypes)
		}
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
	return nil
}

// RunTable6 measures and prints DBpedia2022 query accuracy (Table 6).
func RunTable6(e *Env) ([]QueryAccuracy, error) {
	rows, err := MeasureAccuracy(e, "DBpedia2022", DBpediaQueries())
	if err != nil {
		return nil, err
	}
	printAccuracy(e, "Table 6: Accuracy analysis for DBpedia2022", rows)
	return rows, nil
}

// RunTable7 measures and prints Bio2RDF query accuracy (Table 7).
func RunTable7(e *Env) ([]QueryAccuracy, error) {
	rows, err := MeasureAccuracy(e, "Bio2RDFCT", Bio2RDFQueries())
	if err != nil {
		return nil, err
	}
	printAccuracy(e, "Table 7: Accuracy analysis for Bio2RDF", rows)
	return rows, nil
}

func printAccuracy(e *Env, title string, rows []QueryAccuracy) {
	fmt.Fprintf(e.Cfg.W, "== %s ==\n", title)
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "query\tcategory\t# of GT\tS3PG\tNeoSem\trdf2pg")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%s\t%s\t%s\n",
			r.Query.ID, r.Query.Category, r.GT,
			pct(r.S3PG), pct(r.NeoSem), pct(r.RDF2PG))
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
}

// Fig6Row holds average per-query runtimes for one query.
type Fig6Row struct {
	Query  Query
	SPARQL time.Duration // RDF engine (the paper's GraphDB series)
	S3PG   time.Duration
	NeoSem time.Duration
	RDF2PG time.Duration
}

// RunFig6 measures and prints query runtimes (Figure 6): each query runs
// once warm-up plus reps timed executions per engine; averages per query
// are reported, grouped into the figure's four panels.
func RunFig6(e *Env) ([]Fig6Row, error) {
	const reps = 3
	g := e.Graph("DBpedia2022")
	s3store, _ := e.S3PG("DBpedia2022")
	neoStore := e.NeoSem("DBpedia2022")
	rdfStore := e.RDF2PG("DBpedia2022")

	var out []Fig6Row
	for _, q := range DBpediaQueries() {
		row := Fig6Row{Query: q}

		sq, err := sparql.Parse(q.SPARQL)
		if err != nil {
			return nil, err
		}
		row.SPARQL = avgTime(reps, func() {
			if _, err := sparql.EvalCtx(context.Background(), g, sq); err != nil {
				panic(err)
			}
		})

		cq, err := cypher.Parse(q.Cypher)
		if err != nil {
			return nil, err
		}
		for _, m := range []struct {
			store *pg.Store
			dst   *time.Duration
		}{
			{s3store, &row.S3PG},
			{neoStore, &row.NeoSem},
			{rdfStore, &row.RDF2PG},
		} {
			store := m.store
			*m.dst = avgTime(reps, func() {
				if _, err := cypher.EvalWith(store, cq, cypher.EvalOptions{}); err != nil {
					panic(err)
				}
			})
		}
		out = append(out, row)
	}

	fmt.Fprintln(e.Cfg.W, "== Figure 6: Query runtime analysis on DBpedia2022 (avg ms) ==")
	var last Category
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	for _, r := range out {
		if r.Query.Category != last {
			fmt.Fprintf(tw, "-- %s --\t\t\t\t\n", r.Query.Category)
			fmt.Fprintln(tw, "query\tRDF(SPARQL)\tS3PG\tNeoSem\trdf2pg")
			last = r.Query.Category
		}
		fmt.Fprintf(tw, "%s\t%.2f\t%.2f\t%.2f\t%.2f\n", r.Query.ID,
			ms(r.SPARQL), ms(r.S3PG), ms(r.NeoSem), ms(r.RDF2PG))
	}
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
	return out, nil
}

func avgTime(reps int, fn func()) time.Duration {
	fn() // warm-up
	sp := obs.NewSpan("reps")
	for i := 0; i < reps; i++ {
		fn()
	}
	sp.End()
	return sp.Wall() / time.Duration(reps)
}

// monotonicityRuns is how many timed runs each §5.4 figure is the median of,
// after one untimed warm-up: a single run swings with one GC pause or
// descheduling (6.9–91.9 % saved over 25 single-run reproductions).
const monotonicityRuns = 5

// medianWall returns the median wall time of monotonicityRuns runs of fn,
// each timed by measure after setup (when not nil) has run outside the span,
// following one warm-up run.
func medianWall(name string, setup func(), fn func(*obs.Span)) time.Duration {
	walls := make([]time.Duration, monotonicityRuns+1)
	for i := range walls {
		if setup != nil {
			setup()
		}
		walls[i] = measure(name, fn).Wall()
	}
	walls = walls[1:] // the warm-up
	slices.Sort(walls)
	return walls[len(walls)/2]
}

// MonotonicityResult holds the §5.4 measurements; each duration is a median
// (medianWall).
type MonotonicityResult struct {
	BaseTriples  int
	DeltaTriples int
	// Full from-scratch transformations.
	FullParsimonious    time.Duration // S1, parsimonious
	FullNonParsimonious time.Duration // S1, non-parsimonious
	FullS2Parsimonious  time.Duration // S1 ∪ Δ from scratch
	// Incremental: applying only Δ to the non-parsimonious transformer.
	IncrementalDelta time.Duration
	// SavingsPct is 1 - incremental/full-S2.
	SavingsPct float64
	// Equivalent reports whether the incremental PG decodes to S1 ∪ Δ.
	Equivalent bool
}

// RunMonotonicity reproduces the §5.4 analysis on the DBpedia2022 profile:
// two snapshots whose Δ adds ≈5.2% of the triples, comparing full
// re-transformation against incremental application of Δ.
func RunMonotonicity(e *Env) (*MonotonicityResult, error) {
	p := e.Profile("DBpedia2022")
	s1 := e.Graph("DBpedia2022")
	delta := datagen.Evolve(s1, p, 0.0521, e.Cfg.Seed+1000)
	sg := e.Shapes("DBpedia2022")

	res := &MonotonicityResult{BaseTriples: s1.Len(), DeltaTriples: delta.Len()}
	// S2 is built before the first timed run, so all four timings run on the
	// same live heap.
	s2 := s1.Clone()
	s2.AddAll(delta)

	res.FullParsimonious = medianWall("full.s1.parsimonious", nil, func(sp *obs.Span) {
		if _, err := core.TransformWith(context.Background(), s1, sg, core.Parsimonious, sp, core.TransformOptions{}); err != nil {
			panic(err)
		}
	})
	res.FullNonParsimonious = medianWall("full.s1.nonparsimonious", nil, func(sp *obs.Span) {
		if _, err := core.TransformWith(context.Background(), s1, sg, core.NonParsimonious, sp, core.TransformOptions{}); err != nil {
			panic(err)
		}
	})
	res.FullS2Parsimonious = medianWall("full.s2.parsimonious", nil, func(sp *obs.Span) {
		if _, err := core.TransformWith(context.Background(), s2, sg, core.Parsimonious, sp, core.TransformOptions{}); err != nil {
			panic(err)
		}
	})

	// Incremental: each run transforms S1 afresh, untimed, then applies only Δ.
	var tr *core.Transformer
	res.IncrementalDelta = medianWall("incremental.delta", func() {
		var err error
		if tr, err = core.NewTransformer(sg, core.NonParsimonious); err == nil {
			err = tr.Apply(s1)
		}
		if err != nil {
			panic(err)
		}
	}, func(sp *obs.Span) {
		if err := tr.ApplyParallel(context.Background(), delta, 1, sp); err != nil {
			panic(err)
		}
	})
	res.SavingsPct = 1 - float64(res.IncrementalDelta)/float64(res.FullS2Parsimonious)

	back, err := core.InverseData(tr.Store(), tr.Schema())
	if err != nil {
		return nil, err
	}
	res.Equivalent = s2.Equal(back)

	fmt.Fprintln(e.Cfg.W, "== §5.4 Monotonicity analysis (DBpedia2022 profile) ==")
	tw := tabwriter.NewWriter(e.Cfg.W, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "base snapshot\t%s triples\n", human(res.BaseTriples))
	fmt.Fprintf(tw, "delta (Δ)\t%s triples (%.2f%%)\n", human(res.DeltaTriples),
		100*float64(res.DeltaTriples)/float64(res.BaseTriples))
	fmt.Fprintf(tw, "full transform S1, parsimonious\t%s\n", obs.FormatDuration(res.FullParsimonious))
	fmt.Fprintf(tw, "full transform S1, non-parsimonious\t%s\n", obs.FormatDuration(res.FullNonParsimonious))
	fmt.Fprintf(tw, "full transform S1∪Δ, parsimonious\t%s\n", obs.FormatDuration(res.FullS2Parsimonious))
	fmt.Fprintf(tw, "incremental Δ only, non-parsimonious\t%s\n", obs.FormatDuration(res.IncrementalDelta))
	fmt.Fprintf(tw, "time saved vs full recomputation\t%.1f%%\n", 100*res.SavingsPct)
	fmt.Fprintf(tw, "incremental PG ≅ F(S1∪Δ)\t%v\n", res.Equivalent)
	tw.Flush()
	fmt.Fprintln(e.Cfg.W)
	return res, nil
}

// Formatting helpers.

func human(n int) string {
	switch {
	case n >= 1_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.0fK", float64(n)/1e3)
	default:
		return fmt.Sprint(n)
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func pct(f float64) string {
	if f == 1 {
		return "100%"
	}
	return fmt.Sprintf("%.2f%%", 100*f)
}
