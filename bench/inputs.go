package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/exp"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// dataset is one generated input: the program under test only ever sees
// the N-Triples and Turtle renderings, never the in-memory graph.
type dataset struct {
	Profile *datagen.Profile
	Graph   *rdf.Graph
	Shapes  string // SHACL shapes, Turtle
}

// generate makes the workload's dataset from the seed: same seed, same
// bytes. Shapes are extracted from the data (QSE-style), as kggen does.
func generate(sz sizes, seed int64) (*dataset, error) {
	p := datagen.Profiles()[sz.Profile]
	if p == nil {
		return nil, fmt.Errorf("unknown datagen profile %q", sz.Profile)
	}
	g := datagen.Generate(p, sz.Scale, seed)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.02})
	var ttl strings.Builder
	tw := rio.NewTurtleWriter()
	tw.Prefix("d", p.NS)
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(&ttl, shacl.ToGraph(shapes)); err != nil {
		return nil, err
	}
	return &dataset{Profile: p, Graph: g, Shapes: ttl.String()}, nil
}

// writeFiles renders the dataset into dir and returns the two paths and
// the N-Triples size.
func (d *dataset) writeFiles(dir string) (dataPath, shapesPath string, ntBytes int64, err error) {
	dataPath = filepath.Join(dir, "data.nt")
	shapesPath = filepath.Join(dir, "shapes.ttl")
	f, err := os.Create(dataPath)
	if err != nil {
		return "", "", 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err = rio.WriteNTriples(bw, d.Graph); err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", "", 0, err
	}
	st, err := os.Stat(dataPath)
	if err != nil {
		return "", "", 0, err
	}
	return dataPath, shapesPath, st.Size(), os.WriteFile(shapesPath, []byte(d.Shapes), 0o644)
}

// ntString renders the graph as one N-Triples document (request bodies).
func (d *dataset) ntString() (string, error) {
	var b bytes.Buffer
	if err := rio.WriteNTriples(&b, d.Graph); err != nil {
		return "", err
	}
	return b.String(), nil
}

// queryCase is one request of qmix. Pair ties the SPARQL and the Cypher
// formulation of the same paper query together: their answer sets must
// agree (Table 6: accuracy 1).
type queryCase struct {
	Name string
	Pair string
	Req  server.QueryRequest
}

// qmix is the fixed query mix: both formulations of DBpedia Q1
// (single-type retrieval), Q4 (numeric filter), Q5 (two-hop join), Q11
// (multi-type non-literal) and Q16 (heterogeneous), plus a Cypher $iri
// point lookup, a SPARQL bound-subject lookup, a SPARQL ORDER BY with
// LIMIT/OFFSET and a Cypher count(*): 14 requests, half per language, so
// one store serves both the RDF and the PG view in the same run.
func qmix(d *dataset, seed int64) []queryCase {
	want := map[string]bool{"Q1": true, "Q4": true, "Q5": true, "Q11": true, "Q16": true}
	var cases []queryCase
	for _, q := range exp.DBpediaQueries() {
		if !want[q.ID] {
			continue
		}
		cases = append(cases,
			queryCase{Name: q.ID + "/sparql", Pair: q.ID, Req: server.QueryRequest{Lang: "sparql", Query: q.SPARQL}},
			queryCase{Name: q.ID + "/cypher", Pair: q.ID, Req: server.QueryRequest{Lang: "cypher", Query: q.Cypher}},
		)
	}
	ns := d.Profile.NS
	persons := d.Graph.InstancesOf(rdf.NewIRI(ns + "Person"))
	subject := persons[rand.New(rand.NewSource(seed)).Intn(len(persons))].Value
	cases = append(cases,
		queryCase{Name: "lookup/cypher", Req: server.QueryRequest{Lang: "cypher",
			Query: `MATCH (n) WHERE n.iri = $iri RETURN n.iri AS iri`, Params: map[string]any{"iri": subject}}},
		queryCase{Name: "lookup/sparql", Req: server.QueryRequest{Lang: "sparql",
			Query: fmt.Sprintf("SELECT ?p ?o WHERE { <%s> ?p ?o }", subject)}},
		queryCase{Name: "page/sparql", Req: server.QueryRequest{Lang: "sparql",
			Query: fmt.Sprintf("PREFIX d: <%s>\nSELECT ?e ?v WHERE { ?e a d:Place ; d:name ?v } ORDER BY ?v ?e LIMIT 10 OFFSET 5", ns)}},
		queryCase{Name: "count/cypher", Req: server.QueryRequest{Lang: "cypher",
			Query: `MATCH (n:Person) RETURN count(*) AS n`}},
	)
	return cases
}

// scriptStep is one cycle's update: the typed delta (for the plain-graph
// oracle) and the SPARQL Update request a client sends for it.
type scriptStep struct {
	Churn bool
	Delta *rdf.Delta
	Body  string
}

// updateScript pre-generates the live_mixed write script against a scratch
// copy of the base graph, so every batch is valid for the state its
// predecessors leave. Between two churn batches one datagen.Evolve delta is
// cut into equal grow-only batches; every ChurnEvery-th cycle is a
// datagen.EvolveChurn batch with deletes and literal mutations (rebuild
// path).
//
// Grow batches carry no rdf:type statement (that keeps them on the monotone
// fast path), and no batch may leave an entity untyped: the transform gives
// untyped entities a label-less node type that pgschema.WriteDDL emits as
// `CREATE NODE TYPE (anonType:  {})` and pgschema.ParseDDL rejects, which
// would fail the round-trip oracle on every run. So grow batches only
// extend entities that are typed already, and churn batches delete no
// rdf:type statement.
func updateScript(d *dataset, sz sizes, seed int64) []scriptStep {
	scratch := d.Graph.Clone()
	typed := func(t rdf.Term) bool {
		return !t.IsIRI() || !strings.HasPrefix(t.Value, d.Profile.NS) || scratch.MatchCount(&t, &rdf.A, nil) > 0
	}
	apply := func(dl *rdf.Delta) {
		for _, t := range dl.Deletes {
			scratch.Remove(t)
		}
		for _, t := range dl.Inserts {
			scratch.Add(t)
		}
	}
	growPerRound := sz.ChurnEvery - 1
	var steps []scriptStep
	for round := 0; len(steps) < sz.MaxCycles; round++ {
		var grown []rdf.Triple
		datagen.Evolve(scratch, d.Profile, sz.GrowFrac*float64(growPerRound), seed*7919+int64(2*round)).ForEach(func(t rdf.Triple) bool {
			if t.P != rdf.A && typed(t.S) && typed(t.O) {
				grown = append(grown, t)
			}
			return true
		})
		per := (len(grown) + growPerRound - 1) / growPerRound
		for i := 0; i < growPerRound && len(steps) < sz.MaxCycles; i++ {
			lo, hi := i*per, (i+1)*per
			if hi > len(grown) {
				hi = len(grown)
			}
			if lo >= hi {
				break
			}
			dl := &rdf.Delta{Inserts: grown[lo:hi]}
			apply(dl)
			steps = append(steps, scriptStep{Delta: dl, Body: sparqlUpdate(dl)})
		}
		if len(steps) >= sz.MaxCycles {
			break
		}
		dl := datagen.EvolveChurn(scratch, d.Profile,
			datagen.Churn{AddFrac: sz.Churn[0], DeleteFrac: sz.Churn[1], MutateFrac: sz.Churn[2]},
			seed*7919+int64(2*round+1))
		kept := dl.Deletes[:0]
		for _, t := range dl.Deletes {
			if t.P != rdf.A {
				kept = append(kept, t)
			}
		}
		dl.Deletes = kept
		apply(dl)
		steps = append(steps, scriptStep{Churn: true, Delta: dl, Body: sparqlUpdate(dl)})
	}
	return steps
}

// sparqlUpdate renders a typed delta as the SPARQL Update request a client
// would send (Triple.String emits N-Triples statements, which the data
// blocks accept).
func sparqlUpdate(d *rdf.Delta) string {
	var b strings.Builder
	if len(d.Deletes) > 0 {
		b.WriteString("DELETE DATA {\n")
		for _, t := range d.Deletes {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	if len(d.Inserts) > 0 {
		if b.Len() > 0 {
			b.WriteString(" ;\n")
		}
		b.WriteString("INSERT DATA {\n")
		for _, t := range d.Inserts {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		b.WriteString("}")
	}
	return b.String()
}
