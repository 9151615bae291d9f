package exp

import (
	"context"
	"fmt"

	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/sparql"
)

// Accuracy is the §5.2 metric: the fraction of ground-truth answer rows
// (a multiset, under the tr(µ) value conversion of Definition 3.2) that the
// method's answers contain.
func Accuracy(groundTruth, got []string) float64 {
	if len(groundTruth) == 0 {
		if len(got) == 0 {
			return 1
		}
		return 0
	}
	counts := make(map[string]int, len(got))
	for _, row := range got {
		counts[row]++
	}
	hit := 0
	for _, row := range groundTruth {
		if counts[row] > 0 {
			counts[row]--
			hit++
		}
	}
	return float64(hit) / float64(len(groundTruth))
}

// GroundTruth evaluates the query's SPARQL form over the RDF graph and
// returns the canonical answer multiset.
func GroundTruth(g *rdf.Graph, q Query) ([]string, error) {
	parsed, err := sparql.Parse(q.SPARQL)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	res, err := sparql.EvalCtx(context.Background(), g, parsed)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	return res.Canonical(), nil
}

// PGAnswers evaluates the query's Cypher form over a property graph and
// returns the canonical answer multiset.
func PGAnswers(store *pg.Store, q Query) ([]string, error) {
	parsed, err := cypher.Parse(q.Cypher)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	res, err := cypher.EvalWith(store, parsed, cypher.EvalOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	return res.Canonical(), nil
}

// QueryAccuracy is one row of Table 6/7.
type QueryAccuracy struct {
	Query  Query
	GT     int
	S3PG   float64
	NeoSem float64
	RDF2PG float64
}

// MeasureAccuracy runs the full workload over the RDF ground truth and the
// three transformed graphs.
func MeasureAccuracy(e *Env, dataset string, queries []Query) ([]QueryAccuracy, error) {
	g := e.Graph(dataset)
	s3pgStore, _ := e.S3PG(dataset)
	neoStore := e.NeoSem(dataset)
	rdfStore := e.RDF2PG(dataset)

	var out []QueryAccuracy
	for _, q := range queries {
		gt, err := GroundTruth(g, q)
		if err != nil {
			return nil, err
		}
		row := QueryAccuracy{Query: q, GT: len(gt)}
		for _, m := range []struct {
			store *pg.Store
			dst   *float64
		}{
			{s3pgStore, &row.S3PG},
			{neoStore, &row.NeoSem},
			{rdfStore, &row.RDF2PG},
		} {
			got, err := PGAnswers(m.store, q)
			if err != nil {
				return nil, err
			}
			*m.dst = Accuracy(gt, got)
		}
		out = append(out, row)
	}
	return out, nil
}
