package serve

import (
	"errors"
	"fmt"
	"math"

	"context"

	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/sparql"
)

// ErrBadQuery wraps parse and validation failures; the HTTP layer maps it
// to 400.
var ErrBadQuery = errors.New("serve: bad query")

// Request is one query against a snapshot.
type Request struct {
	// Lang selects the engine: "cypher" runs over the transformed property
	// graph, "sparql" over the source RDF graph.
	Lang  string
	Query string
	// Params supplies Cypher $name parameters (decoded JSON values).
	Params map[string]any
	// MaxRows caps the answer; 0 means unlimited.
	MaxRows int
}

// Response is the answer to a Request: the envelope fields and the engine's
// typed answer, which AppendJSON writes to the wire without materializing
// it. The HTTP layer fills in Graph or Job and Cache.
type Response struct {
	Graph     string
	Job       string
	Lang      string
	LSN       uint64
	Cache     string
	Columns   []string
	Truncated bool

	// Exactly one is set: property values for Cypher, terms — serialized in
	// their canonical string form tr(µ) — for SPARQL.
	cypher *cypher.Answer
	sparql *sparql.Answer
}

// Len returns the number of answer rows.
func (r *Response) Len() int {
	if r.cypher != nil {
		return r.cypher.Len()
	}
	return r.sparql.Len()
}

// Rows materializes the answer as the values AppendJSON writes: property
// values for Cypher, canonical term strings for SPARQL. It is for callers
// that inspect an answer in process; the serving path never builds it.
func (r *Response) Rows() [][]any {
	rows := make([][]any, r.Len())
	for i := range rows {
		rows[i] = make([]any, len(r.Columns))
		for j := range rows[i] {
			if r.cypher != nil {
				rows[i][j] = r.cypher.Row(i)[j]
			} else {
				rows[i][j] = sparql.CanonicalTerm(r.sparql.Term(i, j))
			}
		}
	}
	return rows
}

// Execute runs one query against an immutable snapshot. The ctx deadline is
// enforced cooperatively inside both engines; MaxRows caps the answer, sets
// Truncated, and — where the query needs no sort, DISTINCT or aggregate —
// stops the evaluation one row past the cap.
func Execute(ctx context.Context, snap *Snapshot, req Request) (*Response, error) {
	resp := &Response{Lang: req.Lang, LSN: snap.LSN}
	var err error
	switch req.Lang {
	case "cypher":
		q, perr := cypher.Parse(req.Query)
		if perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, perr)
		}
		params, perr := convertParams(req.Params)
		if perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, perr)
		}
		if resp.cypher, err = cypher.Run(snap.Store, q, cypher.EvalOptions{Ctx: ctx, Params: params}, req.MaxRows); err == nil {
			resp.Columns, resp.Truncated = resp.cypher.Cols, resp.cypher.Truncated
		}
	case "sparql":
		q, perr := sparql.Parse(req.Query)
		if perr != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, perr)
		}
		if resp.sparql, err = sparql.Run(ctx, snap.Graph, q, req.MaxRows); err == nil {
			resp.Columns, resp.Truncated = resp.sparql.Vars, resp.sparql.Truncated
		}
	default:
		return nil, fmt.Errorf("%w: unknown language %q (want cypher or sparql)", ErrBadQuery, req.Lang)
	}
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	return resp, nil
}

// convertParams maps decoded JSON values onto property graph values.
// Integral float64 values become int64 so that JSON-supplied numbers
// compare equal to integer properties.
func convertParams(in map[string]any) (map[string]pg.Value, error) {
	if len(in) == 0 {
		return nil, nil
	}
	out := make(map[string]pg.Value, len(in))
	for k, v := range in {
		switch x := v.(type) {
		case nil:
			out[k] = nil
		case string, bool, int64:
			out[k] = x
		case float64:
			if x == math.Trunc(x) && math.Abs(x) < 1e15 {
				out[k] = int64(x)
			} else {
				out[k] = x
			}
		default:
			return nil, fmt.Errorf("parameter %q has unsupported type %T", k, v)
		}
	}
	return out, nil
}

// ObserveQuery records one served query in the labeled latency histograms:
// serve.query.seconds{lang,cache}. The caller supplies the cache state
// ("hit", "miss", or "live" for live-graph snapshots).
func ObserveQuery(lang, cache string, seconds float64) {
	obs.Default.Histogram(obs.LabeledName("serve.query.seconds", "lang", lang, "cache", cache)).Observe(seconds)
}
