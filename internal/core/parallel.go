package core

import (
	"context"
	"sync"

	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
)

// cParallelApplies counts data transforms that took the parallel path.
var cParallelApplies = obs.Default.Counter("core.transform.parallel_applies")

// ApplyParallel is Apply with cancellation, tracing and literal parsing
// spread over workers goroutines. ctx is checked every ctxCheckInterval
// triples of each phase, and its end aborts the call with ctx.Err(), leaving
// the store consistent if partial. Algorithm 1's two phases (and the deferred
// RDF-star annotation pass) become child spans of span with per-phase element
// counts; a nil span traces nothing, and the Default-registry transform
// meters are always fed. workers > 1 hoists the one order-independent piece
// of per-statement work onto goroutines: one xsd parse per unique literal
// term, filled into a per-term table before the statements are routed.
// Routing itself is the same sequential pass over the graph's admission
// order (apply), so the resulting transformer state — store, schema,
// mappings, degradations, tallies — is identical, including across
// incremental calls. workers <= 1 fills nothing in advance and parses
// literals as statements need them.
func (t *Transformer) ApplyParallel(ctx context.Context, g *rdf.Graph, workers int, span *obs.Span) error {
	g = t.home(g)
	if workers <= 1 {
		return t.apply(ctx, g, 0, nil, span)
	}
	cParallelApplies.Inc()

	// Workers write disjoint slots of a pre-sized table, so no
	// synchronization is needed, and parsing observes no transformer state,
	// so its order cannot matter.
	pre := span.StartSpan("parallel.precompute")
	dict := g.Dict()
	nTerms := dict.Len()
	lits := make([]litVal, nTerms)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := nTerms*w/workers, nTerms*(w+1)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for id := lo; id < hi; id++ {
				if (id-lo)%ctxCheckInterval == 0 && ctx.Err() != nil {
					return
				}
				tm := dict.Term(rdf.TermID(id))
				if tm.IsLiteral() {
					native, canonical := nativeValue(tm.Value, tm.DatatypeIRI())
					lits[id] = litVal{native: native, canonical: canonical}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
	pre.Count("terms", int64(nTerms))
	pre.End()
	if err := ctx.Err(); err != nil {
		return err
	}
	return t.apply(ctx, g, 0, lits, span)
}
