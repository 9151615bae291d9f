package serve

import (
	"context"
	"errors"
	"sync/atomic"

	"github.com/s3pg/s3pg/internal/obs"
)

// ErrBusy reports that both the concurrency slots and the wait queue are
// full; the HTTP layer maps it to 429 with Retry-After, the same admission
// contract the job queue uses.
var ErrBusy = errors.New("serve: too many queries in flight")

var cGateRejects = obs.Default.Counter("serve.query.rejects")

// Gate is the query admission controller: a fixed number of execution
// slots plus a bounded wait queue. Acquire beyond both bounds fails fast
// with ErrBusy instead of stacking goroutines.
type Gate struct {
	slots    chan struct{}
	maxQueue int32
	waiting  atomic.Int32
}

// NewGate admits up to maxConcurrent queries at once with up to maxQueue
// callers waiting behind them.
func NewGate(maxConcurrent, maxQueue int) *Gate {
	if maxConcurrent < 1 {
		maxConcurrent = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &Gate{slots: make(chan struct{}, maxConcurrent), maxQueue: int32(maxQueue)}
}

// Acquire takes a slot, waiting in the bounded queue if necessary. The
// caller must Release after the query finishes.
func (g *Gate) Acquire(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.waiting.Add(1) > g.maxQueue {
		g.waiting.Add(-1)
		cGateRejects.Inc()
		return ErrBusy
	}
	defer g.waiting.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Release frees a slot taken by Acquire.
func (g *Gate) Release() { <-g.slots }
