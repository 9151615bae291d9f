package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/obs"
)

// ErrBreakerOpen is returned by guarded commits while the filesystem circuit
// breaker is open: the storage layer has failed repeatedly and further
// attempts are shed instead of queued behind doomed retries.
var ErrBreakerOpen = errors.New("jobs: commit circuit breaker open")

var (
	cBreakerTrips = obs.Default.Counter("jobs.breaker.trips")
	cBreakerShed  = obs.Default.Counter("jobs.breaker.shed")
	gBreakerState = obs.Default.Gauge("jobs.breaker.open") // 0 closed, 1 open/half-open
)

// breakerState is the classic three-state machine.
type breakerState int

const (
	breakerClosed breakerState = iota
	breakerOpen
	breakerHalfOpen
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breaker is a circuit breaker guarding filesystem commits. Each commit
// already retries transient faults with backoff (faultio.Retry); the breaker
// sits around those retried operations and counts *exhausted* operations —
// when Threshold consecutive commits fail, the breaker opens and every
// further commit fails fast with ErrBreakerOpen until Cooldown has elapsed,
// at which point a single trial commit is admitted (half-open): its success
// closes the breaker, its failure re-opens it for another cooldown.
//
// The point is admission control, not durability: while the breaker is open
// the server reports not-ready and sheds new work, instead of stacking every
// worker behind a storage layer that is failing anyway.
type Breaker struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time

	mu       sync.Mutex
	state    breakerState
	failures int
	openedAt time.Time
	trial    bool // a half-open trial is in flight
}

// NewBreaker returns a closed breaker that opens after threshold consecutive
// failures and re-probes after cooldown.
func NewBreaker(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown, now: time.Now}
}

// Allow reports whether a commit may proceed: nil when the breaker is closed
// or a half-open trial slot is free, ErrBreakerOpen otherwise.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			cBreakerShed.Inc()
			return ErrBreakerOpen
		}
		b.state = breakerHalfOpen
		b.trial = true
		return nil
	default: // half-open
		if b.trial {
			cBreakerShed.Inc()
			return fmt.Errorf("%w (half-open trial in flight)", ErrBreakerOpen)
		}
		b.trial = true
		return nil
	}
}

// Record feeds the outcome of an admitted commit back into the breaker.
// Context cancellations are not storage failures and must not be recorded —
// including a drain's cause-carrying cancellation (ErrDraining), which
// faultio.Retry surfaces instead of context.Canceled.
func (b *Breaker) Record(err error) {
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrDraining)) {
		b.mu.Lock()
		b.trial = false // a cancelled trial neither closes nor re-opens
		b.mu.Unlock()
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if err == nil {
		b.state = breakerClosed
		b.failures = 0
		b.trial = false
		gBreakerState.Set(0)
		return
	}
	b.trial = false
	b.failures++
	if b.state == breakerHalfOpen || b.failures >= b.threshold {
		if b.state != breakerOpen {
			cBreakerTrips.Inc()
		}
		b.state = breakerOpen
		b.openedAt = b.now()
		gBreakerState.Set(1)
	}
}

// CooldownRemaining returns how long an open breaker will keep shedding
// before it admits its half-open trial commit — the honest Retry-After hint
// for a 503 caused by ErrBreakerOpen. Zero while closed or half-open.
func (b *Breaker) CooldownRemaining() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != breakerOpen {
		return 0
	}
	rem := b.cooldown - b.now().Sub(b.openedAt)
	if rem < 0 {
		rem = 0
	}
	return rem
}

// State returns "closed", "open", or "half-open" for /readyz and /metrics.
func (b *Breaker) State() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state.String()
}
