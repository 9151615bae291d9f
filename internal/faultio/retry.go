package faultio

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/obs"
)

// Retry observability counters (obs.Default registry): attempts beyond the
// first, and operations abandoned after exhausting the budget.
var (
	cRetryAttempts = obs.Default.Counter("faultio.retry.attempts")
	cRetryGiveups  = obs.Default.Counter("faultio.retry.giveups")
)

// RetryPolicy bounds a capped exponential backoff with proportional jitter.
// The zero value is usable and resolves to DefaultRetryPolicy's fields.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries (first call included).
	// Zero means DefaultRetryPolicy.MaxAttempts; 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the wait before the first retry; each further retry
	// doubles it until MaxDelay caps the growth.
	BaseDelay time.Duration
	// MaxDelay caps the per-retry backoff (before jitter).
	MaxDelay time.Duration
	// Jitter is the fraction of the delay randomized around it: a delay d
	// becomes d * (1 - Jitter/2 + Jitter*u) for uniform u in [0,1). Zero
	// means no jitter.
	Jitter float64
	// Seed drives the jitter PRNG, making schedules reproducible. The zero
	// seed is a valid fixed seed.
	Seed int64
	// Sleep replaces time.Sleep, letting tests run the schedule against a
	// deterministic clock. Nil means time.Sleep (interruptible via ctx).
	Sleep func(time.Duration)
	// OnRetry, when non-nil, is invoked each time a transient failure is
	// scheduled for another attempt, before the backoff sleep: attempt is
	// the 1-based number of the try that just failed and err its error.
	// Callers use it to log or count per-operation retry storms instead of
	// relying on the global faultio.retry.attempts counter alone.
	OnRetry func(attempt int, err error)
}

// DefaultRetryPolicy is the policy used when fields are left zero: five
// attempts starting at 10ms, doubling to a 500ms cap, with 50% jitter.
var DefaultRetryPolicy = RetryPolicy{
	MaxAttempts: 5,
	BaseDelay:   10 * time.Millisecond,
	MaxDelay:    500 * time.Millisecond,
	Jitter:      0.5,
}

// resolve fills zero fields from DefaultRetryPolicy.
func (p RetryPolicy) resolve() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultRetryPolicy.MaxAttempts
	}
	if p.BaseDelay == 0 {
		p.BaseDelay = DefaultRetryPolicy.BaseDelay
	}
	if p.MaxDelay == 0 {
		p.MaxDelay = DefaultRetryPolicy.MaxDelay
	}
	return p
}

// Retry runs fn until it succeeds, returns a non-transient error, the
// attempt budget is exhausted, or ctx ends. Only errors for which
// Transient reports true are retried; anything else is returned as-is so
// hard faults surface immediately.
//
// Cancellation is honored between attempts and during every backoff sleep,
// custom Sleep implementations included: a canceled context makes Retry
// return promptly with context.Cause(ctx), so a drain (whose cancellation
// carries its own cause) is never held hostage by a backoff schedule.
func Retry(ctx context.Context, p RetryPolicy, fn func() error) error {
	p = p.resolve()
	var rng *rand.Rand // made at the first retry: an attempt that succeeds allocates nothing
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		err = fn()
		if err == nil || !Transient(err) {
			return err
		}
		if attempt >= p.MaxAttempts {
			cRetryGiveups.Inc()
			return fmt.Errorf("faultio: giving up after %d attempts: %w", attempt, err)
		}
		cRetryAttempts.Inc()
		if p.OnRetry != nil {
			p.OnRetry(attempt, err)
		}
		d := delay
		if p.Jitter > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(p.Seed))
			}
			d = time.Duration(float64(d) * (1 - p.Jitter/2 + p.Jitter*rng.Float64()))
		}
		if err := sleepInterruptible(ctx, p.Sleep, d); err != nil {
			return err
		}
		if delay *= 2; delay > p.MaxDelay {
			delay = p.MaxDelay
		}
	}
}

// sleepInterruptible waits d using sleep (time.Sleep when nil), returning
// early with the cancellation cause if ctx ends first. A custom sleeper runs
// on its own goroutine so even a deterministic test clock cannot block a
// cancellation from being observed.
func sleepInterruptible(ctx context.Context, sleep func(time.Duration), d time.Duration) error {
	if sleep == nil {
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-t.C:
			return nil
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sleep(d)
	}()
	select {
	case <-ctx.Done():
		return context.Cause(ctx)
	case <-done:
		return nil
	}
}

// Commit writes path atomically through fsys (ckpt.WriteFileAtomicFS, mode
// 0644), retrying transient faults under p: the one commit every durable
// output takes, from the CLI's files to a job's and a live graph's. Each
// retry rewrites the file from scratch, so fn must be repeatable. Hard
// failures return at once with path untouched.
func Commit(ctx context.Context, fsys ckpt.FS, p RetryPolicy, path string, fn func(io.Writer) error) error {
	return Retry(ctx, p, func() error {
		return ckpt.WriteFileAtomicFS(fsys, path, 0o644, fn)
	})
}
