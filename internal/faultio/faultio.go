// Package faultio provides deterministic, seed-driven fault injection for
// io.Writer pipelines and the filesystem operations behind atomic output
// commits, a retry helper with capped exponential backoff and jitter for
// transient sink errors, and the one retrying atomic commit (Commit) every
// durable output of both binaries takes.
//
// Every injected fault is a pure function of the Plan (seed and thresholds)
// and the byte/operation position at which it fires, so a failing run can be
// replayed exactly: the crash-safety tests use this to fail commits at byte
// K, at every filesystem operation, and under short writes, and to assert
// that the recovery path always produces either a complete output or none.
package faultio

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
)

// ErrTransient marks an injected error that models a recoverable condition
// (EAGAIN-style): callers wrapping sinks in Retry are expected to succeed on
// a later attempt.
var ErrTransient = errors.New("faultio: transient error")

// ErrInjected marks an injected hard failure (disk fault, truncation): the
// operation will not succeed no matter how often it is retried.
var ErrInjected = errors.New("faultio: injected fault")

// Transient reports whether err models a recoverable condition worth
// retrying: it unwraps to ErrTransient, or implements `Transient() bool`
// (the shape used by net.Error-style temporary conditions).
func Transient(err error) bool {
	if errors.Is(err, ErrTransient) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// Plan describes the fault schedule of one wrapped reader or writer. The
// zero Plan injects nothing and adds no overhead beyond a method call.
type Plan struct {
	// Seed drives the deterministic pseudo-random choices (short read/write
	// lengths). Two wrappers with equal plans inject identical faults.
	Seed int64

	// ShortEvery truncates every n-th operation to roughly half its length
	// (at least one byte), exercising io.Writer's partial-write contract and
	// io.Reader's partial-read contract. 0 disables.
	ShortEvery int

	// TransientEvery makes every n-th operation fail with ErrTransient
	// without consuming any bytes. 0 disables. Transient faults fire before
	// short ones when both are scheduled for the same operation.
	TransientEvery int

	// FailAtByte injects a hard ErrInjected failure once the cumulative
	// byte count reaches this offset: the operation covering the offset
	// processes the bytes before it and then fails. Negative disables.
	FailAtByte int64

	// FailErr overrides the error returned for the FailAtByte hard fault
	// (ErrInjected when nil). It is returned wrapped, so errors.Is against
	// both FailErr and ErrInjected succeeds only for the chosen error.
	FailErr error
}

// enabled reports whether the plan injects anything at all.
func (p Plan) enabled() bool {
	return p.ShortEvery > 0 || p.TransientEvery > 0 || p.FailAtByte >= 0
}

// state is the shared bookkeeping of one wrapped stream.
type state struct {
	plan Plan
	rng  *rand.Rand
	ops  int64 // operations attempted
	off  int64 // cumulative bytes successfully transferred
	dead bool  // a hard fault fired; all further operations fail
}

func newState(plan Plan) *state {
	if plan.FailAtByte == 0 {
		// The zero Plan must be inert; treat 0 as "disabled" and require
		// callers to use FailAtByte >= 1 (fail before the first byte is
		// modelled by TransientEvery/FailAtByte=1 instead).
		plan.FailAtByte = -1
	}
	return &state{plan: plan, rng: rand.New(rand.NewSource(plan.Seed))}
}

// hardErr builds the hard-fault error for this plan.
func (s *state) hardErr(op string) error {
	s.dead = true
	if s.plan.FailErr != nil {
		return fmt.Errorf("faultio: %s at byte %d: %w", op, s.off, s.plan.FailErr)
	}
	return fmt.Errorf("%w: %s at byte %d", ErrInjected, op, s.off)
}

// begin applies the per-operation schedule to a request of n bytes and
// returns how many bytes the operation may transfer, or an error to fail
// with immediately. limit == n means the operation runs unimpeded.
func (s *state) begin(op string, n int) (limit int, err error) {
	if s.dead {
		return 0, s.hardErr(op)
	}
	s.ops++
	if te := s.plan.TransientEvery; te > 0 && s.ops%int64(te) == 0 {
		return 0, fmt.Errorf("%w: %s at byte %d", ErrTransient, op, s.off)
	}
	limit = n
	if se := s.plan.ShortEvery; se > 0 && s.ops%int64(se) == 0 && n > 1 {
		// Deterministic short operation: between 1 and n/2 bytes.
		limit = 1 + s.rng.Intn(n/2)
	}
	if fa := s.plan.FailAtByte; fa >= 0 {
		if s.off >= fa {
			return 0, s.hardErr(op)
		}
		if remaining := fa - s.off; int64(limit) > remaining {
			limit = int(remaining)
		}
	}
	return limit, nil
}

// Writer wraps an io.Writer with the plan's fault schedule.
type Writer struct {
	w io.Writer
	s *state
}

// NewWriter returns a fault-injecting writer over w.
func NewWriter(w io.Writer, plan Plan) *Writer {
	return &Writer{w: w, s: newState(plan)}
}

// Write implements io.Writer. Short writes return n < len(p) with a nil
// error from the underlying writer's perspective but — per the io.Writer
// contract — must return an error; io.ErrShortWrite (wrapped as transient)
// is used so callers retrying via Retry make progress.
func (f *Writer) Write(p []byte) (int, error) {
	if !f.s.plan.enabled() {
		return f.w.Write(p)
	}
	limit, err := f.s.begin("write", len(p))
	if err != nil {
		return 0, err
	}
	if limit == 0 && len(p) > 0 {
		return 0, f.s.hardErr("write")
	}
	n, err := f.w.Write(p[:limit])
	f.s.off += int64(n)
	if err == nil && n < len(p) {
		return n, fmt.Errorf("%w: %w", ErrTransient, io.ErrShortWrite)
	}
	return n, err
}
