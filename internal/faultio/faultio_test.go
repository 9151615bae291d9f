package faultio

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
)

func TestZeroPlanIsInert(t *testing.T) {
	src := strings.Repeat("abc", 1000)
	r := NewReader(strings.NewReader(src), Plan{})
	got, err := io.ReadAll(r)
	if err != nil || string(got) != src {
		t.Fatalf("zero-plan read: err=%v, %d bytes", err, len(got))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf, Plan{})
	if _, err := io.WriteString(w, src); err != nil {
		t.Fatalf("zero-plan write: %v", err)
	}
	if buf.String() != src {
		t.Fatal("zero-plan write altered data")
	}
}

func TestReaderFailAtByte(t *testing.T) {
	src := strings.Repeat("x", 100)
	r := NewReader(strings.NewReader(src), Plan{FailAtByte: 37})
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
	if len(got) != 37 {
		t.Fatalf("want exactly 37 bytes before the fault, got %d", len(got))
	}
	// The fault is sticky: later reads keep failing.
	if _, err := r.Read(make([]byte, 1)); !errors.Is(err, ErrInjected) {
		t.Fatalf("fault not sticky: %v", err)
	}
}

func TestReaderShortAndTransientDeterministic(t *testing.T) {
	src := strings.Repeat("y", 4096)
	read := func() (int, []int, error) {
		r := NewReader(strings.NewReader(src), Plan{Seed: 7, ShortEvery: 2, TransientEvery: 5})
		var sizes []int
		total := 0
		buf := make([]byte, 256)
		for total < len(src) {
			n, err := r.Read(buf)
			total += n
			sizes = append(sizes, n)
			if err != nil {
				if Transient(err) {
					continue
				}
				return total, sizes, err
			}
		}
		return total, sizes, nil
	}
	t1, s1, err1 := read()
	t2, s2, err2 := read()
	if err1 != nil || err2 != nil {
		t.Fatalf("unexpected errors: %v %v", err1, err2)
	}
	if t1 != len(src) || t2 != len(src) {
		t.Fatalf("lost data: %d/%d of %d", t1, t2, len(src))
	}
	if len(s1) != len(s2) {
		t.Fatalf("schedule not deterministic: %d vs %d ops", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("op %d: %d vs %d bytes", i, s1[i], s2[i])
		}
	}
}

func TestWriterShortWriteReturnsTransient(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, Plan{Seed: 1, ShortEvery: 1})
	n, err := w.Write([]byte("hello world"))
	if !Transient(err) || !errors.Is(err, io.ErrShortWrite) {
		t.Fatalf("want transient short write, got n=%d err=%v", n, err)
	}
	if n >= 11 || n < 1 {
		t.Fatalf("short write wrote %d of 11", n)
	}
	if buf.Len() != n {
		t.Fatalf("underlying writer got %d bytes, reported %d", buf.Len(), n)
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(ErrInjected) {
		t.Fatal("hard faults must not be transient")
	}
	if !Transient(ErrTransient) {
		t.Fatal("ErrTransient must be transient")
	}
	if Transient(nil) {
		t.Fatal("nil is not transient")
	}
}

func TestRetryRecoversTransient(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		MaxAttempts: 5, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 40 * time.Millisecond, Jitter: 0,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	calls := 0
	err := Retry(context.Background(), p, func() error {
		calls++
		if calls < 4 {
			return ErrTransient
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retry failed: %v", err)
	}
	if calls != 4 {
		t.Fatalf("want 4 calls, got %d", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("want %d sleeps, got %v", len(want), slept)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("sleep %d: want %v, got %v (capped exponential backoff)", i, want[i], slept[i])
		}
	}
}

func TestRetryBackoffCap(t *testing.T) {
	var slept []time.Duration
	p := RetryPolicy{
		MaxAttempts: 6, BaseDelay: 10 * time.Millisecond,
		MaxDelay: 25 * time.Millisecond, Jitter: 0,
		Sleep: func(d time.Duration) { slept = append(slept, d) },
	}
	err := Retry(context.Background(), p, func() error { return ErrTransient })
	if err == nil || !errors.Is(err, ErrTransient) {
		t.Fatalf("want exhausted transient error, got %v", err)
	}
	for i, d := range slept {
		if d > 25*time.Millisecond {
			t.Fatalf("sleep %d exceeds cap: %v", i, d)
		}
	}
	if last := slept[len(slept)-1]; last != 25*time.Millisecond {
		t.Fatalf("backoff did not reach the cap: %v", last)
	}
}

func TestRetryJitterDeterministicPerSeed(t *testing.T) {
	schedule := func(seed int64) []time.Duration {
		var slept []time.Duration
		p := RetryPolicy{
			MaxAttempts: 4, BaseDelay: 100 * time.Millisecond,
			MaxDelay: time.Second, Jitter: 0.5, Seed: seed,
			Sleep: func(d time.Duration) { slept = append(slept, d) },
		}
		Retry(context.Background(), p, func() error { return ErrTransient })
		return slept
	}
	a, b := schedule(42), schedule(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
	}
	c := schedule(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter (suspicious)")
	}
}

// TestRetryFirstTryAllocatesNothing: an operation that succeeds at once, as
// nearly every commit and spill check does, pays no jitter generator (5 KiB
// while it was made on entry).
func TestRetryFirstTryAllocatesNothing(t *testing.T) {
	ctx, ok := context.Background(), func() error { return nil }
	allocs := testing.AllocsPerRun(100, func() {
		if err := Retry(ctx, DefaultRetryPolicy, ok); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("Retry of an operation that succeeds at once: %.0f allocs, want 0", allocs)
	}
}

func TestRetryHardErrorNotRetried(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), RetryPolicy{Sleep: func(time.Duration) {}}, func() error {
		calls++
		return ErrInjected
	})
	if !errors.Is(err, ErrInjected) || calls != 1 {
		t.Fatalf("hard error must fail immediately: calls=%d err=%v", calls, err)
	}
}

func TestRetryContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Retry(ctx, RetryPolicy{}, func() error { return ErrTransient })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRetryCancelDuringBackoffReturnsCause: cancelling mid-backoff must
// interrupt the sleep promptly and surface context.Cause, not wait out the
// schedule — a drain's cause-carrying cancellation depends on both.
func TestRetryCancelDuringBackoffReturnsCause(t *testing.T) {
	cause := errors.New("drain in progress")
	ctx, cancel := context.WithCancelCause(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel(cause)
	}()
	p := RetryPolicy{MaxAttempts: 3, BaseDelay: time.Hour, MaxDelay: time.Hour}
	start := time.Now()
	err := Retry(ctx, p, func() error { return ErrTransient })
	if !errors.Is(err, cause) {
		t.Fatalf("want the cancellation cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation waited out the backoff: %v", elapsed)
	}
}

// TestRetryCancelInterruptsCustomSleep: a custom Sleep (e.g. a test clock or
// a Retry-After-honoring sleeper) must not be able to block cancellation —
// Retry returns the cause even while the sleeper is still asleep.
func TestRetryCancelInterruptsCustomSleep(t *testing.T) {
	cause := errors.New("shutdown requested")
	ctx, cancel := context.WithCancelCause(context.Background())
	block := make(chan struct{})
	p := RetryPolicy{
		MaxAttempts: 3,
		Sleep:       func(time.Duration) { <-block },
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel(cause)
	}()
	defer close(block)
	start := time.Now()
	err := Retry(ctx, p, func() error { return ErrTransient })
	if !errors.Is(err, cause) {
		t.Fatalf("want the cancellation cause, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("custom sleeper held cancellation hostage: %v", elapsed)
	}
}

// TestRetryPreCanceledReturnsCause: a context already canceled with a cause
// makes Retry return that cause without even calling fn.
func TestRetryPreCanceledReturnsCause(t *testing.T) {
	cause := errors.New("already draining")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	calls := 0
	err := Retry(ctx, RetryPolicy{}, func() error { calls++; return ErrTransient })
	if !errors.Is(err, cause) || calls != 0 {
		t.Fatalf("want cause with no attempts, got err=%v calls=%d", err, calls)
	}
}

// TestRetryOnRetryHook: the per-operation hook observes every scheduled
// retry with its 1-based attempt number and the triggering error, and is not
// invoked on the final give-up or on hard errors.
func TestRetryOnRetryHook(t *testing.T) {
	var attempts []int
	var lastErr error
	p := RetryPolicy{
		MaxAttempts: 4,
		Sleep:       func(time.Duration) {},
		OnRetry: func(attempt int, err error) {
			attempts = append(attempts, attempt)
			lastErr = err
		},
	}
	err := Retry(context.Background(), p, func() error { return ErrTransient })
	if err == nil {
		t.Fatal("permanent transient failure must exhaust the budget")
	}
	// 4 attempts: retries scheduled after attempts 1, 2, 3; attempt 4 gives up.
	if len(attempts) != 3 || attempts[0] != 1 || attempts[2] != 3 {
		t.Fatalf("hook saw attempts %v, want [1 2 3]", attempts)
	}
	if !errors.Is(lastErr, ErrTransient) {
		t.Fatalf("hook error: %v", lastErr)
	}

	// Success on the first try never invokes the hook.
	attempts = nil
	if err := Retry(context.Background(), p, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(attempts) != 0 {
		t.Fatalf("hook invoked on immediate success: %v", attempts)
	}

	// Hard errors fail immediately without a scheduled retry.
	attempts = nil
	Retry(context.Background(), p, func() error { return ErrInjected })
	if len(attempts) != 0 {
		t.Fatalf("hook invoked for a non-transient error: %v", attempts)
	}
}

// TestParseFS: the S3PG_FAULT_FS spec round-trips into the FS knobs, and
// malformed specs are rejected.
func TestParseFS(t *testing.T) {
	fs, err := ParseFS("seed=7,shortevery=3,failsync=2,failsyncdir=1,fstransientevery=5")
	if err != nil {
		t.Fatal(err)
	}
	if fs.Plan.Seed != 7 || fs.Plan.ShortEvery != 3 || fs.FailSync != 2 ||
		fs.FailSyncDir != 1 || fs.TransientEvery != 5 {
		t.Fatalf("parsed FS: %+v", fs)
	}
	for _, bad := range []string{"nonsense", "seed=x", "unknown=1"} {
		if _, err := ParseFS(bad); err == nil {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

// TestFSTransientEvery: the shared-counter FS fault is transient (retryable)
// and recurring, so a retried atomic commit eventually succeeds — the
// property the server chaos matrix depends on.
func TestFSTransientEvery(t *testing.T) {
	fs := &FS{TransientEvery: 2}
	fails, oks := 0, 0
	for i := 0; i < 8; i++ {
		err := fs.Rename("/nonexistent/a", "/nonexistent/b")
		if Transient(err) {
			fails++
		} else if err != nil {
			oks++ // real rename error from the bogus path: the fault did not fire
		}
	}
	if fails != 4 || oks != 4 {
		t.Fatalf("every-2nd schedule fired %d/8 times (%d passed through)", fails, oks)
	}
}

// TestCommitRetriesTransientFaults: Commit rides out a transient fault in
// any of an atomic commit's four filesystem operations by writing the whole
// file again (a period of 5 or more leaves an attempt room to succeed),
// counting each retry on the policy's OnRetry, and returns a hard fault at
// once with the destination untouched and no temporary left.
func TestCommitRetriesTransientFaults(t *testing.T) {
	noSleep := RetryPolicy{Sleep: func(time.Duration) {}}
	for every := 5; every <= 9; every++ {
		dir := t.TempDir()
		path := filepath.Join(dir, "out.csv")
		retries := 0
		p := noSleep
		p.OnRetry = func(int, error) { retries++ }
		fsys := &FS{TransientEvery: every}
		for i := 0; i < 3; i++ {
			body := fmt.Sprintf("commit %d\n", i)
			if err := Commit(context.Background(), fsys, p, path, func(w io.Writer) error {
				_, err := io.WriteString(w, body)
				return err
			}); err != nil {
				t.Fatalf("every %d, commit %d: %v", every, i, err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != body {
				t.Fatalf("every %d, commit %d: file holds %q (%v), want %q", every, i, got, err, body)
			}
		}
		if retries == 0 {
			t.Errorf("every %d: three commits through the schedule never retried", every)
		}
		assertNoTemps(t, dir)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	calls := 0
	err := Commit(context.Background(), &FS{FailRename: 1}, noSleep, path, func(w io.Writer) error {
		calls++
		_, err := io.WriteString(w, "x")
		return err
	})
	if !errors.Is(err, ErrInjected) || calls != 1 {
		t.Fatalf("hard fault: err %v after %d writes, want ErrInjected after 1", err, calls)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("hard fault left the destination behind: %v", err)
	}
	assertNoTemps(t, dir)
}

func assertNoTemps(t *testing.T, dir string) {
	t.Helper()
	if temps, _ := filepath.Glob(filepath.Join(dir, "*.tmp-*")); len(temps) != 0 {
		t.Fatalf("temporaries left behind: %v", temps)
	}
}

// TestFSFromEnv: unset, commits go to the real filesystem; a spec builds the
// fault injector it names; a malformed one is an error naming the variable.
func TestFSFromEnv(t *testing.T) {
	t.Setenv(envFS, "")
	if fsys, spec, err := FSFromEnv(); err != nil || spec != "" || fsys != ckpt.OSFS {
		t.Fatalf("unset: %v %q %v", fsys, spec, err)
	}
	t.Setenv(envFS, "seed=3,fstransientevery=9")
	fsys, spec, err := FSFromEnv()
	if err != nil || spec != "seed=3,fstransientevery=9" {
		t.Fatalf("set: %q %v", spec, err)
	}
	if f, ok := fsys.(*FS); !ok || f.Plan.Seed != 3 || f.TransientEvery != 9 {
		t.Fatalf("set: got %#v", fsys)
	}
	t.Setenv(envFS, "bogus")
	if _, _, err := FSFromEnv(); err == nil || !strings.HasPrefix(err.Error(), "S3PG_FAULT_FS: faultio: malformed entry") {
		t.Fatalf("malformed: %v", err)
	}
}

// Reader is the read side of a Plan's schedule: the same state a Writer
// keeps, driven by reads. Only these tests read through it.
type Reader struct {
	r io.Reader
	s *state
}

// NewReader returns a fault-injecting reader over r.
func NewReader(r io.Reader, plan Plan) *Reader {
	return &Reader{r: r, s: newState(plan)}
}

// Read implements io.Reader, applying transient faults, short reads, and the
// hard fail-at-byte fault.
func (f *Reader) Read(p []byte) (int, error) {
	if !f.s.plan.enabled() {
		return f.r.Read(p)
	}
	limit, err := f.s.begin("read", len(p))
	if err != nil {
		return 0, err
	}
	if limit == 0 && len(p) > 0 {
		// The fail-at offset is exactly here: fail without consuming input.
		return 0, f.s.hardErr("read")
	}
	n, err := f.r.Read(p[:limit])
	f.s.off += int64(n)
	return n, err
}
