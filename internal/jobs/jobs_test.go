package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// testDataset materializes one seeded synthetic dataset (shapes + data as
// strings) shared by all tests — regenerating it per test would dominate the
// suite's runtime.
var testDataset = sync.OnceValues(func() (string, string) {
	p := datagen.University()
	g := datagen.Generate(p, 0.3, 7)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.01})

	var sb bytes.Buffer
	tw := rio.NewTurtleWriter()
	tw.Prefix("d", p.NS)
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(&sb, shacl.ToGraph(shapes)); err != nil {
		panic(err)
	}
	var db bytes.Buffer
	if err := rio.WriteNTriples(&db, g); err != nil {
		panic(err)
	}
	return sb.String(), db.String()
})

// quickRetry keeps injected-fault tests fast and deterministic.
var quickRetry = faultio.RetryPolicy{
	MaxAttempts: 4,
	BaseDelay:   time.Millisecond,
	MaxDelay:    4 * time.Millisecond,
	Seed:        1,
}

// tlogWriter routes structured log lines into the test log.
type tlogWriter struct{ t *testing.T }

func (w tlogWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", bytes.TrimRight(p, "\n"))
	return len(p), nil
}

func testLogger(t *testing.T) *obs.Logger { return obs.NewLogger(tlogWriter{t}, "test") }

func testConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Dir:     filepath.Join(t.TempDir(), "spool"),
		Workers: 2,
		Retry:   quickRetry,
		Log:     testLogger(t),
	}
}

func mustOpen(t *testing.T, cfg Config) *Manager {
	t.Helper()
	m, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// waitTerminal polls until the job reaches a terminal state.
func waitTerminal(t *testing.T, m *Manager, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := m.Get(id)
	t.Fatalf("job %s not terminal after 30s (state %s)", id, j.State)
	return Job{}
}

func readOutputs(t *testing.T, m *Manager, id string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, name := range OutputFiles {
		p, err := m.OutputPath(id, name)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = raw
	}
	return out
}

func TestSubmitRunsToDone(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.ID == "" {
		t.Fatalf("submit snapshot: %+v", j)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	if got.Statements == 0 || got.Nodes == 0 || got.Edges == 0 {
		t.Fatalf("done job has empty tallies: %+v", got)
	}
	if len(got.Outputs) != len(OutputFiles) {
		t.Fatalf("outputs: %v", got.Outputs)
	}
	for name, raw := range readOutputs(t, m, j.ID) {
		if len(raw) == 0 {
			t.Fatalf("output %s is empty", name)
		}
	}
}

// TestRerunDoesNotValidate: a finished lenient job's query snapshot reruns
// the job without its commits, and only a run that commits validates, so
// rerunning the job leaves shacl.violations where the job's run left it.
func TestRerunDoesNotValidate(t *testing.T) {
	violations := obs.Default.Counter("shacl.violations")
	// A Person without the name its shape requires.
	data := "<" + fixtures.ExNS + "zed> <" + rdf.RDFType + "> <" + fixtures.ExNS + "Person> .\n"
	m := mustOpen(t, testConfig(t))
	before := violations.Value()
	j, err := m.Submit(Spec{Lenient: true}, fixtures.UniversityShapesTurtle, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatalf("job ended %s: %s", got.State, got.Error)
	}
	ran := violations.Value()
	if ran == before {
		t.Fatal("the job's run counted no violation")
	}
	for range 2 {
		if _, err := m.Rerun(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := violations.Value(); got != ran {
		t.Fatalf("shacl.violations went from %d to %d over two reruns", ran, got)
	}
}

func TestSubmitValidation(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	cases := []struct {
		name   string
		spec   Spec
		shapes string
	}{
		{"unknown mode", Spec{Mode: "extravagant"}, shapes},
		{"negative timeout", Spec{Timeout: -time.Second}, shapes},
		{"unparsable shapes", Spec{}, "@prefix broken"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := m.Submit(tc.spec, tc.shapes, data); !errors.Is(err, ErrInvalid) {
				t.Fatalf("want ErrInvalid, got %v", err)
			}
		})
	}
	// Rejections leave no spool litter that a restart would misread as jobs.
	m2 := mustOpen(t, Config{Dir: m.cfg.Dir, Retry: quickRetry})
	if n := len(m2.List()); n != 0 {
		t.Fatalf("rejected submissions left %d recoverable jobs", n)
	}
}

func TestAdmissionControl(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.Workers = 1
	cfg.QueueDepth = 2
	release := make(chan struct{})
	var once sync.Once
	started := make(chan struct{})
	cfg.BeforeRun = func(string) {
		once.Do(func() { close(started) })
		<-release
	}
	m := mustOpen(t, cfg)
	defer close(release)

	// First job occupies the single worker...
	if _, err := m.Submit(Spec{}, shapes, data); err != nil {
		t.Fatal(err)
	}
	<-started
	// ...two more fill the queue...
	for i := 0; i < 2; i++ {
		if _, err := m.Submit(Spec{}, shapes, data); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	// ...and the next is rejected with queue-full.
	if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if err := m.Ready(); err != nil {
		t.Fatalf("queue-full must not flip readiness (load-shedding is per-request): %v", err)
	}
}

func TestAdmissionMemWatermark(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.MaxMemMB = 1
	// A GC between Open and Submit can briefly drop HeapAlloc below 1 MiB;
	// live ballast keeps the watermark check deterministic.
	ballast := make([]byte, 4<<20)
	m := mustOpen(t, cfg)
	if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("want ErrMemPressure, got %v", err)
	}
	if err := m.Ready(); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("readiness under memory pressure: %v", err)
	}
	runtime.KeepAlive(ballast)
}

// TestAdmissionMemHysteresis: the pressure latch sets at the MaxMemMB high
// watermark and clears only under the low one (80% of it) — inside the band
// the decision holds whatever side it last latched to, so admission cannot
// flap while the heap hovers around a single threshold.
func TestAdmissionMemHysteresis(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.MaxMemMB = 100
	m := mustOpen(t, cfg)
	heap := uint64(50) << 20
	m.memLatch.ReadHeap = func() uint64 { return heap }

	if err := m.Ready(); err != nil {
		t.Fatalf("under the band: %v", err)
	}
	// Climb into the band from below: still ready (latch not set).
	heap = 90 << 20
	if err := m.Ready(); err != nil {
		t.Fatalf("in band from below: %v", err)
	}
	// Cross the high watermark: latch sets, admission closes.
	heap = 101 << 20
	if err := m.Ready(); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("over high watermark: %v", err)
	}
	if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("submit over high watermark: %v", err)
	}
	// Fall back into the band: the latch holds, still shedding.
	heap = 90 << 20
	if err := m.Ready(); !errors.Is(err, ErrMemPressure) {
		t.Fatalf("in band from above must stay latched: %v", err)
	}
	// Only under the low watermark does admission reopen.
	heap = 79 << 20
	if err := m.Ready(); err != nil {
		t.Fatalf("under low watermark: %v", err)
	}
	if _, err := m.Submit(Spec{}, shapes, data); err != nil {
		t.Fatalf("submit after latch cleared: %v", err)
	}
}

func TestAdmissionDraining(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, ErrDraining) {
		t.Fatalf("want ErrDraining, got %v", err)
	}
	if err := m.Ready(); !errors.Is(err, ErrDraining) {
		t.Fatalf("readiness while draining: %v", err)
	}
}

// TestPanicIsolation: a panicking job is marked failed with the panic in its
// error, and the worker pool keeps serving other jobs.
func TestPanicIsolation(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.Workers = 1 // the panicking job and the healthy one share one worker
	var poisoned string
	var mu sync.Mutex
	cfg.BeforeRun = func(id string) {
		mu.Lock()
		bad := id == poisoned
		mu.Unlock()
		if bad {
			panic("synthetic transform bug")
		}
	}
	m := mustOpen(t, cfg)
	bad, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	poisoned = bad.ID
	mu.Unlock()
	good, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	badJ := waitTerminal(t, m, bad.ID)
	if badJ.State != StateFailed || !strings.Contains(badJ.Error, "synthetic transform bug") {
		t.Fatalf("poisoned job: state=%s err=%q", badJ.State, badJ.Error)
	}
	goodJ := waitTerminal(t, m, good.ID)
	if goodJ.State != StateDone {
		t.Fatalf("healthy job after a pool panic: state=%s err=%q", goodJ.State, goodJ.Error)
	}
}

// TestDeadlinePropagation: a job timeout expires mid-run and fails the job
// without disturbing the pool; drain cancellation is not mistaken for it.
func TestDeadlinePropagation(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.BeforeRun = func(string) {
		time.Sleep(100 * time.Millisecond) // guarantee the deadline lands mid-run
	}
	m := mustOpen(t, cfg)
	j, err := m.Submit(Spec{Timeout: 50 * time.Millisecond}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateFailed || !strings.Contains(got.Error, "deadline exceeded") {
		t.Fatalf("timed-out job: state=%s err=%q", got.State, got.Error)
	}
	// The pool survives: an untimed job still completes.
	ok, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, ok.ID); got.State != StateDone {
		t.Fatalf("job after a deadline failure: %s (%s)", got.State, got.Error)
	}
}

// TestRecoverRunningJobOnOpen: a manifest left in state "running" by a dead
// process is requeued (and completed) by the next Open.
func TestRecoverRunningJobOnOpen(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	m := mustOpen(t, cfg)
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatal(got.Error)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Forge a crash: rewrite the manifest as if the process died mid-run.
	dir := m.jobDir(j.ID)
	crashed, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	crashed.State = StateRunning
	crashed.Statements, crashed.Nodes, crashed.Edges = 0, 0, 0
	crashed.Outputs = nil
	writeManifest(t, dir, crashed)
	// Torn spool directory (no manifest) must be skipped, not recovered.
	if err := os.MkdirAll(filepath.Join(cfg.Dir, "j999999-deadbeef"), 0o755); err != nil {
		t.Fatal(err)
	}

	m2 := mustOpen(t, Config{Dir: cfg.Dir, Retry: quickRetry, Log: testLogger(t)})
	if _, err := m2.Get("j999999-deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatal("torn spool directory was recovered as a job")
	}
	got := waitTerminal(t, m2, j.ID)
	if got.State != StateDone {
		t.Fatalf("recovered job: %s (%s)", got.State, got.Error)
	}
}

func writeManifest(t *testing.T, dir string, j *Job) {
	t.Helper()
	buf, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestFile), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCommitFaultsRetryToCompletion: recoverable filesystem faults recurring
// on a global schedule are absorbed by the retry policy and the job still
// completes with byte-exact outputs.
func TestCommitFaultsRetryToCompletion(t *testing.T) {
	shapes, data := testDataset()

	base := mustOpen(t, testConfig(t))
	bj, err := base.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, base, bj.ID); got.State != StateDone {
		t.Fatal(got.Error)
	}
	want := readOutputs(t, base, bj.ID)

	cfg := testConfig(t)
	cfg.FS = &faultio.FS{TransientEvery: 7}
	m := mustOpen(t, cfg)
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	got := waitTerminal(t, m, j.ID)
	if got.State != StateDone {
		t.Fatalf("job under transient faults: %s (%s)", got.State, got.Error)
	}
	for _, name := range OutputFiles {
		gotOut := readOutputs(t, m, j.ID)
		if !bytes.Equal(gotOut[name], want[name]) {
			t.Errorf("%s differs under injected faults", name)
		}
	}
}

// toggleFS fails every commit while broken (with a transient error, so the
// retry budget is exhausted each time) and passes through once healed.
type toggleFS struct {
	mu     sync.Mutex
	broken bool
}

func (f *toggleFS) failing() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.broken {
		return fmt.Errorf("%w: storage offline", faultio.ErrTransient)
	}
	return nil
}

func (f *toggleFS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	if err := f.failing(); err != nil {
		return nil, err
	}
	return ckpt.OSFS.CreateTemp(dir, pattern)
}
func (f *toggleFS) Rename(o, n string) error {
	if err := f.failing(); err != nil {
		return err
	}
	return ckpt.OSFS.Rename(o, n)
}
func (f *toggleFS) Remove(name string) error               { return ckpt.OSFS.Remove(name) }
func (f *toggleFS) Chmod(name string, m os.FileMode) error { return ckpt.OSFS.Chmod(name, m) }
func (f *toggleFS) SyncDir(dir string) error               { return ckpt.OSFS.SyncDir(dir) }

// TestBreakerShedsAndRecovers: commits failing past the retry budget trip
// the breaker (submissions shed fast, readiness flips not-ready); once the
// storage heals and the cooldown elapses, a trial commit closes it again.
func TestBreakerShedsAndRecovers(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	tfs := &toggleFS{broken: true}
	cfg.FS = tfs
	m := mustOpen(t, cfg)
	// A low threshold and a clock the test steps through the cooldown, set
	// before any work arrives.
	const threshold, cooldown = 2, time.Minute
	b, clk := newTestBreaker(threshold, cooldown)
	m.breaker = b

	// Each failed submission is one retry-exhausted commit; threshold trips.
	for i := 0; i < threshold; i++ {
		if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, faultio.ErrTransient) {
			t.Fatalf("submit %d through broken storage: %v", i, err)
		}
	}
	if got := m.breaker.State(); got != "open" {
		t.Fatalf("breaker after %d exhausted commits: %s", threshold, got)
	}
	if err := m.Ready(); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("readiness with the breaker open: %v", err)
	}
	// While open, work is shed without touching storage.
	if _, err := m.Submit(Spec{}, shapes, data); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker did not shed: %v", err)
	}

	// Heal the storage, step past the cooldown: the next submission is the
	// half-open trial, closes the breaker, and the job completes.
	tfs.mu.Lock()
	tfs.broken = false
	tfs.mu.Unlock()
	clk.advance(2 * cooldown)
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatalf("submission after heal+cooldown: %v", err)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatalf("job after breaker recovery: %s (%s)", got.State, got.Error)
	}
	if got := m.breaker.State(); got != "closed" {
		t.Fatalf("breaker after recovery: %s", got)
	}
	if err := m.Ready(); err != nil {
		t.Fatalf("readiness after recovery: %v", err)
	}
}
