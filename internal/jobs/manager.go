package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/s3pg/s3pg/internal/batch"
	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/faultio"
	"github.com/s3pg/s3pg/internal/obs"
)

// Admission-control and lifecycle errors. The HTTP layer maps these to
// status codes (429 for a full queue, 503 for the rest).
var (
	ErrQueueFull   = errors.New("jobs: queue full")
	ErrMemPressure = errors.New("jobs: memory watermark exceeded")
	ErrDraining    = errors.New("jobs: draining, not accepting work")
	ErrUnknownJob  = errors.New("jobs: unknown job")
	ErrInvalid     = errors.New("jobs: invalid request")
)

// errRequeue is the internal signal that a run ended by putting the job back
// on the queue (drain or retryable commit failure), not by finishing it.
var errRequeue = errors.New("jobs: requeued")

// The commit circuit breaker (see Breaker) opens after breakerThreshold
// consecutive exhausted commits and re-probes after breakerCooldown.
const (
	breakerThreshold = 5
	breakerCooldown  = 5 * time.Second
)

// Observability instruments (obs.Default registry).
var (
	cAccepted     = obs.Default.Counter("jobs.accepted")
	cRejectedFull = obs.Default.Counter("jobs.rejected.queue_full")
	cRejectedMem  = obs.Default.Counter("jobs.rejected.mem")
	cRejectedDrn  = obs.Default.Counter("jobs.rejected.draining")
	cCompleted    = obs.Default.Counter("jobs.completed")
	cFailed       = obs.Default.Counter("jobs.failed")
	cPanics       = obs.Default.Counter("jobs.panics")
	cRequeued     = obs.Default.Counter("jobs.requeued")
	cRecovered    = obs.Default.Counter("jobs.recovered_on_open")
	cCommitRetry  = obs.Default.Counter("jobs.commit.retries")
	gQueued       = obs.Default.Gauge("jobs.queued")
	gRunning      = obs.Default.Gauge("jobs.running")
	// gMemPressure mirrors the admission hysteresis latch: 1 from the
	// moment the heap crosses MaxMemMB until it falls under the low watermark.
	gMemPressure = obs.Default.Gauge("jobs.mem.pressure")

	// Latency distributions (seconds): time spent waiting in the queue
	// before a worker pickup, and whole-attempt run time. Exposed as
	// s3pgd_job_*_seconds in Prometheus format.
	hQueueWait = obs.Default.Histogram("job.queue_wait.seconds")
	hRunTime   = obs.Default.Histogram("job.run.seconds")
)

// Config parameterizes a Manager. The zero value of every field resolves to
// a usable default except Dir, which is required.
type Config struct {
	// Dir is the spool directory: one subdirectory per job holding its
	// manifest, inputs, and outputs.
	Dir string
	// QueueDepth bounds the number of queued (accepted, not yet running)
	// jobs; further submissions are rejected with ErrQueueFull. Default 64.
	QueueDepth int
	// Workers is the worker-pool size. Default 2.
	Workers int
	// JobWorkers is the per-job parallelism of the ingest, the transform
	// and the export. Default 1.
	JobWorkers int
	// MaxMemMB is the soft high heap watermark: once exceeded, submissions
	// are rejected with ErrMemPressure and readiness reports not-ready until
	// the heap falls back under the low watermark (80 % of it).
	// 0 = off.
	MaxMemMB int
	// MaxAttempts bounds worker pickups per job before a retryable commit
	// failure becomes permanent (drain requeues do not consume attempts).
	// Default 5.
	MaxAttempts int
	// FS is the commit filesystem (fault-injection seam). Default ckpt.OSFS.
	FS ckpt.FS
	// Retry is the backoff policy around every atomic commit.
	Retry faultio.RetryPolicy
	// Log receives structured operational log records. Nil discards them.
	Log *obs.Logger
	// Trace, when non-nil, receives one JSONL record per job lifecycle
	// phase transition (the -trace-file sink).
	Trace *obs.JSONL
	// BeforeRun, when non-nil, runs at the start of every run of every job,
	// inside its deadline — a test seam for panic isolation and scheduling
	// tests.
	BeforeRun func(jobID string)
}

func (c Config) withDefaults() Config {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 1
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 5
	}
	if c.FS == nil {
		c.FS = ckpt.OSFS
	}
	return c
}

// Manager owns the spool, the queue, and the worker pool.
type Manager struct {
	cfg     Config
	breaker *Breaker

	// ctx is the root of every job context; Drain cancels it with cause
	// ErrDraining so workers can tell a drain from a deadline.
	ctx    context.Context
	cancel context.CancelCauseFunc

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job
	pending   []string
	admitting int // submissions past admission control, not yet enqueued
	running   int
	draining  bool
	seq       int64
	// memLatch closes admission once the heap crosses MaxMemMB and opens it
	// again only under the low watermark; nil (never set) when MaxMemMB is 0.
	memLatch *obs.HeapLatch

	wg sync.WaitGroup
}

// Open initializes the spool directory, recovers every incomplete job left
// by a previous process (queued jobs re-enter the queue; jobs that were
// running when the process died are requeued and rerun from their spooled
// inputs), and starts the worker pool.
func Open(cfg Config) (*Manager, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, errors.New("jobs: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:     cfg,
		breaker: NewBreaker(breakerThreshold, breakerCooldown),
		jobs:    make(map[string]*Job),
	}
	if cfg.MaxMemMB > 0 {
		m.memLatch = obs.NewHeapLatch(cfg.MaxMemMB, gMemPressure)
	}
	m.cond = sync.NewCond(&m.mu)
	m.ctx, m.cancel = context.WithCancelCause(context.Background())

	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	var recovered []*Job
	for _, e := range entries {
		if !e.IsDir() || !jobIDShape.MatchString(e.Name()) {
			continue // not a job's directory, such as the daemon's graphs/
		}
		dir := filepath.Join(cfg.Dir, e.Name())
		m.sweepAbandoned(dir)
		j, err := loadManifest(dir)
		if err != nil {
			// A never-acknowledged job: not a lost one.
			cfg.Log.Warn("spool_entry_skipped", "entry", e.Name(), "error", err)
			continue
		}
		if j.ID != e.Name() {
			cfg.Log.Warn("spool_manifest_mismatch", "entry", e.Name(), "manifest_id", j.ID)
			continue
		}
		m.jobs[j.ID] = j
		if j.State == StateRunning {
			// The previous process died mid-run: run it again.
			j.State = StateQueued
		}
		if n := len(j.Timeline); j.State == StateDone && n > 0 && j.Timeline[n-1].Phase != PhaseDone {
			// The previous process died, or its advisory rewrite failed,
			// between the done-marker commit and the rewrite that carries
			// the done event.
			ev := m.recordPhase(j, PhaseDone, "recovered")
			m.persistManifest(j)
			m.trace(j.ID, ev)
		}
		if j.State == StateQueued {
			recovered = append(recovered, j)
		}
	}
	// Oldest first, so recovery preserves admission order.
	sort.Slice(recovered, func(i, k int) bool { return recovered[i].Accepted.Before(recovered[k].Accepted) })
	for _, j := range recovered {
		j.enqueuedAt = time.Now()
		ev := m.recordPhase(j, PhaseQueued, "recovered")
		m.pending = append(m.pending, j.ID)
		m.persistManifest(j) // records the running→queued transition
		m.trace(j.ID, ev)
		cRecovered.Inc()
	}
	m.seq = int64(len(m.jobs))
	m.updateGauges()
	if n := len(recovered); n > 0 {
		cfg.Log.Info("jobs_recovered", "count", n, "spool", cfg.Dir)
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m, nil
}

// recordPhase appends a phase event to a job's timeline and returns it.
// Callers must hold m.mu (or own the job exclusively, as Submit and Open
// do).
func (m *Manager) recordPhase(j *Job, phase, note string) PhaseEvent {
	ev := PhaseEvent{Phase: phase, At: time.Now().UTC(), Note: note}
	j.Timeline = append(j.Timeline, ev)
	return ev
}

// snapshotJob deep-copies a job record (timeline and outputs included) so
// the copy can be read or encoded outside m.mu while workers keep mutating
// the original. Callers must hold m.mu.
func snapshotJob(j *Job) Job {
	c := *j
	if len(j.Timeline) > 0 {
		c.Timeline = append([]PhaseEvent(nil), j.Timeline...)
	}
	if len(j.Outputs) > 0 {
		c.Outputs = append([]string(nil), j.Outputs...)
	}
	return c
}

// trace emits one timeline event to the configured JSONL sink.
func (m *Manager) trace(id string, ev PhaseEvent) {
	if m.cfg.Trace == nil {
		return
	}
	if err := m.cfg.Trace.Write(struct {
		JobID string    `json:"job_id"`
		Phase string    `json:"phase"`
		At    time.Time `json:"at"`
		Note  string    `json:"note,omitempty"`
	}{JobID: id, Phase: ev.Phase, At: ev.At, Note: ev.Note}); err != nil {
		m.cfg.Log.Warn("trace_write_failed", "job_id", id, "error", err)
	}
}

// sweepAbandoned removes abandoned files from a job directory. At Open time
// no commit is in flight, so every *.tmp-* entry is litter from a process
// that died mid-commit (the committed files themselves are rename-complete
// and untouched). A run.ckpt is what a daemon of the deleted chunked
// pipeline left beside a job it was killed in; nothing reads it, the job
// reruns from its inputs.
func (m *Manager) sweepAbandoned(dir string) {
	var matches []string
	for _, pattern := range []string{"*.tmp-*", staleCkptFile} {
		found, _ := filepath.Glob(filepath.Join(dir, pattern))
		matches = append(matches, found...)
	}
	for _, p := range matches {
		if err := os.Remove(p); err != nil {
			m.cfg.Log.Warn("abandoned_sweep_failed", "path", p, "error", err)
		} else {
			m.cfg.Log.Info("abandoned_file_removed", "path", p)
		}
	}
}

// jobDir returns the spool directory of a job.
func (m *Manager) jobDir(id string) string { return filepath.Join(m.cfg.Dir, id) }

// updateGauges refreshes the queue-depth and running gauges. Callers hold mu.
func (m *Manager) updateGauges() {
	gQueued.Set(int64(len(m.pending)))
	gRunning.Set(int64(m.running))
}

// Ready reports whether the manager should be advertised as ready for new
// work: nil, or the admission-control error a submission would hit.
func (m *Manager) Ready() error {
	m.mu.Lock()
	draining := m.draining
	m.mu.Unlock()
	if draining {
		return ErrDraining
	}
	if m.breaker.State() != "closed" {
		return ErrBreakerOpen
	}
	if set, _ := m.memLatch.Sample(); set {
		return ErrMemPressure
	}
	return nil
}

// RetryAfterHint returns how long a shed client should wait before retrying:
// the breaker's remaining cooldown when it is open (retrying sooner is
// guaranteed to be shed again), zero otherwise so callers fall back to their
// static hint.
func (m *Manager) RetryAfterHint() time.Duration {
	return m.breaker.CooldownRemaining()
}

// Stats is a point-in-time queue summary (served alongside /metrics).
type Stats struct {
	Queued   int    `json:"queued"`
	Running  int    `json:"running"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Draining bool   `json:"draining"`
	Breaker  string `json:"breaker"`
}

// Stats returns the current queue summary.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{Queued: len(m.pending), Running: m.running, Draining: m.draining, Breaker: m.breaker.State()}
	for _, j := range m.jobs {
		switch j.State {
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		}
	}
	return s
}

// Submit runs admission control, persists the request durably in the spool,
// and enqueues it. When Submit returns nil, the job is accepted: it will
// either complete or stay queued across restarts. The returned Job is a
// snapshot.
func (m *Manager) Submit(spec Spec, shapes, data string) (Job, error) {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		cRejectedDrn.Inc()
		return Job{}, ErrDraining
	}
	if len(m.pending)+m.admitting >= m.cfg.QueueDepth {
		m.mu.Unlock()
		cRejectedFull.Inc()
		return Job{}, ErrQueueFull
	}
	m.admitting++
	m.seq++
	seq := m.seq
	m.mu.Unlock()
	admitted := false
	defer func() {
		if !admitted {
			m.mu.Lock()
			m.admitting--
			m.mu.Unlock()
		}
	}()

	if set, _ := m.memLatch.Sample(); set {
		cRejectedMem.Inc()
		return Job{}, ErrMemPressure
	}

	// Reject obviously bad requests at the door: unknown mode, unparsable
	// shapes. (Data errors surface at run time, per the lenient policy.)
	if spec.Mode == "" {
		spec.Mode = core.Parsimonious.String()
	}
	if _, err := core.ParseMode(spec.Mode); err != nil {
		return Job{}, fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	if spec.Timeout < 0 {
		return Job{}, fmt.Errorf("%w: negative timeout", ErrInvalid)
	}
	if _, err := m.options(spec).Shapes(m.ctx, shapes); err != nil {
		return Job{}, fmt.Errorf("%w: shapes: %v", ErrInvalid, err)
	}

	id, err := newJobID(seq)
	if err != nil {
		return Job{}, err
	}
	dir := m.jobDir(id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Job{}, err
	}
	writeString := func(name, content string) error {
		return m.commit(m.ctx, filepath.Join(dir, name), func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
	}
	if err := writeString(shapesFile, shapes); err != nil {
		return Job{}, err
	}
	if err := writeString(dataFile, data); err != nil {
		return Job{}, err
	}
	now := time.Now()
	j := &Job{ID: id, Spec: spec, State: StateQueued, Accepted: now.UTC(), enqueuedAt: now}
	spoolEv := m.recordPhase(j, PhaseSpool, "")
	queueEv := m.recordPhase(j, PhaseQueued, "")
	// The manifest commit is the acknowledgment point: after it, the job is
	// recoverable from the spool alone — timeline included.
	if err := m.commitManifest(m.ctx, snapshotJob(j)); err != nil {
		return Job{}, err
	}

	m.mu.Lock()
	m.jobs[id] = j
	m.pending = append(m.pending, id)
	m.admitting--
	admitted = true
	m.updateGauges()
	snap := snapshotJob(j)
	m.mu.Unlock()
	m.cond.Signal()
	cAccepted.Inc()
	m.trace(id, spoolEv)
	m.trace(id, queueEv)
	m.cfg.Log.Info("job_accepted", "job_id", id, "mode", spec.Mode, "lenient", spec.Lenient, "data_bytes", len(data))
	return snap, nil
}

// Get returns a snapshot of a job.
func (m *Manager) Get(id string) (Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return Job{}, ErrUnknownJob
	}
	return snapshotJob(j), nil
}

// List returns snapshots of every known job, oldest first.
func (m *Manager) List() []Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		out = append(out, snapshotJob(j))
	}
	sort.Slice(out, func(i, k int) bool {
		if !out[i].Accepted.Equal(out[k].Accepted) {
			return out[i].Accepted.Before(out[k].Accepted)
		}
		return out[i].ID < out[k].ID
	})
	return out
}

// OutputPath resolves one of a finished job's result files, guarding against
// path escapes and unfinished jobs.
func (m *Manager) OutputPath(id, name string) (string, error) {
	if !slices.Contains(OutputFiles, name) {
		return "", fmt.Errorf("%w: no such output %q", ErrInvalid, name)
	}
	if _, err := m.done(id); err != nil {
		return "", err
	}
	return filepath.Join(m.jobDir(id), name), nil
}

// Rerun runs a finished job again without the commits, with the job's Spec
// and the manager's JobWorkers, and returns what the run read and built: the
// graph and the property graph the job committed. It is how the query tier
// loads a job. A drain cancels it.
func (m *Manager) Rerun(id string) (*batch.Result, error) {
	j, err := m.done(id)
	if err != nil {
		return nil, err
	}
	return m.run(m.ctx, id, j.Spec, nil)
}

// done returns a snapshot of a job that is done, ErrInvalid for one that is
// not.
func (m *Manager) done(id string) (Job, error) {
	j, err := m.Get(id)
	if err == nil && j.State != StateDone {
		err = fmt.Errorf("%w: job %s is %s", ErrInvalid, id, j.State)
	}
	return j, err
}

// options is the batch run configuration of a job with spec: a lenient job
// skips malformed statements without an error budget.
func (m *Manager) options(spec Spec) batch.Options {
	return batch.Options{Lenient: spec.Lenient, MaxErrors: -1, Workers: m.cfg.JobWorkers}
}

// run is the batch run over a job's spooled inputs.
func (m *Manager) run(ctx context.Context, id string, spec Spec, commit batch.Commit) (*batch.Result, error) {
	mode, err := core.ParseMode(spec.Mode)
	if err != nil {
		return nil, err
	}
	dir := m.jobDir(id)
	return m.options(spec).Run(ctx, mode, filepath.Join(dir, shapesFile), filepath.Join(dir, dataFile), commit)
}

// Drain stops accepting work, wakes idle workers, cancels running jobs with
// cause ErrDraining (they stop and requeue), and waits for the pool to
// quiesce or ctx to expire. After a clean drain every non-terminal job is
// back in StateQueued with a durable manifest, ready for the next process to
// run.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	already := m.draining
	m.draining = true
	m.mu.Unlock()
	if !already {
		m.cfg.Log.Info("draining")
	}
	m.cond.Broadcast()
	m.cancel(ErrDraining)
	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain: %w", context.Cause(ctx))
	}
}

// Close is Drain without a deadline, for tests and defers.
func (m *Manager) Close() error { return m.Drain(context.Background()) }

// commit is faultio.Commit behind the breaker, logging and counting each
// retry beside the policy's own OnRetry.
func (m *Manager) commit(ctx context.Context, path string, fn func(io.Writer) error) error {
	if err := m.breaker.Allow(); err != nil {
		return err
	}
	p := m.cfg.Retry
	inner := p.OnRetry
	p.OnRetry = func(attempt int, err error) {
		cCommitRetry.Inc()
		m.cfg.Log.Warn("commit_retry", "file", filepath.Base(path), "attempt", attempt, "error", err)
		if inner != nil {
			inner(attempt, err)
		}
	}
	err := faultio.Commit(ctx, m.cfg.FS, p, path, fn)
	m.breaker.Record(err)
	return err
}

// commitManifest persists a job snapshot as its manifest.
func (m *Manager) commitManifest(ctx context.Context, snap Job) error {
	return m.commit(ctx, filepath.Join(m.jobDir(snap.ID), manifestFile), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(snap)
	})
}

// persistManifest is commitManifest with failures logged instead of
// returned: manifest updates along the run are advisory (the spooled inputs
// are the recovery record); only the Submit-time commit and the
// done-transition are load-bearing.
func (m *Manager) persistManifest(j *Job) {
	m.mu.Lock()
	snap := snapshotJob(j)
	m.mu.Unlock()
	if err := m.commitManifest(context.Background(), snap); err != nil {
		m.cfg.Log.Warn("manifest_update_failed", "job_id", j.ID, "error", err)
	}
}

// worker pops jobs until drain.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		for len(m.pending) == 0 && !m.draining {
			m.cond.Wait()
		}
		if m.draining {
			m.mu.Unlock()
			return
		}
		id := m.pending[0]
		m.pending = m.pending[1:]
		j := m.jobs[id]
		j.State = StateRunning
		j.Started = time.Now().UTC()
		j.Attempts++
		if !j.enqueuedAt.IsZero() {
			hQueueWait.ObserveSince(j.enqueuedAt)
		}
		ev := m.recordPhase(j, PhaseRunning, "")
		attempt := j.Attempts
		m.running++
		m.updateGauges()
		m.mu.Unlock()
		m.trace(id, ev)
		m.cfg.Log.Info("job_running", "job_id", id, "attempt", attempt)
		m.persistManifest(j)
		m.runJob(id)
		m.mu.Lock()
		m.running--
		m.updateGauges()
		m.mu.Unlock()
	}
}

// runJob executes one job behind a panic barrier so a transformation bug
// cannot take down the pool.
func (m *Manager) runJob(id string) {
	defer func() {
		if r := recover(); r != nil {
			cPanics.Inc()
			m.cfg.Log.Error("job_panic", "job_id", id, "panic", fmt.Sprint(r))
			m.fail(id, fmt.Errorf("internal panic: %v\n%s", r, debug.Stack()))
		}
	}()
	m.mu.Lock()
	spec := m.jobs[id].Spec
	m.mu.Unlock()
	jctx := m.ctx
	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		jctx, cancel = context.WithTimeout(jctx, spec.Timeout)
		defer cancel()
	}
	if hook := m.cfg.BeforeRun; hook != nil {
		hook(id)
	}
	err := m.transform(jctx, id, spec)
	switch {
	case err == nil, errors.Is(err, errRequeue):
	case errors.Is(err, context.DeadlineExceeded):
		m.fail(id, fmt.Errorf("deadline exceeded after %v", spec.Timeout))
	case draining(jctx):
		// The drain canceled the run wherever it was — mid transform, or in
		// a commit retry that burned its budget on the canceled context. The
		// spool still holds the inputs and the rerun is deterministic, so
		// putting the job back on the queue is always sound.
		m.requeue(id, true)
	default:
		m.fail(id, err)
	}
}

// draining reports whether ctx was canceled by Drain rather than a deadline.
func draining(ctx context.Context) bool {
	return errors.Is(context.Cause(ctx), ErrDraining)
}

// transform is one run of a job: the batch run of `s3pg data` over its
// spooled inputs, committing the outputs into its spool directory. A drain or
// a crash loses the run, never the job — the spool holds its inputs and the
// rerun produces the same bytes.
func (m *Manager) transform(ctx context.Context, id string, spec Spec) error {
	dir := m.jobDir(id)
	var commitErr error
	res, err := m.run(ctx, id, spec, func(name string, write func(io.Writer) error) error {
		commitErr = m.commit(ctx, filepath.Join(dir, name), write)
		return commitErr
	})
	switch {
	case commitErr != nil && !draining(ctx):
		return m.requeueOrFail(id, commitErr)
	case err != nil:
		return err // runJob fails the job, or requeues it on a drain
	}

	// Each output is complete-or-absent; the manifest flips to done only
	// after all three are committed.
	store := res.Transformer.Store()
	m.mu.Lock()
	j := m.jobs[id]
	j.Finished = time.Now().UTC()
	j.Statements, j.Skipped = int64(res.Graph.Len()), res.Skipped
	j.Nodes, j.Edges = int64(store.NumNodes()), int64(store.NumEdges())
	j.Degraded = res.Transformer.DegradedCount()
	j.Outputs = append([]string(nil), OutputFiles...)
	commitEv := m.recordPhase(j, PhaseCommit, "")
	runFor := j.Finished.Sub(j.Started)
	done := snapshotJob(j)
	done.State = StateDone
	m.mu.Unlock()
	m.trace(id, commitEv)
	if err := m.commitManifest(ctx, done); err != nil {
		// Outputs are committed but the done-marker is not: requeue; the
		// rerun reproduces the same bytes and re-commits the manifest.
		return m.requeueOrFail(id, err)
	}
	m.mu.Lock()
	j.State = StateDone
	doneEv := m.recordPhase(j, PhaseDone, "")
	m.mu.Unlock()
	m.trace(id, doneEv)
	hRunTime.Observe(runFor.Seconds())
	cCompleted.Inc()
	m.cfg.Log.Info("job_done", "job_id", id,
		"statements", res.Graph.Len(), "nodes", store.NumNodes(), "edges", store.NumEdges(),
		"run_seconds", runFor.Seconds())
	// Advisory rewrite so the manifest carries the done event too; the
	// load-bearing done-transition is the commit above. The event is stamped
	// only once the job shows as done, so a reader that saw it running never
	// finds a done event from before that read. Open appends the event to a
	// done manifest this rewrite never reached.
	m.persistManifest(j)
	return nil
}

// requeue puts a job back on the queue in StateQueued. free drains do not
// consume the attempt budget.
func (m *Manager) requeue(id string, free bool) {
	note := "retry"
	if free {
		note = "drain"
	}
	m.mu.Lock()
	j := m.jobs[id]
	j.State = StateQueued
	j.enqueuedAt = time.Now()
	if free && j.Attempts > 0 {
		j.Attempts--
	}
	ev := m.recordPhase(j, PhaseQueued, note)
	m.pending = append(m.pending, id)
	m.updateGauges()
	m.mu.Unlock()
	cRequeued.Inc()
	m.trace(id, ev)
	m.persistManifest(j)
	m.cond.Signal()
}

// requeueOrFail handles a commit failure: requeue while the attempt budget
// lasts (the breaker cooldown or a cleared fault may let the retry
// succeed), fail permanently after that.
func (m *Manager) requeueOrFail(id string, err error) error {
	m.mu.Lock()
	attempts := m.jobs[id].Attempts
	m.mu.Unlock()
	if attempts >= m.cfg.MaxAttempts {
		return fmt.Errorf("giving up after %d attempts: %w", attempts, err)
	}
	m.cfg.Log.Warn("job_requeued", "job_id", id, "attempt", attempts, "max_attempts", m.cfg.MaxAttempts, "error", err)
	m.requeue(id, false)
	return errRequeue
}

// fail marks a job failed.
func (m *Manager) fail(id string, err error) {
	m.mu.Lock()
	j := m.jobs[id]
	j.State = StateFailed
	j.Error = err.Error()
	j.Finished = time.Now().UTC()
	ev := m.recordPhase(j, PhaseFailed, "")
	var runFor time.Duration
	if !j.Started.IsZero() {
		runFor = j.Finished.Sub(j.Started)
	}
	m.mu.Unlock()
	cFailed.Inc()
	if runFor > 0 {
		hRunTime.Observe(runFor.Seconds())
	}
	m.trace(id, ev)
	m.cfg.Log.Error("job_failed", "job_id", id, "error", err)
	m.persistManifest(j)
}
