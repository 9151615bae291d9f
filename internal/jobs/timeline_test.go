package jobs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
)

// timelinePhases extracts the phase sequence of a job's timeline.
func timelinePhases(j Job) []string {
	out := make([]string, len(j.Timeline))
	for i, ev := range j.Timeline {
		out[i] = ev.Phase
	}
	return out
}

func assertMonotone(t *testing.T, j Job) {
	t.Helper()
	for i := 1; i < len(j.Timeline); i++ {
		if j.Timeline[i].At.Before(j.Timeline[i-1].At) {
			t.Fatalf("timeline not monotone at %d: %v", i, timelinePhases(j))
		}
	}
}

func TestTimelineCoversLifecycle(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if done.State != StateDone {
		t.Fatalf("job: %s (%s)", done.State, done.Error)
	}
	phases := timelinePhases(done)
	want := []string{PhaseSpool, PhaseQueued, PhaseRunning, PhaseCommit, PhaseDone}
	got := strings.Join(phases, ",")
	if got != strings.Join(want, ",") {
		t.Fatalf("timeline %v, want %v", phases, want)
	}
	assertMonotone(t, done)
}

func TestTimelineSurvivesManifestRoundTrip(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the same spool: the timeline is part of the manifest, so the
	// recovered record must carry the full pre-restart history.
	cfg := testConfig(t)
	cfg.Dir = m.cfg.Dir
	m2 := mustOpen(t, cfg)
	got, err := m2.Get(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Timeline) < len(done.Timeline) {
		t.Fatalf("timeline shrank across restart: %v vs %v", timelinePhases(got), timelinePhases(done))
	}
	gp := strings.Join(timelinePhases(got), ",")
	if !strings.HasPrefix(gp, strings.Join(timelinePhases(done), ",")) {
		t.Fatalf("recovered timeline %v does not extend %v", timelinePhases(got), timelinePhases(done))
	}
	assertMonotone(t, got)
}

// diesAfterDoneFS passes commits through until a manifest in state done has
// been renamed into place, then fails every later operation: the process is
// as good as killed right after the done-marker commit.
type diesAfterDoneFS struct {
	ckpt.FS
	dead *atomic.Bool
}

var errDied = errors.New("process died")

func (f diesAfterDoneFS) CreateTemp(dir, pattern string) (ckpt.File, error) {
	if f.dead.Load() {
		return nil, errDied
	}
	return f.FS.CreateTemp(dir, pattern)
}

func (f diesAfterDoneFS) Rename(oldpath, newpath string) error {
	if f.dead.Load() {
		return errDied
	}
	if err := f.FS.Rename(oldpath, newpath); err != nil {
		return err
	}
	if filepath.Base(newpath) == manifestFile {
		var j Job
		if raw, err := os.ReadFile(newpath); err == nil && json.Unmarshal(raw, &j) == nil && j.State == StateDone {
			f.dead.Store(true)
		}
	}
	return nil
}

// TestRecoveredDoneJobEndsWithDone: the commit that flips a manifest to done
// may be the last write a job gets — the process can die before the rewrite
// that adds the done event — and the reopened spool must still report the
// job done with a complete timeline ending in done.
func TestRecoveredDoneJobEndsWithDone(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.FS = diesAfterDoneFS{FS: ckpt.OSFS, dead: new(atomic.Bool)}
	m := mustOpen(t, cfg)
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, m, j.ID); got.State != StateDone {
		t.Fatalf("job: %s (%s)", got.State, got.Error)
	}
	m.Close()

	cfg2 := testConfig(t)
	cfg2.Dir = cfg.Dir
	got, err := mustOpen(t, cfg2).Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	phases := strings.Join(timelinePhases(got), ",")
	want := strings.Join([]string{PhaseSpool, PhaseQueued, PhaseRunning, PhaseCommit, PhaseDone}, ",")
	if got.State != StateDone || phases != want {
		t.Fatalf("recovered job %s with timeline %s, want done with %s", got.State, phases, want)
	}
	assertMonotone(t, got)
}

func TestTimelineRecordsDrainRequeue(t *testing.T) {
	shapes, data := testDataset()
	cfg := testConfig(t)
	cfg.Workers = 1
	started := make(chan string, 16)
	block := make(chan struct{})
	var once bool
	cfg.BeforeRun = func(id string) {
		if !once {
			once = true
			started <- id
			<-block
		}
	}
	m := mustOpen(t, cfg)
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started")
	}
	// Drain while the job is mid-run: it must requeue (queued event with a
	// drain note) rather than fail.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- m.Drain(ctx) }()
	for !m.Stats().Draining {
		time.Sleep(time.Millisecond)
	}
	close(block)
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	assertMonotone(t, got)
	phases := timelinePhases(got)
	sawRunning := false
	for _, p := range phases {
		if p == PhaseRunning {
			sawRunning = true
		}
	}
	if !sawRunning {
		t.Fatalf("timeline %v missing running phase", phases)
	}
	// The run started under the drain's cancellation, so it is requeued with
	// the requeue recorded.
	if got.State != StateQueued {
		t.Fatalf("drained job state %s (%s), want queued", got.State, got.Error)
	}
	if last := got.Timeline[len(got.Timeline)-1]; last.Phase != PhaseQueued || last.Note != "drain" {
		t.Fatalf("drained job ends timeline with %+v: %v", last, phases)
	}
}

func TestTimelineJSONShape(t *testing.T) {
	shapes, data := testDataset()
	m := mustOpen(t, testConfig(t))
	j, err := m.Submit(Spec{}, shapes, data)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, m, j.ID)
	raw, err := json.Marshal(done)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"timeline"`)) {
		t.Fatalf("job JSON missing timeline: %s", raw)
	}
	var back Job
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Timeline) != len(done.Timeline) {
		t.Fatalf("timeline did not round-trip: %d vs %d", len(back.Timeline), len(done.Timeline))
	}
}
