package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/promlint"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// The chaos tests re-execute the test binary as the real daemon (TestMain
// dispatches to main when the marker env var is set), so signals, exits, and
// the env-gated fault hooks behave exactly as in production.
const runMainEnv = "S3PGD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main() // exits the process with the daemon's status
		return
	}
	os.Exit(m.Run())
}

// universityDataset generates seeded University data and its extracted
// shapes, in the forms the daemon takes: Turtle and N-Triples.
func universityDataset(scale float64) (string, string) {
	p := datagen.University()
	g := datagen.Generate(p, scale, 7)
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
}

// testDataset is the live graphs' base data.
var testDataset = sync.OnceValues(func() (string, string) { return universityDataset(0.3) })

// jobDataset is what every job transforms: ≈ 18 k triples, so a job the test
// has seen start is still running when its signal lands.
var jobDataset = sync.OnceValues(func() (string, string) { return universityDataset(3) })

// baselineOutputs is what `s3pg data` writes for jobDataset — the whole graph
// through core.TransformWith, fault-free, in-process — and so what every job
// must serve, byte for byte.
var baselineOutputs = sync.OnceValue(func() map[string][]byte {
	shapes, data := jobDataset()
	sg, err := shacl.FromGraph(fixtures.MustParseTurtle(shapes))
	if err != nil {
		panic(err)
	}
	g, err := rio.LoadNTriples(strings.NewReader(data))
	if err != nil {
		panic(err)
	}
	tr, err := core.TransformWith(context.Background(), g, sg, core.Parsimonious, nil, core.TransformOptions{Workers: 1})
	if err != nil {
		panic(err)
	}
	var nodes, edges bytes.Buffer
	if err := tr.Store().WriteCSV(&nodes, &edges); err != nil {
		panic(err)
	}
	return map[string][]byte{
		"nodes.csv":  nodes.Bytes(),
		"edges.csv":  edges.Bytes(),
		"schema.ddl": []byte(pgschema.WriteDDL(tr.Schema())),
	}
})

// daemon wraps one re-executed s3pgd subprocess.
type daemon struct {
	t        *testing.T
	cmd      *exec.Cmd
	addr     string
	spool    string
	addrFile string
	exitFile string
	logPath  string
	waitErr  chan error
}

// chaosLogDir resolves where daemon logs land: the CI artifact directory
// when S3PGD_CHAOS_LOG_DIR is set, a test temp dir otherwise.
func chaosLogDir(t *testing.T) string {
	if dir := os.Getenv("S3PGD_CHAOS_LOG_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	return t.TempDir()
}

// startDaemon launches the daemon against spool and waits until it serves.
func startDaemon(t *testing.T, spool, name string, extraEnv []string, extraArgs ...string) *daemon {
	t.Helper()
	d := launchDaemon(t, spool, name, extraEnv, extraArgs...)
	d.awaitAddr(5 * time.Millisecond)
	return d
}

// launchDaemon starts the daemon against spool without waiting for it.
func launchDaemon(t *testing.T, spool, name string, extraEnv []string, extraArgs ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr")
	exitFile := filepath.Join(dir, "exit")
	logPath := filepath.Join(chaosLogDir(t), strings.ReplaceAll(t.Name(), "/", "_")+"-"+name+".log")
	logF, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-spool", spool,
		"-workers", "2",
		"-lameduck", "250ms",
		"-drain-timeout", "60s",
	}, extraArgs...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(),
		runMainEnv+"=1",
		exitFileEnv+"="+exitFile,
	)
	cmd.Env = append(cmd.Env, extraEnv...)
	cmd.Stdout, cmd.Stderr = logF, logF
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, spool: spool, addrFile: addrFile, exitFile: exitFile, logPath: logPath, waitErr: make(chan error, 1)}
	go func() {
		d.waitErr <- cmd.Wait()
		logF.Close()
	}()
	t.Cleanup(func() {
		select {
		case <-d.waitErr:
		default:
			_ = cmd.Process.Kill()
			<-d.waitErr
		}
	})
	return d
}

// awaitAddr polls for the daemon's address file every poll and records the
// address it holds.
func (d *daemon) awaitAddr(poll time.Duration) {
	d.t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		raw, err := os.ReadFile(d.addrFile)
		if err == nil && len(raw) > 0 {
			d.addr = strings.TrimSpace(string(raw))
			return
		}
		select {
		case werr := <-d.waitErr:
			d.waitErr <- werr
			d.t.Fatalf("daemon exited before serving: %v (log: %s)", werr, d.logPath)
		default:
		}
		time.Sleep(poll)
	}
	d.t.Fatalf("daemon never wrote %s (log: %s)", d.addrFile, d.logPath)
}

// wait blocks for process exit and returns the exit code.
func (d *daemon) wait() int {
	err := <-d.waitErr
	d.waitErr <- err // keep Cleanup happy
	var ee *exec.ExitError
	switch {
	case err == nil:
		return 0
	case errors.As(err, &ee):
		return ee.ExitCode()
	default:
		d.t.Fatalf("daemon wait: %v", err)
		return -1
	}
}

func (d *daemon) url(path string) string { return "http://" + d.addr + path }

func (d *daemon) get(path string) (int, []byte, error) {
	resp, err := http.Get(d.url(path))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// submit posts one transform job over jobDataset and returns the accepted
// job record.
func (d *daemon) submit(t *testing.T) jobs.Job {
	t.Helper()
	shapes, data := jobDataset()
	body, err := json.Marshal(map[string]any{"shapes": shapes, "data": data})
	if err != nil {
		t.Fatal(err)
	}
	// Transient faults can surface as 503 (breaker cooling down); retry a
	// few times — the accepted/rejected distinction is what matters, and
	// acceptance must be durable.
	for attempt := 0; ; attempt++ {
		resp, err := http.Post(d.url("/jobs"), "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatalf("submit: %v (log: %s)", err, d.logPath)
		}
		raw, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			t.Fatal(rerr)
		}
		switch resp.StatusCode {
		case http.StatusAccepted:
			var j jobs.Job
			if err := json.Unmarshal(raw, &j); err != nil {
				t.Fatalf("submit response: %v\n%s", err, raw)
			}
			return j
		case http.StatusServiceUnavailable, http.StatusTooManyRequests:
			if attempt > 100 {
				t.Fatalf("submit shed %d times: %s", attempt, raw)
			}
			time.Sleep(50 * time.Millisecond)
		default:
			t.Fatalf("submit: %d %s", resp.StatusCode, raw)
		}
	}
}

// jobStatus fetches one job record.
func (d *daemon) jobStatus(t *testing.T, id string) (jobs.Job, error) {
	t.Helper()
	code, raw, err := d.get("/jobs/" + id)
	if err != nil {
		return jobs.Job{}, err
	}
	if code != http.StatusOK {
		return jobs.Job{}, fmt.Errorf("status %d: %s", code, raw)
	}
	var j jobs.Job
	if err := json.Unmarshal(raw, &j); err != nil {
		return jobs.Job{}, err
	}
	return j, nil
}

// waitAllDone polls until every id is terminal, requiring state done.
func (d *daemon) waitAllDone(t *testing.T, ids []string) map[string]jobs.Job {
	t.Helper()
	out := map[string]jobs.Job{}
	deadline := time.Now().Add(120 * time.Second)
	for len(out) < len(ids) && time.Now().Before(deadline) {
		for _, id := range ids {
			if _, ok := out[id]; ok {
				continue
			}
			j, err := d.jobStatus(t, id)
			if err != nil {
				t.Fatalf("job %s lost: %v (log: %s)", id, err, d.logPath)
			}
			if j.State.Terminal() {
				if j.State != jobs.StateDone {
					t.Fatalf("job %s failed: %s (log: %s)", id, j.Error, d.logPath)
				}
				out[id] = j
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(out) < len(ids) {
		t.Fatalf("only %d/%d jobs finished in time (log: %s)", len(out), len(ids), d.logPath)
	}
	return out
}

// waitJobRunning polls until one of the jobs is running and returns it.
func (d *daemon) waitJobRunning(t *testing.T, ids []string) jobs.Job {
	t.Helper()
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); {
		for _, id := range ids {
			if j, err := d.jobStatus(t, id); err == nil && j.State == jobs.StateRunning {
				return j
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no job of %v seen running (log: %s)", ids, d.logPath)
	return jobs.Job{}
}

// assertLandedMidRun requires that the job seen running was still running
// when the signal was sent at sentAt: its final timeline records nothing
// between the pickup that was seen and sentAt — its commit, or the requeue
// the drain or the restart recorded, comes after.
func assertLandedMidRun(t *testing.T, seen, final jobs.Job, sentAt time.Time) {
	t.Helper()
	pickup := seen.Timeline[len(seen.Timeline)-1].At
	for _, ev := range final.Timeline {
		if ev.At.After(pickup) && !ev.At.After(sentAt) {
			t.Errorf("job %s recorded %s at %s, before the signal at %s: it was not running when the signal landed (timeline %+v)",
				final.ID, ev.Phase, ev.At.Format(time.RFC3339Nano), sentAt.UTC().Format(time.RFC3339Nano), final.Timeline)
		}
	}
}

// assertOutputsMatchBaseline downloads every output of every job and
// compares byte-for-byte with the fault-free baseline.
func (d *daemon) assertOutputsMatchBaseline(t *testing.T, ids []string) {
	t.Helper()
	want := baselineOutputs()
	for _, id := range ids {
		for _, name := range jobs.OutputFiles {
			code, raw, err := d.get("/jobs/" + id + "/output/" + name)
			if err != nil || code != http.StatusOK {
				t.Fatalf("output %s/%s: %d %v", id, name, code, err)
			}
			if !bytes.Equal(raw, want[name]) {
				t.Errorf("job %s: %s differs from fault-free baseline (%d vs %d bytes)",
					id, name, len(raw), len(want[name]))
			}
		}
	}
}

// scrapePrometheus pulls /metrics in the text exposition format and gates it
// through the conformance linter — an unparseable exposition is a test
// failure, not something a production Prometheus gets to discover.
func (d *daemon) scrapePrometheus(t *testing.T) string {
	t.Helper()
	req, err := http.NewRequest("GET", d.url("/metrics"), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("metrics scrape: %v (log: %s)", err, d.logPath)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: %d %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prometheus scrape content type %q", ct)
	}
	if err := promlint.Lint(bytes.NewReader(raw)); err != nil {
		t.Errorf("%v\nexposition:\n%s", err, raw)
	}
	for _, name := range []string{"s3pgd_http_request_seconds", "s3pgd_job_queue_wait_seconds", "s3pgd_build_info"} {
		if !strings.Contains(string(raw), name) {
			t.Errorf("exposition missing %s", name)
		}
	}
	return string(raw)
}

// assertCompleteTimeline checks a finished job's lifecycle trace: the
// spool→queued→running→…→commit→done phases all present, in an order that
// starts at spool and ends at done, with non-decreasing timestamps — across
// restarts included, since the timeline rides in the manifest.
func assertCompleteTimeline(t *testing.T, j jobs.Job) {
	t.Helper()
	if len(j.Timeline) == 0 {
		t.Errorf("job %s: empty timeline", j.ID)
		return
	}
	seen := map[string]bool{}
	for i, ev := range j.Timeline {
		seen[ev.Phase] = true
		if i > 0 && ev.At.Before(j.Timeline[i-1].At) {
			t.Errorf("job %s: timeline not monotone: %s@%s after %s@%s",
				j.ID, ev.Phase, ev.At.Format(time.RFC3339Nano),
				j.Timeline[i-1].Phase, j.Timeline[i-1].At.Format(time.RFC3339Nano))
		}
	}
	for _, phase := range []string{jobs.PhaseSpool, jobs.PhaseQueued, jobs.PhaseRunning, jobs.PhaseCommit, jobs.PhaseDone} {
		if !seen[phase] {
			t.Errorf("job %s: timeline missing phase %s: %+v", j.ID, phase, j.Timeline)
		}
	}
	if first := j.Timeline[0].Phase; first != jobs.PhaseSpool {
		t.Errorf("job %s: timeline starts with %s, want %s", j.ID, first, jobs.PhaseSpool)
	}
	if last := j.Timeline[len(j.Timeline)-1].Phase; last != jobs.PhaseDone {
		t.Errorf("job %s: timeline ends with %s, want %s", j.ID, last, jobs.PhaseDone)
	}
}

// logHasEvent reports whether a daemon log (JSONL) contains a structured
// record with the given msg field.
func logHasEvent(t *testing.T, path, msg string) bool {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == msg {
			return true
		}
	}
	return false
}

// assertNoTempLitter walks the spool for abandoned atomic-commit temp files.
func assertNoTempLitter(t *testing.T, spool string) {
	t.Helper()
	err := filepath.WalkDir(spool, func(path string, entry os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !entry.IsDir() && strings.Contains(entry.Name(), ".tmp-") {
			t.Errorf("temp litter in spool: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func readExitReason(t *testing.T, d *daemon) string {
	t.Helper()
	raw, err := os.ReadFile(d.exitFile)
	if err != nil {
		t.Fatalf("exit reason: %v (log: %s)", err, d.logPath)
	}
	return strings.TrimSpace(string(raw))
}

// TestChaosMatrix is the headline robustness proof: for each fault regime ×
// kill signal, a daemon accepts concurrent jobs while seed-deterministic I/O
// faults hit every commit, the signal lands while a job is running, and a
// restarted daemon on the same spool must finish every accepted job with
// outputs byte-identical to `s3pg data`'s — no torn files, no lost jobs, and
// /readyz flipping correctly throughout a graceful drain.
func TestChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos matrix")
	}
	const jobsPerCell = 3
	faults := []struct {
		name string
		env  []string
	}{
		{"clean", nil},
		// Periods are kept coprime to the 4 FS ops of one atomic commit
		// (create, sync, rename, dir-sync): a multiple of 4 would fault the
		// same op of every retry, starving commits deterministically.
		{"transient-seed3", []string{faultFSEnv + "=seed=3,fstransientevery=5"}},
		{"transient-seed9", []string{faultFSEnv + "=seed=9,fstransientevery=7"}},
	}
	signals := []struct {
		name     string
		sig      os.Signal
		graceful bool
	}{
		{"sigterm", syscall.SIGTERM, true},
		{"sigkill", os.Kill, false},
	}
	for _, fc := range faults {
		for _, sc := range signals {
			t.Run(fc.name+"/"+sc.name, func(t *testing.T) {
				spool := filepath.Join(t.TempDir(), "spool")

				// Every run stalls once it is running, so the signal sent
				// on seeing a job running lands inside its run.
				phase1Env := append([]string{deltaStallEnv + "=run=500ms"}, fc.env...)
				d := startDaemon(t, spool, "phase1", phase1Env)
				if code, raw, err := d.get("/healthz"); err != nil || code != http.StatusOK {
					t.Fatalf("healthz: %d %s %v", code, raw, err)
				}
				if code, raw, err := d.get("/readyz"); err != nil || code != http.StatusOK {
					t.Fatalf("readyz before chaos: %d %s %v", code, raw, err)
				}

				var ids []string
				for i := 0; i < jobsPerCell; i++ {
					ids = append(ids, d.submit(t).ID)
				}
				// Scrape Prometheus mid-run, with jobs in flight and faults
				// active: the exposition must stay parseable under chaos.
				d.scrapePrometheus(t)
				// The signal lands mid-flight: sent once a job is seen
				// running, checked against the timelines after the restart.
				seen := d.waitJobRunning(t, ids)
				sentAt := time.Now()
				if err := d.cmd.Process.Signal(sc.sig); err != nil {
					t.Fatal(err)
				}

				if sc.graceful {
					// The lame-duck window: /readyz must flip to 503 before
					// the listener closes.
					saw503 := false
					for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
						code, _, err := d.get("/readyz")
						if err != nil {
							break // listener closed — the window is over
						}
						if code == http.StatusServiceUnavailable {
							saw503 = true
							break
						}
						time.Sleep(2 * time.Millisecond)
					}
					if !saw503 {
						t.Errorf("readyz never flipped to 503 during the lame-duck window (log: %s)", d.logPath)
					}
					if code := d.wait(); code != 0 {
						t.Fatalf("graceful drain exit %d (log: %s)", code, d.logPath)
					}
					if got := readExitReason(t, d); got != "drained" {
						t.Fatalf("exit reason %q, want drained (log: %s)", got, d.logPath)
					}
					if !logHasEvent(t, d.logPath, "drained") {
						t.Errorf("daemon log missing structured drained event (log: %s)", d.logPath)
					}
					// A clean drain aborts in-flight commits properly: no
					// temp litter anywhere in the spool.
					assertNoTempLitter(t, spool)
				} else {
					// SIGKILL: no cleanup of any kind ran. Temp litter is
					// permitted; durability of accepted jobs is not optional.
					d.wait()
				}

				// Restart on the same spool, same fault regime: every
				// accepted job must be known and complete with
				// byte-identical outputs.
				d2 := startDaemon(t, spool, "phase2", fc.env)
				finished := d2.waitAllDone(t, ids)
				assertLandedMidRun(t, seen, finished[seen.ID], sentAt)
				// Every accepted job — SIGKILL-rerun ones included — must
				// carry a complete, monotone lifecycle timeline.
				for _, j := range finished {
					assertCompleteTimeline(t, j)
				}
				d2.assertOutputsMatchBaseline(t, ids)
				d2.scrapePrometheus(t)

				// The restarted daemon is healthy and drains cleanly too.
				if code, raw, err := d2.get("/readyz"); err != nil || code != http.StatusOK {
					t.Fatalf("readyz after recovery: %d %s %v", code, raw, err)
				}
				if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
					t.Fatal(err)
				}
				if code := d2.wait(); code != 0 {
					t.Fatalf("final drain exit %d (log: %s)", code, d2.logPath)
				}
				assertNoTempLitter(t, spool)
			})
		}
	}
}

// TestDaemonSecondSignalAborts: during a graceful drain a second signal must
// terminate the daemon immediately with a non-zero exit, and the spool must
// still recover every accepted job on restart.
func TestDaemonSecondSignalAborts(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess timing test")
	}
	spool := filepath.Join(t.TempDir(), "spool")
	// A long lame-duck window makes the two-signal race deterministic: the
	// drain sequence is guaranteed to still be in it when the second signal
	// arrives.
	d := startDaemon(t, spool, "phase1", nil, "-lameduck", "10s")
	id := d.submit(t).ID
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Wait until the drain visibly started (readyz flips), then abort.
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		code, _, err := d.get("/readyz")
		if err != nil || code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(); code == 0 {
		t.Fatalf("aborted daemon exited 0 (log: %s)", d.logPath)
	}
	if got := readExitReason(t, d); got != "aborted" {
		t.Fatalf("exit reason %q, want aborted (log: %s)", got, d.logPath)
	}
	if !logHasEvent(t, d.logPath, "aborted") {
		t.Errorf("daemon log missing structured aborted event (log: %s)", d.logPath)
	}

	// The accepted job survives the abort and completes on restart.
	d2 := startDaemon(t, spool, "phase2", nil)
	d2.waitAllDone(t, []string{id})
	d2.assertOutputsMatchBaseline(t, []string{id})
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d2.wait(); code != 0 {
		t.Fatalf("final drain exit %d", code)
	}
}

// TestPprofGate: /debug/pprof/ serves only when the daemon opted in with
// -pprof-http; the default daemon keeps the profiling surface closed.
func TestPprofGate(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spool := filepath.Join(t.TempDir(), "spool")
	d := startDaemon(t, spool, "nopprof", nil)
	if code, _, err := d.get("/debug/pprof/"); err != nil || code != http.StatusNotFound {
		t.Errorf("pprof index without -pprof-http: %d %v, want 404", code, err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d.wait()

	d2 := startDaemon(t, filepath.Join(t.TempDir(), "spool2"), "pprof", nil, "-pprof-http")
	code, raw, err := d2.get("/debug/pprof/")
	if err != nil || code != http.StatusOK {
		t.Fatalf("pprof index with -pprof-http: %d %v", code, err)
	}
	if !bytes.Contains(raw, []byte("profile")) {
		t.Errorf("pprof index unexpected body: %.200s", raw)
	}
	if err := d2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	d2.wait()
}

// TestRemovedDistFlagsAreUsageErrors: a deployment script that still passes
// a deleted flag — of the distributed mode or of chunked checkpointing — must
// fail loudly (exit 2, flag named on stderr) instead of silently starting a
// plain job server.
func TestRemovedDistFlagsAreUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-coordinator", []string{"-coordinator"}},
		{"-join", []string{"-spool", t.TempDir(), "-join", "http://127.0.0.1:1"}},
		// Chunked checkpointing is gone from the job service too.
		{"-checkpoint-every", []string{"-spool", t.TempDir(), "-checkpoint-every", "64"}},
	} {
		var stderr bytes.Buffer
		if code := run(tc.args, io.Discard, &stderr); code != exitUsage {
			t.Errorf("run(%q) = %d, want %d", tc.args, code, exitUsage)
		}
		if !strings.Contains(stderr.String(), "not defined: "+tc.flag) {
			t.Errorf("run(%q) stderr does not name %s: %.200s", tc.args, tc.flag, stderr.String())
		}
	}
}

// TestTraceFileJSONL: with -trace-file the daemon appends one JSONL record
// per lifecycle transition, and one completed job yields the full
// spool→…→done phase sequence with the job's id on every record.
func TestTraceFileJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spool := filepath.Join(t.TempDir(), "spool")
	tracePath := filepath.Join(t.TempDir(), "trace.jsonl")
	d := startDaemon(t, spool, "trace", nil, "-trace-file", tracePath)
	id := d.submit(t).ID
	d.waitAllDone(t, []string{id})
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(); code != 0 {
		t.Fatalf("drain exit %d (log: %s)", code, d.logPath)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		var rec struct {
			JobID string `json:"job_id"`
			Phase string `json:"phase"`
			At    string `json:"at"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("trace line not JSON: %q: %v", line, err)
		}
		if rec.JobID != id {
			t.Errorf("trace record for unknown job %q", rec.JobID)
		}
		if rec.At == "" {
			t.Errorf("trace record without timestamp: %s", line)
		}
		phases[rec.Phase] = true
	}
	for _, phase := range []string{jobs.PhaseSpool, jobs.PhaseQueued, jobs.PhaseRunning, jobs.PhaseCommit, jobs.PhaseDone} {
		if !phases[phase] {
			t.Errorf("trace file missing phase %s:\n%s", phase, raw)
		}
	}
}

// TestDaemonLogKeysOnce: every daemon log line names each key once — a
// component's logger rebinds "component" instead of adding a second one —
// and a restart over a spool that holds the graphs directory warns about
// no spool entry.
func TestDaemonLogKeysOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spool := filepath.Join(t.TempDir(), "spool")
	var logs []string
	for _, name := range []string{"phase1", "phase2"} {
		d := startDaemon(t, spool, name, nil)
		if name == "phase1" {
			d.waitAllDone(t, []string{d.submit(t).ID})
		}
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if code := d.wait(); code != 0 {
			t.Fatalf("drain exit %d (log: %s)", code, d.logPath)
		}
		logs = append(logs, d.logPath)
	}
	components := map[string]bool{}
	for _, path := range logs {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
			dec := json.NewDecoder(strings.NewReader(line))
			if _, err := dec.Token(); err != nil {
				t.Fatalf("log line not JSON: %q: %v", line, err)
			}
			fields := map[string]string{}
			for dec.More() {
				key, err := dec.Token()
				if err != nil {
					t.Fatalf("log line %q: %v", line, err)
				}
				var v any
				if err := dec.Decode(&v); err != nil {
					t.Fatalf("log line %q: %v", line, err)
				}
				if _, dup := fields[key.(string)]; dup {
					t.Errorf("key %q twice in %s", key, line)
				}
				fields[key.(string)] = fmt.Sprint(v)
			}
			components[fields["component"]] = true
			if fields["msg"] == "spool_entry_skipped" {
				t.Errorf("restart warned about a spool entry: %s", line)
			}
		}
	}
	for _, c := range []string{"s3pgd", "jobs", "server"} {
		if !components[c] {
			t.Errorf("no log line of component %q in %v", c, logs)
		}
	}
}

// TestDaemonSIGTERMAtReadiness: a SIGTERM sent the moment the address file
// appears drains the daemon to exit 0, ten runs in a row. The signal
// handler is registered before the listener opens, so no signal that
// follows readiness can kill the daemon undrained.
func TestDaemonSIGTERMAtReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	for i := 0; i < 10; i++ {
		spool := filepath.Join(t.TempDir(), "spool")
		d := launchDaemon(t, spool, fmt.Sprintf("run%d", i), nil, "-lameduck", "0s")
		d.awaitAddr(50 * time.Microsecond)
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if code := d.wait(); code != 0 {
			t.Fatalf("run %d: exit %d after a SIGTERM at readiness (log: %s)", i, code, d.logPath)
		}
		if !logHasEvent(t, d.logPath, "drained") {
			t.Fatalf("run %d: no drained record in the log (log: %s)", i, d.logPath)
		}
	}
}

// TestDaemonAdmissionControl: a daemon at -max-mem 1 MiB (always exceeded by
// a running Go process) rejects submissions with 503 + Retry-After and
// reports not-ready, while /healthz stays green.
func TestDaemonAdmissionControl(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	spool := filepath.Join(t.TempDir(), "spool")
	d := startDaemon(t, spool, "phase1", nil, "-max-mem", "1")
	shapes, data := testDataset()
	body, _ := json.Marshal(map[string]any{"shapes": shapes, "data": data})
	resp, err := http.Post(d.url("/jobs"), "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit under memory watermark: %d %s", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if code, _, err := d.get("/readyz"); err != nil || code != http.StatusServiceUnavailable {
		t.Fatalf("readyz under memory watermark: %d %v", code, err)
	}
	if code, _, err := d.get("/healthz"); err != nil || code != http.StatusOK {
		t.Fatalf("healthz under memory watermark: %d %v", code, err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(); code != 0 {
		t.Fatalf("drain exit %d", code)
	}
}
