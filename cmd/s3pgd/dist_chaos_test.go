package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
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
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
)

// distReference is the sequential single-process pipeline over the shared
// dataset — the bytes every distributed run must reproduce exactly.
var distReference = sync.OnceValue(func() map[string][]byte {
	shapes, data := testDataset()
	ctx := context.Background()
	g, err := rio.LoadNTriplesWith(ctx, strings.NewReader(data), rio.Options{})
	if err != nil {
		panic(err)
	}
	sg, err := rio.ParseTurtleWith(ctx, shapes, rio.Options{})
	if err != nil {
		panic(err)
	}
	schema, err := shacl.FromGraph(sg)
	if err != nil {
		panic(err)
	}
	tr, err := core.TransformWith(ctx, g, schema, core.Parsimonious, nil, core.TransformOptions{Workers: 1})
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

// freeAddr reserves a loopback port and releases it, so a coordinator can be
// restarted on the same address (workers keep their -join URL across the
// restart).
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// startCoordinator launches a -coordinator daemon subprocess on a fixed addr.
func startCoordinator(t *testing.T, name, addr, dataPath, shapesPath, outDir, stateDir string, extraArgs ...string) *daemon {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exitFile := filepath.Join(dir, "exit")
	logPath := filepath.Join(chaosLogDir(t), strings.ReplaceAll(t.Name(), "/", "_")+"-"+name+".log")
	logF, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	args := append([]string{
		"-coordinator",
		"-addr", addr,
		"-data", dataPath,
		"-shapes", shapesPath,
		"-out", outDir,
		"-state", stateDir,
	}, extraArgs...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1", exitFileEnv+"="+exitFile)
	cmd.Stdout, cmd.Stderr = logF, logF
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	d := &daemon{t: t, cmd: cmd, addr: addr, exitFile: exitFile, logPath: logPath, waitErr: make(chan error, 1)}
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
	// Ready when the control surface answers.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if code, _, err := d.get("/healthz"); err == nil && code == http.StatusOK {
			return d
		}
		select {
		case werr := <-d.waitErr:
			d.waitErr <- werr
			t.Fatalf("coordinator exited before serving: %v (log: %s)", werr, d.logPath)
		default:
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("coordinator never served on %s (log: %s)", addr, d.logPath)
	return nil
}

// distStatus mirrors the GET /dist/status payload fields the test reads.
type distStatus struct {
	State   string `json:"state"`
	Resumed bool   `json:"resumed"`
	Done    int    `json:"done"`
	Total   int    `json:"total"`
	Shards  []struct {
		ID          int    `json:"id"`
		State       string `json:"state"`
		Completions int    `json:"completions"`
		Worker      string `json:"worker"`
	} `json:"shards"`
}

func (d *daemon) distStatus(t *testing.T) distStatus {
	t.Helper()
	code, raw, err := d.get("/dist/status")
	if err != nil || code != http.StatusOK {
		t.Fatalf("dist status: %d %v (log: %s)", code, err, d.logPath)
	}
	var s distStatus
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatalf("dist status: %v\n%s", err, raw)
	}
	return s
}

// waitDistDone polls /dist/status until done reaches n or the deadline hits.
func (d *daemon) waitDistDone(t *testing.T, n int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s := d.distStatus(t); s.Done >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("coordinator never completed %d shards (log: %s)", n, d.logPath)
}

// waitDistMerged polls until the run reports its outputs committed.
func (d *daemon) waitDistMerged(t *testing.T, timeout time.Duration) distStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if s := d.distStatus(t); s.State == "merged" {
			return s
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("distributed run never merged (log: %s)", d.logPath)
	return distStatus{}
}

// distCounters scrapes the coordinator's JSON metrics snapshot.
func (d *daemon) distCounters(t *testing.T) map[string]int64 {
	t.Helper()
	code, raw, err := d.get("/metrics")
	if err != nil || code != http.StatusOK {
		t.Fatalf("metrics: %d %v", code, err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics: %v\n%s", err, raw)
	}
	return snap.Counters
}

// TestDistChaosMatrix is the distributed-transform robustness proof: a
// coordinator shards the input over three worker daemons — one straggler that
// gets SIGKILLed mid-shard, one with transient filesystem faults injected into
// its spool commits, one healthy — while the coordinator itself is SIGTERMed
// mid-run and restarted against the same state directory. Every shard must
// complete exactly once, the committed outputs must be byte-identical to the
// sequential single-process pipeline, and the reassignment/requeue machinery
// must be visible in the metrics.
func TestDistChaosMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess chaos matrix")
	}
	shapes, data := testDataset()
	want := distReference()

	inputDir := t.TempDir()
	dataPath := filepath.Join(inputDir, "input.nt")
	shapesPath := filepath.Join(inputDir, "shapes.ttl")
	if err := os.WriteFile(dataPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shapesPath, []byte(shapes), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "out")
	stateDir := filepath.Join(t.TempDir(), "state")
	coordAddr := freeAddr(t)
	coordURL := "http://" + coordAddr

	// The worker fleet. Workers are full job daemons with -join: the victim
	// stalls 45s per shard so SIGKILL is guaranteed to land mid-shard, the
	// faulty one commits its shard spool through a transient-fault filesystem,
	// the healthy one just works.
	victim := startDaemon(t, filepath.Join(t.TempDir(), "spool"), "victim",
		[]string{shardDelayEnv + "=45s"},
		"-join", coordURL, "-worker-id", "victim", "-shard-concurrency", "2")
	startDaemon(t, filepath.Join(t.TempDir(), "spool"), "faulty",
		[]string{faultFSEnv + "=seed=5,fstransientevery=5"},
		"-join", coordURL, "-worker-id", "faulty", "-shard-concurrency", "4")
	startDaemon(t, filepath.Join(t.TempDir(), "spool"), "healthy", nil,
		"-join", coordURL, "-worker-id", "healthy", "-shard-concurrency", "4")

	coordArgs := []string{
		"-dist-shards", "32",
		"-lease", "1s",
		"-speculate-after", "1500ms",
		"-wait-workers", "60s",
		"-shard-attempts", "10",
		"-linger", "120s",
	}

	// Phase 1: run until real progress exists, then SIGTERM the coordinator
	// mid-flight. It must exit 0 with the ledger committed.
	c1 := startCoordinator(t, "coord1", coordAddr, dataPath, shapesPath, outDir, stateDir, coordArgs...)
	c1.waitDistDone(t, 3, 60*time.Second)
	if err := c1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c1.wait(); code != 0 {
		t.Fatalf("interrupted coordinator exit %d (log: %s)", code, c1.logPath)
	}
	if got := readExitReason(t, c1); got != "dist-interrupted" {
		t.Fatalf("exit reason %q, want dist-interrupted (log: %s)", got, c1.logPath)
	}

	// Phase 2: restart on the same address and state directory. The workers'
	// join loops re-register on their own; the ledger resumes.
	c2 := startCoordinator(t, "coord2", coordAddr, dataPath, shapesPath, outDir, stateDir, coordArgs...)
	if !logWaitEvent(t, c2.logPath, "ledger_resumed", 20*time.Second) {
		t.Fatalf("restarted coordinator did not resume the ledger (log: %s)", c2.logPath)
	}
	resumed := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline) && !resumed; {
		resumed = c2.distStatus(t).Resumed
		if !resumed {
			time.Sleep(10 * time.Millisecond)
		}
	}
	if !resumed {
		t.Fatalf("status never reported resumed (log: %s)", c2.logPath)
	}

	// SIGKILL the straggler mid-shard: its lease expires within ~1s, the
	// coordinator evicts it and requeues whatever it was holding.
	c2.waitDistDone(t, 8, 60*time.Second)
	if err := victim.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.wait()

	status := c2.waitDistMerged(t, 120*time.Second)

	// Exactly-once: every shard done with exactly one accepted completion, and
	// nothing ever completed on the dead straggler alone.
	if status.Done != status.Total || status.Total != 32 {
		t.Fatalf("done=%d total=%d, want 32/32", status.Done, status.Total)
	}
	for _, s := range status.Shards {
		if s.State != "done" || s.Completions != 1 {
			t.Errorf("shard %d: state=%s completions=%d, want done/1", s.ID, s.State, s.Completions)
		}
	}

	// Byte-identity with the sequential pipeline.
	for name, wantRaw := range want {
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatalf("output %s: %v", name, err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Errorf("%s differs from the sequential pipeline (%d vs %d bytes)", name, len(got), len(wantRaw))
		}
	}

	// The robustness machinery actually fired: shards were requeued (victim
	// eviction and/or the coordinator restart) and speculatively reassigned
	// (the straggler's 45s stalls), and the eviction is in the log.
	counters := c2.distCounters(t)
	if counters["dist.shard.requeued"] == 0 {
		t.Errorf("dist.shard.requeued is 0; counters: %v (log: %s)", counters, c2.logPath)
	}
	if counters["dist.shard.reassigned"] == 0 {
		t.Errorf("dist.shard.reassigned is 0; counters: %v (log: %s)", counters, c2.logPath)
	}
	// The victim may have died within a lease of the last shard completing:
	// the lingering coordinator still notices, a lease later at most.
	if !logWaitEvent(t, c2.logPath, "worker_evicted", 10*time.Second) {
		t.Errorf("coordinator log missing worker_evicted (log: %s)", c2.logPath)
	}

	// The coordinator lingers for scraping, then a SIGTERM ends it cleanly.
	if err := c2.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c2.wait(); code != 0 {
		t.Fatalf("lingering coordinator exit %d (log: %s)", code, c2.logPath)
	}
	if got := readExitReason(t, c2); got != "dist-done" {
		t.Fatalf("exit reason %q, want dist-done (log: %s)", got, c2.logPath)
	}
}

// TestDistCoordinatorAloneDegradesLocal: a coordinator with no workers at all
// must still produce byte-identical outputs by degrading every shard to local
// execution.
func TestDistCoordinatorAloneDegradesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	shapes, data := testDataset()
	want := distReference()
	inputDir := t.TempDir()
	dataPath := filepath.Join(inputDir, "input.nt")
	shapesPath := filepath.Join(inputDir, "shapes.ttl")
	if err := os.WriteFile(dataPath, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shapesPath, []byte(shapes), 0o644); err != nil {
		t.Fatal(err)
	}
	outDir := filepath.Join(t.TempDir(), "out")
	c := startCoordinator(t, "solo", freeAddr(t), dataPath, shapesPath, outDir,
		filepath.Join(t.TempDir(), "state"),
		"-dist-shards", "6", "-wait-workers", "100ms", "-linger", "60s")
	status := c.waitDistMerged(t, 120*time.Second)
	for _, s := range status.Shards {
		if s.Worker != "local" {
			t.Errorf("shard %d ran on %q with no workers", s.ID, s.Worker)
		}
	}
	for name, wantRaw := range want {
		got, err := os.ReadFile(filepath.Join(outDir, name))
		if err != nil {
			t.Fatalf("output %s: %v", name, err)
		}
		if !bytes.Equal(got, wantRaw) {
			t.Errorf("%s differs from the sequential pipeline", name)
		}
	}
	if err := c.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := c.wait(); code != 0 {
		t.Fatalf("coordinator exit %d (log: %s)", code, c.logPath)
	}
}

// logWaitEvent polls a daemon log for a structured event.
func logWaitEvent(t *testing.T, path, msg string, timeout time.Duration) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if logHasEvent(t, path, msg) {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}
