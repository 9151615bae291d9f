package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/s3pg/s3pg/internal/datagen"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/shapeex"
)

// The crash tests re-execute the test binary as the real CLI (TestMain
// dispatches to main when the marker env var is set), so exits, signals, and
// the env-gated fault hooks behave exactly as in production.
const runMainEnv = "S3PG_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main() // exits the process with the CLI's status
		return
	}
	os.Exit(m.Run())
}

// execCLI re-runs the test binary as the s3pg CLI and returns its exit code.
func execCLI(t *testing.T, extraEnv []string, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), append([]string{runMainEnv + "=1"}, extraEnv...)...)
	var ob, eb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &ob, &eb
	err = cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		code = 0
	case errors.As(err, &ee):
		code = ee.ExitCode()
	default:
		t.Fatalf("exec: %v", err)
	}
	return code, ob.String(), eb.String()
}

// writeGeneratedDataset materializes a seeded synthetic dataset and its
// extracted shapes.
func writeGeneratedDataset(t *testing.T, dir string, scale float64, dirty bool) (shapesPath, dataPath string) {
	t.Helper()
	p := datagen.University()
	g := datagen.Generate(p, scale, 7)
	shapes := shapeex.Extract(g, shapeex.Options{MinSupport: 0.01})

	shapesPath = filepath.Join(dir, "shapes.ttl")
	sf, err := os.Create(shapesPath)
	if err != nil {
		t.Fatal(err)
	}
	tw := rio.NewTurtleWriter()
	tw.Prefix("d", p.NS)
	tw.Prefix("shape", shapeex.ShapeNS)
	if err := tw.Write(sf, shacl.ToGraph(shapes)); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	dataPath = filepath.Join(dir, "data.nt")
	df, err := os.Create(dataPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rio.WriteNTriples(df, g); err != nil {
		t.Fatal(err)
	}
	if dirty {
		// Malformed lines and an untyped subject at the end: a -lenient run
		// reports the skips once the input is loaded and a degradation once
		// the transform is done.
		_, err = df.WriteString("this line is not a triple\n" +
			"<http://x/untyped> <http://x/p> \"dangling\" .\n" +
			"also garbage\n")
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := df.Close(); err != nil {
		t.Fatal(err)
	}
	return shapesPath, dataPath
}

// outPaths creates dir and returns the run's output locations inside it,
// and dir itself.
func outPaths(t *testing.T, dir string) (nodes, edges, schema, outDir string) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "nodes.csv"), filepath.Join(dir, "edges.csv"),
		filepath.Join(dir, "schema.ddl"), dir
}

func dataArgsFor(shapes, data, nodes, edges, schema string, extra ...string) []string {
	args := []string{"data", "-shapes", shapes, "-data", data,
		"-nodes", nodes, "-edges", edges, "-schema", schema}
	return append(args, extra...)
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// noTempFiles asserts no abandoned atomic-commit temp files are left in dir.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) > 0 {
		t.Fatalf("abandoned temp files: %v", matches)
	}
}

// TestInterruptLeavesCompleteOrAbsentOutput: a SIGINT that lands before the
// outputs are committed must exit with the interrupt status and the
// structured interrupt event, leave every output path untouched and no temp
// file behind, and a rerun must then produce the uninterrupted run's bytes.
func TestInterruptLeavesCompleteOrAbsentOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess timing test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 3, true)

	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs, "-lenient")...); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The scheduler decides when the signal lands, so try a few times. It is
	// sent once the skip summary shows the input loaded: validation and the
	// transform still lie ahead of the last safe point.
	for attempt := 0; attempt < 5; attempt++ {
		n, e, s, rd := outPaths(t, filepath.Join(dir, fmt.Sprintf("int%d", attempt)))
		cmd := exec.Command(exe, dataArgsFor(shapes, data, n, e, s, "-lenient")...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1")
		var mu sync.Mutex
		var eb bytes.Buffer
		cmd.Stderr = &lockedWriter{mu: &mu, buf: &eb}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if !waitForStderr(&mu, &eb, hasText("malformed statement"), 10*time.Second) {
			_ = cmd.Wait()
			t.Fatalf("no skip summary on stderr: %s", eb.String())
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			t.Fatal(err)
		}
		err := cmd.Wait()
		code := 0
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			code = ee.ExitCode()
		} else if err != nil {
			t.Fatal(err)
		}
		errOut := eb.String()
		if code == 0 {
			continue // the commits began before the signal landed; try again
		}
		if code != exitInterrupt {
			t.Fatalf("interrupted run: exit %d, want %d (stderr: %s)", code, exitInterrupt, errOut)
		}
		if !hasLogEvent(errOut, "interrupt") {
			t.Fatalf("missing structured interrupt event in stderr: %s", errOut)
		}
		for _, p := range []string{n, e, s} {
			if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("interrupted run left output %s", p)
			}
		}
		noTempFiles(t, rd)

		code, _, errOut = execCLI(t, nil, dataArgsFor(shapes, data, n, e, s, "-lenient")...)
		if code != 0 {
			t.Fatalf("rerun after interrupt: exit %d: %s", code, errOut)
		}
		if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
			!bytes.Equal(readFile(t, e), readFile(t, be)) ||
			!bytes.Equal(readFile(t, s), readFile(t, bs)) {
			t.Fatal("rerun outputs differ from the uninterrupted run")
		}
		return
	}
	t.Skip("the commits began before SIGINT landed on every attempt; machine too fast for the timing window")
}

// TestFaultInjectedCommitNeverTearsOutputs: hard faults at each stage of the
// atomic commit (sync, rename) must fail the run without leaving a partial
// or stale-temp output file.
func TestFaultInjectedCommitNeverTearsOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.1, false)
	for _, spec := range []string{"failsync=1", "failrename=1", "failcreate=1"} {
		t.Run(spec, func(t *testing.T) {
			rd := filepath.Join(dir, strings.ReplaceAll(spec, "=", "_"))
			n, e, s, _ := outPaths(t, rd)
			args := []string{"data", "-shapes", shapes, "-data", data,
				"-nodes", n, "-edges", e, "-schema", s}
			code, _, errOut := execCLI(t, []string{faultFSEnv + "=" + spec}, args...)
			if code != exitError {
				t.Fatalf("faulted run: exit %d, want %d (stderr: %s)", code, exitError, errOut)
			}
			for _, p := range []string{n, e, s} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("faulted run left output %s", p)
				}
			}
			noTempFiles(t, rd)
		})
	}
}

// TestMalformedFaultFSFailsBeforeInput: a malformed S3PG_FAULT_FS stops a run
// before it reads any input — the data file here does not exist, so an error
// naming it would mean the input came first — with one error line and exit 1,
// no stack dump and no output.
func TestMalformedFaultFSFailsBeforeInput(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir, shapes, _ := writeFixtures(t)
	n, e, s, _ := outPaths(t, filepath.Join(dir, "out"))
	code, _, errOut := execCLI(t, []string{faultFSEnv + "=bogus"}, "data", "-shapes", shapes,
		"-data", filepath.Join(dir, "missing.nt"), "-nodes", n, "-edges", e, "-schema", s)
	if code != exitError {
		t.Fatalf("exit %d, want %d (stderr: %s)", code, exitError, errOut)
	}
	if want := "s3pg: error: " + faultFSEnv + ": "; !strings.HasPrefix(errOut, want) || strings.Count(errOut, "\n") != 1 {
		t.Fatalf("stderr %q, want one line starting %q", errOut, want)
	}
	for _, p := range []string{n, e, s} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("the run left output %s", p)
		}
	}
}

// requireCommittedPrefix checks what a run that failed at its k-th output
// commit left behind: the k-1 outputs committed before it (edges, nodes,
// schema, in that order) hold the uninterrupted run's bytes, and the others
// are absent — never torn, and no temp file beside them.
func requireCommittedPrefix(t *testing.T, k int, dir string, got, want []string) {
	t.Helper()
	present := 0
	for i, p := range got {
		b, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, readFile(t, want[i])) {
			t.Fatalf("fault at commit %d: %s is not the uninterrupted run's", k, filepath.Base(p))
		}
		present++
	}
	if present != k-1 {
		t.Fatalf("fault at commit %d: %d outputs committed, want %d", k, present, k-1)
	}
	noTempFiles(t, dir)
}

// TestRerunAfterEveryCommitFault: a run that fails at each output commit in
// turn leaves only complete outputs, and rerunning the same command over
// what it left produces the uninterrupted run's bytes. A rerun is how the
// whole-graph path recovers from a crash, so this is the resume guarantee
// the deleted -checkpoint pipeline made, on the one path that is left.
// Strict and lenient (dirty-input) variants both hold.
func TestRerunAfterEveryCommitFault(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess matrix")
	}
	for _, dirty := range []bool{false, true} {
		name := "strict"
		if dirty {
			name = "lenient-dirty"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			shapes, data := writeGeneratedDataset(t, dir, 0.5, dirty)
			var lenientFlag []string
			if dirty {
				lenientFlag = []string{"-lenient"}
			}
			bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
			if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs, lenientFlag...)...); code != 0 {
				t.Fatalf("baseline exit %d: %s", code, errOut)
			}

			faulted := 0
			for k := 1; ; k++ {
				n, e, s, rd := outPaths(t, filepath.Join(dir, fmt.Sprintf("fault%d", k)))
				args := dataArgsFor(shapes, data, n, e, s, lenientFlag...)
				code, _, errOut := execCLI(t, []string{fmt.Sprintf("%s=failrename=%d", faultFSEnv, k)}, args...)
				if code == 0 {
					break // fewer than k commits in a run: matrix complete
				}
				if code != exitError {
					t.Fatalf("fault at commit %d: exit %d, want %d (stderr: %s)", k, code, exitError, errOut)
				}
				faulted++
				requireCommittedPrefix(t, k, rd, []string{e, n, s}, []string{be, bn, bs})

				if code, _, errOut := execCLI(t, nil, args...); code != 0 {
					t.Fatalf("rerun after fault at commit %d: exit %d: %s", k, code, errOut)
				}
				if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
					!bytes.Equal(readFile(t, e), readFile(t, be)) ||
					!bytes.Equal(readFile(t, s), readFile(t, bs)) {
					t.Fatalf("rerun after fault at commit %d: outputs differ from the uninterrupted run", k)
				}
			}
			if faulted != 3 {
				t.Fatalf("%d commit points exercised, want 3 (edges, nodes, schema)", faulted)
			}
		})
	}
}

// TestRerunAfterCommitFaultAcrossWorkerCounts: the transform is
// byte-deterministic across -workers, so a run that failed between its
// commits at one worker count may be rerun at another, and the outputs are
// still the sequential run's.
func TestRerunAfterCommitFaultAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess matrix")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.5, true)
	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs, "-lenient", "-workers", "1")...); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}

	for _, wk := range [][2]string{{"4", "1"}, {"1", "4"}} {
		t.Run("fault_w"+wk[0]+"_rerun_w"+wk[1], func(t *testing.T) {
			n, e, s, rd := outPaths(t, filepath.Join(dir, "w"+wk[0]+"to"+wk[1]))
			// The second rename is the nodes file's: edges.csv is committed
			// at workers=wk[0], nodes.csv and schema.ddl are not.
			args := dataArgsFor(shapes, data, n, e, s, "-lenient", "-workers", wk[0])
			code, _, errOut := execCLI(t, []string{faultFSEnv + "=failrename=2"}, args...)
			if code != exitError {
				t.Fatalf("faulted run at workers=%s: exit %d, want %d (stderr: %s)", wk[0], code, exitError, errOut)
			}
			requireCommittedPrefix(t, 2, rd, []string{e, n, s}, []string{be, bn, bs})

			rerun := dataArgsFor(shapes, data, n, e, s, "-lenient", "-workers", wk[1])
			if code, _, errOut := execCLI(t, nil, rerun...); code != 0 {
				t.Fatalf("rerun at workers=%s: exit %d: %s", wk[1], code, errOut)
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) {
				t.Fatalf("workers %s→%s: nodes differ from sequential run", wk[0], wk[1])
			}
			if !bytes.Equal(readFile(t, e), readFile(t, be)) {
				t.Fatalf("workers %s→%s: edges differ from sequential run", wk[0], wk[1])
			}
			if !bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatalf("workers %s→%s: schema differs from sequential run", wk[0], wk[1])
			}
		})
	}
}

// TestDataWorkersByteIdenticalCLI drives the CLI at several worker counts over a dirty corpus and requires every
// output file and the stderr skip summary to match the sequential run.
func TestDataWorkersByteIdenticalCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.3, true)

	runAt := func(workers string) (nodes, edges, schema []byte, stderr string) {
		rd := filepath.Join(dir, "w"+workers)
		n, e, s, _ := outPaths(t, rd)
		args := []string{"data", "-shapes", shapes, "-data", data,
			"-nodes", n, "-edges", e, "-schema", s, "-lenient", "-workers", workers}
		code, _, errOut := execCLI(t, nil, args...)
		if code != 0 {
			t.Fatalf("workers=%s: exit %d: %s", workers, code, errOut)
		}
		return readFile(t, n), readFile(t, e), readFile(t, s), errOut
	}

	wantN, wantE, wantS, wantErr := runAt("1")
	for _, workers := range []string{"2", "8"} {
		gotN, gotE, gotS, gotErr := runAt(workers)
		if !bytes.Equal(gotN, wantN) || !bytes.Equal(gotE, wantE) || !bytes.Equal(gotS, wantS) {
			t.Fatalf("workers=%s: outputs differ from sequential run", workers)
		}
		if gotErr != wantErr {
			t.Fatalf("workers=%s: stderr differs:\n--- sequential ---\n%s\n--- parallel ---\n%s", workers, wantErr, gotErr)
		}
	}
}
