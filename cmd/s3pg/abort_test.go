package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// hasLogEvent reports whether a stderr capture contains a structured log
// record with the given msg field. Plain-text lines (errors, usage) are
// skipped, so assertions are pinned to the log schema, not to prose that a
// wording change could silently decouple from the tests.
func hasLogEvent(out, msg string) bool {
	for _, line := range strings.Split(out, "\n") {
		var rec struct {
			Msg string `json:"msg"`
		}
		if json.Unmarshal([]byte(line), &rec) == nil && rec.Msg == msg {
			return true
		}
	}
	return false
}

// hasText matches a stderr capture containing sub.
func hasText(sub string) func(string) bool {
	return func(out string) bool { return strings.Contains(out, sub) }
}

// waitForStderr polls a concurrently-filled stderr buffer until match
// accepts it.
func waitForStderr(mu *sync.Mutex, buf *bytes.Buffer, match func(string) bool, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		mu.Lock()
		found := match(buf.String())
		mu.Unlock()
		if found {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return false
}

// lockedWriter serializes subprocess stderr writes with test-side reads.
type lockedWriter struct {
	mu  *sync.Mutex
	buf *bytes.Buffer
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

// TestSecondSignalAbortsImmediately: the first SIGINT asks for a graceful
// stop (exit 4 at the next safe point); a second SIGINT before the process
// has exited must abort at once with exit 1 and the structured aborted event.
// The abort is a hard os.Exit, so temp litter is permitted, but every output
// it left is complete — the uninterrupted run's bytes — and a rerun converges
// to those bytes.
func TestSecondSignalAbortsImmediately(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess timing test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 3, true)

	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs, "-lenient")...); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}
	want := map[string][]byte{"nodes": readFile(t, bn), "edges": readFile(t, be), "schema": readFile(t, bs)}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	// The degradation summary is printed after the last safe point, just
	// before the commits, so a signal sent once it shows finds the run
	// committing; a graceful stop then waits for the commits. Transient FS
	// faults stretch them across retry backoffs (an output commit counts 4
	// FS ops per attempt, so a period of 9 faults a different op of each
	// retry) — room for the second signal.
	faultEnv := faultFSEnv + "=fstransientevery=9"

	aborted := false
	for attempt := 0; attempt < 5 && !aborted; attempt++ {
		n, e, s, _ := outPaths(t, filepath.Join(dir, fmt.Sprintf("abort%d", attempt)))
		cmd := exec.Command(exe, dataArgsFor(shapes, data, n, e, s, "-lenient")...)
		cmd.Env = append(os.Environ(), runMainEnv+"=1", faultEnv)
		var mu sync.Mutex
		var eb bytes.Buffer
		cmd.Stderr = &lockedWriter{mu: &mu, buf: &eb}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		if !waitForStderr(&mu, &eb, hasText("degradation fallbacks"), 10*time.Second) {
			_ = cmd.Wait()
			t.Fatalf("no degradation summary on stderr: %s", eb.String())
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			_ = cmd.Wait()
			continue // already exited; try again
		}
		if !waitForStderr(&mu, &eb, func(out string) bool { return hasLogEvent(out, "interrupt") }, 5*time.Second) {
			_ = cmd.Wait() // finished before the signal landed; try again
			continue
		}
		if err := cmd.Process.Signal(os.Interrupt); err != nil {
			_ = cmd.Wait()
			continue // exited between the two signals; try again
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
		switch {
		case hasLogEvent(errOut, "aborted"):
			if code != exitError {
				t.Fatalf("two-signal abort: exit %d, want %d (stderr: %s)", code, exitError, errOut)
			}
			aborted = true
		case code == 0:
			continue // the commits finished under both signals; try again
		default:
			t.Fatalf("unexpected exit %d (stderr: %s)", code, errOut)
		}

		for name, p := range map[string]string{"nodes": n, "edges": e, "schema": s} {
			got, err := os.ReadFile(p)
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[name]) {
				t.Fatalf("abort left a %s file that is not the uninterrupted run's (%d vs %d bytes)", name, len(got), len(want[name]))
			}
		}
		code, _, errOut = execCLI(t, []string{faultEnv}, dataArgsFor(shapes, data, n, e, s, "-lenient")...)
		if code != 0 {
			t.Fatalf("rerun after abort: exit %d: %s", code, errOut)
		}
		if !bytes.Equal(readFile(t, n), want["nodes"]) ||
			!bytes.Equal(readFile(t, e), want["edges"]) ||
			!bytes.Equal(readFile(t, s), want["schema"]) {
			t.Fatal("rerun after abort: outputs differ from the uninterrupted run")
		}
	}
	if !aborted {
		t.Skip("second signal never landed before the commits completed")
	}
}
