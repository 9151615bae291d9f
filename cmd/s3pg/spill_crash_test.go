package main

// Failure matrix for the out-of-core spill path (DESIGN.md §10): whatever a
// run under -max-mem leaves in its spill directory when it dies — killed, or
// failed by an injected filesystem fault — a plain rerun over it is
// byte-identical to an undisturbed run. Spilled state is scratch, so there
// is nothing to reopen, only to overwrite and remove.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// spillArgsFor builds a data invocation under a 1 MiB heap budget — far below
// any real Go heap, so the governor spills at every opportunity.
func spillArgsFor(shapes, data, nodes, edges, schema, spillDir string, extra ...string) []string {
	args := []string{"data", "-shapes", shapes, "-data", data,
		"-nodes", nodes, "-edges", edges, "-schema", schema,
		"-max-mem", "1", "-spill", spillDir}
	return append(args, extra...)
}

// TestSpillRunMatchesUnconstrained: the hard out-of-core gate at test scale —
// a governed run under a 1 MiB watermark must spill (the heap is always past
// that) and still produce outputs byte-identical to the unconstrained run, at
// -workers 1 and with parallel parsing beside the governed admission.
func TestSpillRunMatchesUnconstrained(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.5, false)

	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, "data", "-shapes", shapes, "-data", data,
		"-nodes", bn, "-edges", be, "-schema", bs); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}

	for _, workers := range []string{"1", "2"} {
		t.Run("workers="+workers, func(t *testing.T) {
			n, e, s, _ := outPaths(t, filepath.Join(dir, "spill-"+workers))
			spillDir := filepath.Join(dir, "graph.spill-"+workers)
			code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir, "-workers", workers)...)
			if code != 0 {
				t.Fatalf("governed run exit %d: %s", code, errOut)
			}
			if !strings.Contains(errOut, "out-of-core") {
				t.Fatalf("governed run did not report spilling: %s", errOut)
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
				!bytes.Equal(readFile(t, e), readFile(t, be)) ||
				!bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatal("governed out-of-core outputs differ from the unconstrained run")
			}
			// Spilled state is scratch: a completed run cleans it up.
			if _, err := os.Stat(spillDir); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("completed run left spill directory %s", spillDir)
			}
		})
	}
}

// TestMaxMemSpillsBesideDataByDefault: -max-mem alone, or with -spill auto,
// spills into <data>.spill, reports it, completes with the unconstrained
// run's bytes and removes the directory. -max-mem no longer needs another
// flag to be accepted, and this is the whole of what it does.
func TestMaxMemSpillsBesideDataByDefault(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.5, false)
	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs)...); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}

	for _, tc := range []struct {
		name  string
		extra []string
	}{
		{"default", nil},
		{"auto", []string{"-spill", "auto"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n, e, s, _ := outPaths(t, filepath.Join(dir, tc.name))
			args := dataArgsFor(shapes, data, n, e, s, append([]string{"-max-mem", "1"}, tc.extra...)...)
			code, _, errOut := execCLI(t, nil, args...)
			if code != 0 {
				t.Fatalf("governed run exit %d: %s", code, errOut)
			}
			if !strings.Contains(errOut, "ran out-of-core") || !strings.Contains(errOut, data+".spill") {
				t.Fatalf("governed run did not report spilling beside the data file: %s", errOut)
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
				!bytes.Equal(readFile(t, e), readFile(t, be)) ||
				!bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatal("governed out-of-core outputs differ from the unconstrained run")
			}
			if _, err := os.Stat(data + ".spill"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("completed run left spill directory %s.spill", data)
			}
		})
	}
}

// TestCrashDuringSpillRecovery reruns over what a dead run leaves in the
// spill directory: the leftovers of a killed run (a MANIFEST of the layout
// that had one, stale segment files, a temporary a rename never claimed),
// and the directory of a run failed by a hard fault in one spill's write —
// a rename fault in the first spill, a middle one, the one that folds the
// first tier and the first one after that fold, and a create fault that
// fails the first spill before its segment exists. No filesystem operation
// follows a segment's rename, so no fault leaves a named segment the run
// never adopted; the killed run's stale segments stand for those. A failed
// run removes the directory it made; the rerun must write the unconstrained
// run's bytes and remove what it made, and nothing else: the killed run's
// leftovers sit in a directory that was there before the rerun, so they
// stay. A run whose spills meet transient faults must do the same without
// a rerun.
func TestCrashDuringSpillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	// Big enough that the governor, which re-spills once the tail holds
	// 10 000 triples, spills often enough to fill a tier and fold it.
	shapes, data := writeGeneratedDataset(t, dir, 22, false)

	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, "data", "-shapes", shapes, "-data", data,
		"-nodes", bn, "-edges", be, "-schema", bs); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}
	// Every file a governed run writes before its outputs is a spill's
	// segment, written through one create and one rename and never synced,
	// so failcreate=k (failrename=k) fails the k-th spill — if the run
	// spills k times.
	n, e, s, _ := outPaths(t, filepath.Join(dir, "schedule"))
	code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, filepath.Join(dir, "schedule.spill"))...)
	if code != 0 {
		t.Fatalf("governed run exit %d: %s", code, errOut)
	}
	const fold = 9 // the spill that finds eight tier-0 segments
	if spills := strings.Count(errOut, "continuing out-of-core"); spills <= fold+1 {
		t.Fatalf("governed run spilled %d times, want more than %d: %s", spills, fold+1, errOut)
	}

	killed := map[string]string{
		"MANIFEST":              `{"version":2,"next_seq":3,"terms":10,"slots":20,"n_dead":0,"segments":[{"file":"seg-000000","tier":0,"terms":[0,10],"slots":[0,20],"footer":4}],"dead":"AAAAAAAAAAA="}`,
		"seg-000000":            "stale segment",
		"seg-000001":            "stale segment",
		"seg-000002.tmp-123456": "torn temporary",
	}
	for _, tc := range []struct {
		name     string
		leftover map[string]string // files a killed run left, or nil
		fault    string            // the hard fault that fails a spill, or ""
	}{
		{name: "killed-run-leftovers", leftover: killed},
		{name: "failed-first-spill", fault: "failrename=1"},
		{name: "failed-middle-spill", fault: "failrename=5"},
		{name: "failed-folding-spill", fault: fmt.Sprintf("failrename=%d", fold)},
		{name: "after-fold", fault: fmt.Sprintf("failrename=%d", fold+1)},
		{name: "failed-first-create", fault: "failcreate=1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, "dead-"+tc.name)
			n, e, s, _ := outPaths(t, caseDir)
			spillDir := filepath.Join(caseDir, "graph.spill")
			if tc.leftover != nil {
				if err := os.MkdirAll(spillDir, 0o755); err != nil {
					t.Fatal(err)
				}
			}
			for name, body := range tc.leftover {
				if err := os.WriteFile(filepath.Join(spillDir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if tc.fault != "" {
				code, _, errOut := execCLI(t, []string{faultFSEnv + "=" + tc.fault},
					spillArgsFor(shapes, data, n, e, s, spillDir)...)
				if code != exitError || !strings.Contains(errOut, "spill: ") {
					t.Fatalf("faulted run exit %d, want %d failing a spill (stderr: %s)", code, exitError, errOut)
				}
				for _, p := range []string{n, e, s} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("failed run left output %s", p)
					}
				}
				if _, err := os.Stat(spillDir); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("failed run left its spill directory %s", spillDir)
				}
			}

			code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
			if code != 0 {
				t.Fatalf("rerun exit %d: %s", code, errOut)
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
				!bytes.Equal(readFile(t, e), readFile(t, be)) ||
				!bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatal("rerun outputs differ from the unconstrained run")
			}
			if tc.leftover == nil {
				if _, err := os.Stat(spillDir); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("rerun left spill directory %s", spillDir)
				}
				return
			}
			entries, err := os.ReadDir(spillDir)
			if err != nil {
				t.Fatal(err)
			}
			for _, en := range entries {
				if body, ok := tc.leftover[en.Name()]; !ok || string(readFile(t, filepath.Join(spillDir, en.Name()))) != body {
					t.Fatalf("rerun left %s in the killed run's directory, or changed it", en.Name())
				}
			}
			if len(entries) != len(tc.leftover) {
				t.Fatalf("rerun removed the killed run's leftovers: %d of %d remain", len(entries), len(tc.leftover))
			}
		})
	}

	// A spill makes two filesystem operations, so a transient fault every
	// 9th one lands in the 5th spill's create and, the retried spill
	// counting one more, in the 9th's; the load hook spills again after
	// each. Later faults land in the output commits, three of them (edges,
	// nodes, schema) whose attempts of 4 operations each fit between two, so
	// the run succeeds with no file written twice.
	t.Run("transient-faults-in-spills", func(t *testing.T) {
		caseDir := filepath.Join(dir, "transient")
		n, e, s, _ := outPaths(t, caseDir)
		spillDir := filepath.Join(caseDir, "graph.spill")
		code, _, errOut := execCLI(t, []string{faultFSEnv + "=fstransientevery=9"},
			spillArgsFor(shapes, data, n, e, s, spillDir)...)
		if code != 0 {
			t.Fatalf("transient faults in spills should be retried to success, got exit %d: %s", code, errOut)
		}
		if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
			!bytes.Equal(readFile(t, e), readFile(t, be)) ||
			!bytes.Equal(readFile(t, s), readFile(t, bs)) {
			t.Fatal("outputs differ from the unconstrained run")
		}
		if _, err := os.Stat(spillDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run left spill directory %s", spillDir)
		}
	})
}

// TestSpillIntoExistingDirectoryKeepsItsFiles: -spill names a directory
// that already holds files. The run spills into a fresh directory inside
// it, writes the unconstrained run's bytes, and removes only what it made.
func TestSpillIntoExistingDirectoryKeepsItsFiles(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 0.5, false)
	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, dataArgsFor(shapes, data, bn, be, bs)...); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}
	spillDir := filepath.Join(dir, "work")
	kept := map[string]string{"sentinel.txt": "mine", filepath.Join("sub", "x"): "also mine"}
	for name, body := range kept {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(spillDir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(spillDir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n, e, s, _ := outPaths(t, filepath.Join(dir, "out"))
	code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
	if code != 0 {
		t.Fatalf("governed run exit %d: %s", code, errOut)
	}
	if spillCount(errOut) < 1 {
		t.Fatalf("governed run did not spill: %s", errOut)
	}
	if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
		!bytes.Equal(readFile(t, e), readFile(t, be)) ||
		!bytes.Equal(readFile(t, s), readFile(t, bs)) {
		t.Fatal("governed out-of-core outputs differ from the unconstrained run")
	}
	for name, body := range kept {
		if got, err := os.ReadFile(filepath.Join(spillDir, name)); err != nil || string(got) != body {
			t.Fatalf("%s after the run: %q, %v", name, got, err)
		}
	}
	if entries, _ := os.ReadDir(spillDir); len(entries) != 2 {
		t.Fatalf("the run left %d entries in %s, want the 2 it found", len(entries), spillDir)
	}
}

// faultSpills is how many spills a governed run over the fault matrix's
// input makes: University @ 9.5 (≈ 56 k statements) spills at the first
// check and then each time the resident tail has grown past the governor's
// 10 000-statement minimum, after 4 096, 16 384, 28 672, 40 960 and 53 248
// statements.
const faultSpills = 5

// spillCount reads the count of the "ran out-of-core: N spill(s)" line of a
// run's stderr, -1 when the line is missing.
func spillCount(stderr string) int {
	m := regexp.MustCompile(`ran out-of-core: (\d+) spill\(s\)`).FindStringSubmatch(stderr)
	if m == nil {
		return -1
	}
	n, _ := strconv.Atoi(m[1])
	return n
}

// TestFaultInjectedSpill drives the governed run through the fault-injecting
// filesystem. A spill makes two counted filesystem operations, the segment's
// create and its rename (no fsync), and the run makes five spills before
// the outputs' commit, so the spill rows' faults land in a spill: the
// transient one must be absorbed by the retry policy and converge to
// byte-identical outputs in one run; the hard ones must fail the run cleanly
// in a spill — no committed outputs — after which a fault-free rerun
// recovers byte-identically. One row fails the first fsync, which is the
// outputs' commit's: spills make none.
func TestFaultInjectedSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	shapes, data := writeGeneratedDataset(t, dir, 9.5, false)

	bn, be, bs, _ := outPaths(t, filepath.Join(dir, "base"))
	if code, _, errOut := execCLI(t, nil, "data", "-shapes", shapes, "-data", data,
		"-nodes", bn, "-edges", be, "-schema", bs); code != 0 {
		t.Fatalf("baseline exit %d: %s", code, errOut)
	}

	cases := []struct {
		name, spec string
		transient  bool
		inSpill    bool // the (first) fault lands in a spill
	}{
		// Operations 1-8 are the first four spills' creates and renames, so
		// the 9th, the fifth spill's create, takes the first transient fault.
		// Each of the three output commits spans 4 counted FS ops per
		// attempt, so the period must exceed that or every retry of a commit
		// deterministically re-faults.
		{"transient-spill-create", "fstransientevery=9", true, true},
		{"hard-spill-create", "failcreate=1", false, true},
		{"hard-spill-rename", "failrename=2", false, true},
		{"hard-sync-commit", "failsync=1", false, false},
		// shortevery=1 makes every write short: per-file fault schedules
		// restart with each retry's fresh temp file, so this regime never
		// converges and must fail cleanly instead.
		{"short-writes", "seed=7,shortevery=1", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, "fault-"+tc.name)
			n, e, s, _ := outPaths(t, caseDir)
			spillDir := filepath.Join(caseDir, "graph.spill")

			code, _, errOut := execCLI(t, []string{faultFSEnv + "=" + tc.spec},
				spillArgsFor(shapes, data, n, e, s, spillDir, "-metrics", filepath.Join(caseDir, "metrics.json"))...)
			if tc.transient {
				if code != 0 {
					t.Fatalf("transient faults should be retried to success, got exit %d: %s", code, errOut)
				}
				if got := spillCount(errOut); got != faultSpills {
					t.Fatalf("the run made %d spills, want %d: %s", got, faultSpills, errOut)
				}
				if m := readFile(t, filepath.Join(caseDir, "metrics.json")); !regexp.MustCompile(`"cli\.commit\.retries": *[1-9]`).Match(m) {
					t.Fatalf("no transient fault was retried: %s", m)
				}
			} else if code == 0 {
				t.Fatalf("hard fault regime %q did not fail the run", tc.spec)
			} else {
				if got := strings.Contains(errOut, "error: spill: "); got != tc.inSpill {
					t.Fatalf("the fault landed in a spill: %v, want %v: %s", got, tc.inSpill, errOut)
				}
				for _, p := range []string{n, e, s} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("failed run left output %s", p)
					}
				}
				// Fault-free recovery rerun.
				code, _, errOut = execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
				if code != 0 {
					t.Fatalf("recovery rerun exit %d: %s", code, errOut)
				}
				if got := spillCount(errOut); got != faultSpills {
					t.Fatalf("the rerun made %d spills, want %d: %s", got, faultSpills, errOut)
				}
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
				!bytes.Equal(readFile(t, e), readFile(t, be)) ||
				!bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatal("fault-regime outputs differ from the unconstrained run")
			}
		})
	}
}
