package main

// Crash matrix for the out-of-core spill path (DESIGN.md §10): a run under
// -max-mem must survive being killed at any point inside a spill commit, and
// injected filesystem faults on spill writes, without ever leaving a torn
// spill directory — recovery (a plain rerun) is byte-identical to an
// undisturbed run, and LoadSpilled over the crashed directory either opens a
// fully-committed state or reports none at all.

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

	"github.com/s3pg/s3pg/internal/rdf"
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
// that) and still produce outputs byte-identical to the unconstrained run.
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

	n, e, s, _ := outPaths(t, filepath.Join(dir, "spill"))
	spillDir := filepath.Join(dir, "graph.spill")
	code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
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

// TestCrashDuringSpillRecovery kills the process immediately before a
// rename of a spill commit — a spill makes two, the segment file's and then
// the MANIFEST's — in the first spill, a middle one and the one that folds
// the first tier, and asserts the two recovery invariants: the spill
// directory is never torn (LoadSpilled opens exactly the state the last
// completed spill committed, or reports ErrNoSpill before the first), and a
// plain rerun over the leftovers converges to byte-identical outputs.
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
	// The uncrashed governed run says how many slots each spill committed.
	n, e, s, _ := outPaths(t, filepath.Join(dir, "schedule"))
	code, _, errOut := execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, filepath.Join(dir, "schedule.spill"))...)
	if code != 0 {
		t.Fatalf("governed run exit %d: %s", code, errOut)
	}
	var committed []int // committed[i]: slots on disk once spill i+1 completed
	for _, m := range regexp.MustCompile(`spilled (\d+) triple slots`).FindAllStringSubmatch(errOut, -1) {
		slots, _ := strconv.Atoi(m[1])
		committed = append(committed, slots)
	}
	const fold = 9 // the spill that finds eight tier-0 segments
	if len(committed) <= fold {
		t.Fatalf("governed run spilled %d times, want more than %d: %s", len(committed), fold, errOut)
	}

	for _, tc := range []struct {
		name          string
		spill, rename int // crash before this rename (1 segment, 2 MANIFEST) of this spill
	}{
		{"first-segment", 1, 1}, {"first-manifest", 1, 2},
		{"middle-segment", 5, 1}, {"middle-manifest", 5, 2},
		{"fold-segment", fold, 1}, {"fold-manifest", fold, 2},
		{"after-fold", fold + 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, "crash-"+tc.name)
			n, e, s, _ := outPaths(t, caseDir)
			spillDir := filepath.Join(caseDir, "graph.spill")

			crashAt := 2*(tc.spill-1) + tc.rename
			code, _, errOut := execCLI(t, []string{fmt.Sprintf("%s=%d", crashDuringSpillEnv, crashAt)},
				spillArgsFor(shapes, data, n, e, s, spillDir)...)
			if code != crashExitCode {
				t.Fatalf("crashed run exit %d, want %d (stderr: %s)", code, crashExitCode, errOut)
			}
			for _, p := range []string{n, e, s} {
				if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("crashed run left output %s", p)
				}
			}

			// Never torn: the directory holds what the previous spill
			// committed, complete, or nothing — whatever the crashed spill
			// had written so far must not show.
			g, err := rdf.LoadSpilled(spillDir)
			switch {
			case tc.spill == 1:
				if !errors.Is(err, rdf.ErrNoSpill) {
					t.Fatalf("crash inside the first spill: LoadSpilled = %v, want ErrNoSpill", err)
				}
			case err != nil:
				t.Fatalf("crashed spill dir is torn: %v", err)
			case g.NumSlots() != committed[tc.spill-2]:
				t.Fatalf("LoadSpilled opened %d slots, spill %d committed %d", g.NumSlots(), tc.spill-1, committed[tc.spill-2])
			}
			segs, err := filepath.Glob(filepath.Join(spillDir, "seg-[0-9][0-9][0-9][0-9][0-9][0-9]"))
			if err != nil {
				t.Fatal(err)
			}
			want := tc.spill - 1 // one file per completed spill...
			if tc.rename == 2 {
				want++ // ...plus the crashed spill's, renamed but not yet named by a MANIFEST
			}
			if tc.spill > fold {
				want -= fold - 1 // ...and the fold replaced nine with one
			}
			if len(segs) != want {
				t.Fatalf("spill directory holds %d segment files %v, want %d", len(segs), segs, want)
			}

			// Recovery: rerun from scratch over the leftover partial files.
			code, _, errOut = execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
			if code != 0 {
				t.Fatalf("recovery rerun exit %d: %s", code, errOut)
			}
			if !bytes.Equal(readFile(t, n), readFile(t, bn)) ||
				!bytes.Equal(readFile(t, e), readFile(t, be)) ||
				!bytes.Equal(readFile(t, s), readFile(t, bs)) {
				t.Fatal("post-crash recovery outputs differ from the unconstrained run")
			}
		})
	}
}

// TestFaultInjectedSpill drives the governed run through the fault-injecting
// filesystem. Transient regimes must be absorbed by the retry policy and
// converge to byte-identical outputs in one run; hard regimes must fail the
// run cleanly — no committed outputs, no torn spill directory — after which
// a fault-free rerun recovers byte-identically.
func TestFaultInjectedSpill(t *testing.T) {
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

	cases := []struct {
		name, spec string
		transient  bool
	}{
		// The nested nodes+edges commit spans 8 counted FS ops per attempt,
		// so the transient period must exceed that or every retry of the
		// output commit deterministically re-faults.
		{"transient-fs", "fstransientevery=30", true},
		{"hard-sync", "failsync=1", false},
		{"hard-rename", "failrename=2", false},
		// shortevery=1 makes every write short: per-file fault schedules
		// restart with each retry's fresh temp file, so this regime never
		// converges and must fail cleanly instead.
		{"short-writes", "seed=7,shortevery=1", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			caseDir := filepath.Join(dir, "fault-"+tc.name)
			n, e, s, _ := outPaths(t, caseDir)
			spillDir := filepath.Join(caseDir, "graph.spill")

			code, _, errOut := execCLI(t, []string{faultFSEnv + "=" + tc.spec},
				spillArgsFor(shapes, data, n, e, s, spillDir)...)
			if tc.transient {
				if code != 0 {
					t.Fatalf("transient faults should be retried to success, got exit %d: %s", code, errOut)
				}
			} else if code == 0 {
				t.Fatalf("hard fault regime %q did not fail the run", tc.spec)
			} else {
				for _, p := range []string{n, e, s} {
					if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("failed run left output %s", p)
					}
				}
				if _, err := rdf.LoadSpilled(spillDir); err != nil && !errors.Is(err, rdf.ErrNoSpill) {
					t.Fatalf("faulted spill dir is torn: %v", err)
				}
				// Fault-free recovery rerun.
				code, _, errOut = execCLI(t, nil, spillArgsFor(shapes, data, n, e, s, spillDir)...)
				if code != 0 {
					t.Fatalf("recovery rerun exit %d: %s", code, errOut)
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
