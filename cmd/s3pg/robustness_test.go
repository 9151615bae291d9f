package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/batch"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/obs"
)

// writeCorruptFixtures materializes the university fixture with the injected
// corruption corpus as CLI input files.
func writeCorruptFixtures(t *testing.T) (dir, shapes, data string, corruptions int) {
	t.Helper()
	dir = t.TempDir()
	shapes = filepath.Join(dir, "shapes.ttl")
	if err := os.WriteFile(shapes, []byte(fixtures.UniversityShapesTurtle), 0o644); err != nil {
		t.Fatal(err)
	}
	src, corruptions := fixtures.CorruptUniversityNTriples()
	data = filepath.Join(dir, "dirty.nt")
	if err := os.WriteFile(data, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, shapes, data, corruptions
}

// TestRunExitCodesMalformed pins the exit-status contract on broken inputs:
// strict parses of corrupted data exit 1, exhausted lenient error budgets
// exit 1, and -timeout expiry exits 3.
func TestRunExitCodesMalformed(t *testing.T) {
	dir, shapes, data, _ := writeCorruptFixtures(t)
	truncated := filepath.Join(dir, "truncated.ttl")
	if err := os.WriteFile(truncated,
		[]byte(fixtures.UniversityShapesTurtle[:len(fixtures.UniversityShapesTurtle)/2]),
		0o644); err != nil {
		t.Fatal(err)
	}
	dataArgs := func(extra ...string) []string {
		// extra comes last so tests can override the defaults (the flag
		// package keeps the final occurrence).
		return append([]string{"data",
			"-shapes", shapes, "-data", data,
			"-nodes", filepath.Join(dir, "n.csv"),
			"-edges", filepath.Join(dir, "e.csv"),
			"-schema", filepath.Join(dir, "s.ddl")}, extra...)
	}
	cases := []struct {
		name       string
		args       []string
		want       int
		wantStderr string
	}{
		{"nonexistent data file",
			dataArgs("-data", filepath.Join(dir, "absent.nt")), exitError, "no such file"},
		{"strict corrupted data",
			dataArgs(), exitError, "line "},
		{"truncated turtle shapes",
			[]string{"schema", "-shapes", truncated}, exitError, "turtle"},
		{"lenient error budget exceeded",
			dataArgs("-lenient", "-max-errors", "2"), exitError, "too many parse errors"},
		{"timeout expiry",
			dataArgs("-timeout", "1ns"), exitTimeout, "deadline exceeded"},
		{"timeout flag on invert",
			[]string{"invert", "-timeout", "1ns",
				"-schema", filepath.Join(dir, "absent.ddl"), "-nodes", "x", "-edges", "x"},
			exitError, "no such file"},
		{"negative max-errors is unlimited",
			dataArgs("-lenient", "-max-errors", "-1"), exitOK, "skipped"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.wantStderr) {
				t.Fatalf("stderr %q does not mention %q", stderr.String(), tc.wantStderr)
			}
		})
	}
}

// TestRunLenientSummary checks the lenient skip summary: the exact count, the
// first few offending statements, and the overflow marker.
func TestRunLenientSummary(t *testing.T) {
	dir, shapes, data, corruptions := writeCorruptFixtures(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"data", "-lenient",
		"-shapes", shapes, "-data", data,
		"-nodes", filepath.Join(dir, "n.csv"),
		"-edges", filepath.Join(dir, "e.csv"),
		"-schema", filepath.Join(dir, "s.ddl"),
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	msg := stderr.String()
	want := fmt.Sprintf("skipped %d malformed statement(s)", corruptions)
	if !strings.Contains(msg, want) {
		t.Fatalf("stderr %q lacks %q", msg, want)
	}
	if !strings.Contains(msg, "unterminated") {
		t.Fatalf("stderr %q shows no offending statement detail", msg)
	}
	if rest := corruptions - batch.MaxShownSkips; rest > 0 {
		if !strings.Contains(msg, fmt.Sprintf("and %d more", rest)) {
			t.Fatalf("stderr %q lacks the overflow marker for %d more", msg, rest)
		}
	}
}

// TestRunLenientAcceptance is the acceptance criterion end to end: lenient
// mode over a fixture with injected corruptions must complete the full
// transformation and produce a property graph identical to the clean-input
// one minus the corrupted statements (which here carry no clean triples, so
// the inverted graphs must match exactly).
func TestRunLenientAcceptance(t *testing.T) {
	dir, shapes, data, _ := writeCorruptFixtures(t)
	nodes := filepath.Join(dir, "n.csv")
	edges := filepath.Join(dir, "e.csv")
	ddl := filepath.Join(dir, "s.ddl")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"data", "-lenient",
		"-shapes", shapes, "-data", data,
		"-nodes", nodes, "-edges", edges, "-schema", ddl,
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	back := filepath.Join(dir, "back.nt")
	if code := run([]string{
		"invert", "-schema", ddl, "-nodes", nodes, "-edges", edges, "-out", back,
	}, &stdout, &stderr); code != exitOK {
		t.Fatalf("invert exit %d, stderr: %s", code, stderr.String())
	}
	f, err := os.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	g, err := s3pg.LoadNTriples(f)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(fixtures.UniversityGraph()) {
		t.Fatal("lenient transform of the corrupted fixture does not round-trip to the clean graph")
	}
}

// TestLenientJobMatchesCLI: an s3pgd job reads its shapes as `s3pg data`
// does. A malformed statement in them refuses a strict job at submission;
// a lenient job skips it, and its outputs are the bytes `s3pg data -lenient`
// writes for the same input.
func TestLenientJobMatchesCLI(t *testing.T) {
	dir, _, data, corruptions := writeCorruptFixtures(t)
	shapesSrc := strings.Replace(fixtures.UniversityShapesTurtle, "shape:Student a sh:NodeShape",
		"shape:Broken a sh:NodeShape ; sh:targetClass ] .\n\nshape:Student a sh:NodeShape", 1)
	shapes := filepath.Join(dir, "broken.ttl")
	if err := os.WriteFile(shapes, []byte(shapesSrc), 0o644); err != nil {
		t.Fatal(err)
	}
	cli := map[string]string{
		batch.NodesFile:  filepath.Join(dir, "n.csv"),
		batch.EdgesFile:  filepath.Join(dir, "e.csv"),
		batch.SchemaFile: filepath.Join(dir, "s.ddl"),
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"data", "-lenient", "-shapes", shapes, "-data", data,
		"-nodes", cli[batch.NodesFile], "-edges", cli[batch.EdgesFile], "-schema", cli[batch.SchemaFile],
	}, &stdout, &stderr); code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}

	m, err := jobs.Open(jobs.Config{Dir: filepath.Join(dir, "spool"), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	dataSrc := string(readFile(t, data))
	if _, err := m.Submit(jobs.Spec{}, shapesSrc, dataSrc); !errors.Is(err, jobs.ErrInvalid) {
		t.Fatalf("strict job over malformed shapes: %v, want ErrInvalid", err)
	}
	j, err := m.Submit(jobs.Spec{Lenient: true}, shapesSrc, dataSrc)
	if err != nil {
		t.Fatalf("lenient job over malformed shapes: %v", err)
	}
	for deadline := time.Now().Add(30 * time.Second); !j.State.Terminal() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		if j, err = m.Get(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	if j.State != jobs.StateDone || j.Skipped != int64(corruptions)+1 {
		t.Fatalf("job ended %s with %d skipped, want done with %d: %s", j.State, j.Skipped, corruptions+1, j.Error)
	}
	for name, path := range cli {
		out, err := m.OutputPath(j.ID, name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readFile(t, out), readFile(t, path)) {
			t.Errorf("the job's %s differs from s3pg data -lenient's", name)
		}
	}
}

// TestRunLenientMetricsCounters checks that a lenient run over dirty and
// non-conforming data surfaces the robustness counters in the -metrics
// snapshot: skipped statements, SHACL violations, and degradations.
func TestRunLenientMetricsCounters(t *testing.T) {
	dir, shapes, data, _ := writeCorruptFixtures(t)
	// Append statements that parse but do not conform: an untyped subject
	// (degraded to a generic label) and a Person missing its mandatory name
	// (a cardinality violation).
	dirty, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	dirty = append(dirty, []byte(
		"<http://example.org/univ#mystery> <http://example.org/univ#name> \"Mystery\" .\n"+
			"<http://example.org/univ#carol> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Person> .\n")...)
	if err := os.WriteFile(data, dirty, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"data", "-lenient", "-metrics", "-",
		"-shapes", shapes, "-data", data,
		"-nodes", filepath.Join(dir, "n.csv"),
		"-edges", filepath.Join(dir, "e.csv"),
		"-schema", filepath.Join(dir, "s.ddl"),
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("metrics output is not JSON: %v\n%s", err, stdout.String())
	}
	for _, c := range []string{"rio.ntriples.skipped", "shacl.violations", "core.transform.degraded"} {
		if snap.Counters[c] <= 0 {
			t.Errorf("counter %s = %d, want > 0 (counters: %v)", c, snap.Counters[c], snap.Counters)
		}
	}
	if !strings.Contains(stderr.String(), "violation") {
		t.Errorf("stderr %q lacks the violation report", stderr.String())
	}
	if !strings.Contains(stderr.String(), "degradation fallback") {
		t.Errorf("stderr %q lacks the degradation summary", stderr.String())
	}
}

// TestRunCommandPanicRecovery checks the panic boundary: an internal panic
// becomes a runtime error (exit 1) with the stack on stderr, not a crash.
func TestRunCommandPanicRecovery(t *testing.T) {
	var stderr bytes.Buffer
	err := runCommand(func([]string, io.Writer, io.Writer) error {
		panic("boom")
	}, nil, io.Discard, &stderr)
	if err == nil || !strings.Contains(err.Error(), "internal panic: boom") {
		t.Fatalf("err = %v, want internal panic", err)
	}
	if !strings.Contains(stderr.String(), "goroutine") {
		t.Fatalf("stderr %q carries no stack trace", stderr.String())
	}
}
