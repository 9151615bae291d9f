package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/s3pg/s3pg"
	"github.com/s3pg/s3pg/internal/fixtures"
	"github.com/s3pg/s3pg/internal/obs"
	"github.com/s3pg/s3pg/internal/rio"
)

// faultFSEnv is the test hook (read by faultio.FSFromEnv) that routes every
// atomic commit and spill of the real binary through a fault-injecting
// filesystem: a comma-separated k=v list over the faultio Plan and FS
// knobs, e.g. "seed=7,shortevery=3,failsync=1".
const faultFSEnv = "S3PG_FAULT_FS"

// writeFixtures materializes the university fixture as CLI input files.
func writeFixtures(t *testing.T) (dir, shapes, data string) {
	t.Helper()
	dir = t.TempDir()
	shapes = filepath.Join(dir, "shapes.ttl")
	if err := os.WriteFile(shapes, []byte(fixtures.UniversityShapesTurtle), 0o644); err != nil {
		t.Fatal(err)
	}
	var nt bytes.Buffer
	if err := rio.WriteNTriples(&nt, fixtures.UniversityGraph()); err != nil {
		t.Fatal(err)
	}
	data = filepath.Join(dir, "data.nt")
	if err := os.WriteFile(data, nt.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, shapes, data
}

func TestCmdSchemaAndDataAndInvert(t *testing.T) {
	dir, shapes, data := writeFixtures(t)
	ddl := filepath.Join(dir, "schema.ddl")
	nodes := filepath.Join(dir, "nodes.csv")
	edges := filepath.Join(dir, "edges.csv")

	if err := cmdSchema([]string{"-shapes", shapes, "-out", ddl}, io.Discard, io.Discard); err != nil {
		t.Fatalf("schema: %v", err)
	}
	out, err := os.ReadFile(ddl)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "CREATE NODE TYPE") {
		t.Fatalf("unexpected DDL:\n%s", out)
	}

	if err := cmdData([]string{
		"-shapes", shapes, "-data", data,
		"-nodes", nodes, "-edges", edges, "-schema", ddl,
	}, io.Discard, io.Discard); err != nil {
		t.Fatalf("data: %v", err)
	}

	back := filepath.Join(dir, "back.nt")
	if err := cmdInvert([]string{
		"-schema", ddl, "-nodes", nodes, "-edges", edges, "-out", back,
	}, io.Discard, io.Discard); err != nil {
		t.Fatalf("invert: %v", err)
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
		t.Fatal("CLI round trip lost information")
	}
}

func TestCmdDataNonParsimonious(t *testing.T) {
	dir, shapes, data := writeFixtures(t)
	if err := cmdData([]string{
		"-shapes", shapes, "-data", data, "-mode", "nonparsimonious",
		"-nodes", filepath.Join(dir, "n.csv"), "-edges", filepath.Join(dir, "e.csv"),
		"-schema", filepath.Join(dir, "s.ddl"),
	}, io.Discard, io.Discard); err != nil {
		t.Fatalf("data: %v", err)
	}
}

func TestCmdValidate(t *testing.T) {
	_, shapes, data := writeFixtures(t)
	if err := cmdValidate([]string{"-shapes", shapes, "-data", data}, io.Discard, io.Discard); err != nil {
		t.Fatalf("validate: %v", err)
	}
	// A graph missing a mandatory property must fail validation.
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte(
		"<http://example.org/univ#x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Person> .\n"),
		0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdValidate([]string{"-shapes", shapes, "-data", bad}, io.Discard, io.Discard); err == nil {
		t.Fatal("expected validation failure")
	}
}

func TestCmdTranslate(t *testing.T) {
	dir, shapes, _ := writeFixtures(t)
	ddl := filepath.Join(dir, "schema.ddl")
	if err := cmdSchema([]string{"-shapes", shapes, "-out", ddl}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	query := filepath.Join(dir, "q.rq")
	if err := os.WriteFile(query, []byte(
		"PREFIX ex: <http://example.org/univ#>\nSELECT ?s ?n WHERE { ?s a ex:Person ; ex:name ?n . }"),
		0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdTranslate([]string{"-schema", ddl, "-query", query}, io.Discard, io.Discard); err != nil {
		t.Fatalf("translate: %v", err)
	}
}

func TestCmdExtract(t *testing.T) {
	dir, _, data := writeFixtures(t)
	out := filepath.Join(dir, "extracted.ttl")
	if err := cmdExtract([]string{"-data", data, "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatalf("extract: %v", err)
	}
	src, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := s3pg.ShapesFromTurtle(string(src))
	if err != nil {
		t.Fatalf("extracted shapes do not parse: %v", err)
	}
	if shapes.Len() == 0 {
		t.Fatal("no shapes extracted")
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdSchema([]string{}, io.Discard, io.Discard); err == nil {
		t.Error("schema without -shapes should fail")
	}
	if err := cmdData([]string{"-shapes", "/nonexistent", "-data", "/nonexistent"}, io.Discard, io.Discard); err == nil {
		t.Error("data with missing files should fail")
	}
	if err := cmdSchema([]string{"-shapes", "/nonexistent"}, io.Discard, io.Discard); err == nil {
		t.Error("missing shapes file should fail")
	}
	if _, err := parseMode("bogus"); err == nil {
		t.Error("bogus mode should fail")
	}
}

// TestRunExitCodes pins the exit-status contract: 0 success, 1 runtime
// errors, 2 usage errors — each with a one-line "s3pg: error:" diagnostic.
func TestRunExitCodes(t *testing.T) {
	dir, shapes, data := writeFixtures(t)
	bad := filepath.Join(dir, "bad.nt")
	if err := os.WriteFile(bad, []byte(
		"<http://example.org/univ#x> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://example.org/univ#Person> .\n"),
		0o644); err != nil {
		t.Fatal(err)
	}
	dataRun := func(extra ...string) []string {
		return append([]string{"data", "-shapes", shapes, "-data", data,
			"-nodes", filepath.Join(dir, "n.csv"), "-edges", filepath.Join(dir, "e.csv"),
			"-schema", filepath.Join(dir, "s.ddl")}, extra...)
	}
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"no command", nil, exitUsage},
		{"unknown command", []string{"frobnicate"}, exitUsage},
		{"undefined flag", []string{"schema", "-bogus"}, exitUsage},
		{"missing required flag", []string{"schema"}, exitUsage},
		{"bad mode value", []string{"schema", "-shapes", shapes, "-mode", "bogus"}, exitUsage},
		{"missing input file", []string{"schema", "-shapes", filepath.Join(dir, "absent.ttl")}, exitError},
		{"validation violations", []string{"validate", "-shapes", shapes, "-data", bad}, exitError},
		// Options of the deleted chunked checkpoint pipeline fail loudly
		// rather than being ignored.
		{"removed -checkpoint", dataRun("-checkpoint", filepath.Join(dir, "run.ckpt")), exitUsage},
		{"removed -resume", dataRun("-resume"), exitUsage},
		{"removed -checkpoint-every", dataRun("-checkpoint-every", "100"), exitUsage},
		{"removed -checkpoint-interval", dataRun("-checkpoint-interval", "1s"), exitUsage},
		{"removed -spill off", dataRun("-max-mem", "64", "-spill", "off"), exitUsage},
		{"help", []string{"schema", "-h"}, exitOK},
		{"success", []string{"validate", "-shapes", shapes, "-data", data}, exitOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			got := run(tc.args, &stdout, &stderr)
			if got != tc.want {
				t.Fatalf("run(%q) = %d, want %d (stderr: %s)", tc.args, got, tc.want, stderr.String())
			}
			if tc.want != exitOK && tc.name != "help" {
				msg := stderr.String()
				if !strings.Contains(msg, "error:") {
					t.Fatalf("expected an error: diagnostic, got %q", msg)
				}
			}
		})
	}
}

// TestRunMetricsSnapshot exercises the acceptance-criterion path: a data
// transform with -metrics - must emit a JSON snapshot carrying ingestion
// triple counts, transform node/edge counters, and the per-phase trace.
func TestRunMetricsSnapshot(t *testing.T) {
	dir, shapes, data := writeFixtures(t)
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"data", "-metrics", "-", "-trace",
		"-shapes", shapes, "-data", data,
		"-nodes", filepath.Join(dir, "nodes.csv"),
		"-edges", filepath.Join(dir, "edges.csv"),
		"-schema", filepath.Join(dir, "schema.ddl"),
	}, &stdout, &stderr)
	if code != exitOK {
		t.Fatalf("exit %d, stderr: %s", code, stderr.String())
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(stdout.Bytes(), &snap); err != nil {
		t.Fatalf("metrics output is not JSON: %v\n%s", err, stdout.String())
	}
	if n := snap.Meters["rio.ntriples.triples"].Count; n <= 0 {
		t.Fatalf("ingestion triple meter = %d, want > 0", n)
	}
	if n := snap.Meters["core.transform.nodes"].Count; n <= 0 {
		t.Fatalf("transform node meter = %d, want > 0", n)
	}
	if n := snap.Meters["core.transform.edges"].Count; n <= 0 {
		t.Fatalf("transform edge meter = %d, want > 0", n)
	}
	if snap.Trace == nil || snap.Trace.Name != "data" {
		t.Fatalf("missing or misnamed trace: %+v", snap.Trace)
	}
	fdt := findSpan(*snap.Trace, "F_dt")
	if fdt == nil {
		t.Fatalf("trace has no F_dt span:\n%s", stdout.String())
	}
	if findSpan(*fdt, "phase1.types") == nil || findSpan(*fdt, "phase2.properties") == nil {
		t.Fatalf("F_dt span lacks phase children: %+v", fdt)
	}
	if fdt.WallNS <= 0 {
		t.Fatalf("F_dt wall time = %d", fdt.WallNS)
	}
	ex := findSpan(*snap.Trace, "export")
	if ex == nil || ex.WallNS <= 0 {
		t.Fatalf("trace has no export span:\n%s", stdout.String())
	}
	for _, f := range [...]struct{ file, bytes, rows string }{
		{"nodes.csv", "nodes_bytes", "nodes_rows"}, {"edges.csv", "edges_bytes", "edges_rows"}, {"schema.ddl", "schema_bytes", ""},
	} {
		fi, err := os.Stat(filepath.Join(dir, f.file))
		if err != nil {
			t.Fatal(err)
		}
		if got := ex.Counters[f.bytes]; got != fi.Size() {
			t.Errorf("export %s = %d, want %s's size %d", f.bytes, got, f.file, fi.Size())
		}
		if f.rows != "" && ex.Counters[f.rows] <= 0 {
			t.Errorf("export %s = %d, want > 0", f.rows, ex.Counters[f.rows])
		}
	}
	if !strings.Contains(stderr.String(), "F_dt") {
		t.Fatalf("-trace did not print the span tree to stderr: %s", stderr.String())
	}
}

func findSpan(r obs.SpanRecord, name string) *obs.SpanRecord {
	if r.Name == name {
		return &r
	}
	for i := range r.Children {
		if s := findSpan(r.Children[i], name); s != nil {
			return s
		}
	}
	return nil
}

// TestRunMetricsToFile checks the -metrics file form and -pprof output.
func TestRunMetricsToFile(t *testing.T) {
	dir, shapes, _ := writeFixtures(t)
	metrics := filepath.Join(dir, "metrics.json")
	pprofDir := filepath.Join(dir, "profiles")
	code := run([]string{
		"schema", "-metrics", metrics, "-pprof", pprofDir,
		"-shapes", shapes, "-out", filepath.Join(dir, "schema.ddl"),
	}, io.Discard, io.Discard)
	if code != exitOK {
		t.Fatalf("exit %d", code)
	}
	src, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(src, &snap); err != nil {
		t.Fatalf("metrics file is not JSON: %v", err)
	}
	if snap.Trace == nil || snap.Trace.Name != "schema" {
		t.Fatalf("trace = %+v", snap.Trace)
	}
	for _, p := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(pprofDir, p)); err != nil || fi.Size() == 0 {
			t.Fatalf("profile %s missing or empty (err=%v)", p, err)
		}
	}
}

// TestCmdDataFromPipe feeds -data through a FIFO — what /dev/stdin is under
// `cat d.nt | s3pg data -data /dev/stdin` — at -workers 1 and 4: a pipe has
// no length and cannot be read at an offset, and every outcome must still be
// the regular file's. A clean input writes the same bytes; a dirty one under
// -lenient prints the same skip summary too; a strict one with a bad line
// fails with the same error, global line number included. The dirty inputs
// span several of the loader's blocks.
func TestCmdDataFromPipe(t *testing.T) {
	dir, shapes, data := writeFixtures(t)
	clean, err := os.ReadFile(data)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.Repeat(string(clean), 1+(400<<10)/len(clean)), "\n")
	var dirty, bad strings.Builder
	garbage := 0
	for i, line := range lines {
		dirty.WriteString(line)
		if i%97 == 0 {
			dirty.WriteString("this line is garbage\n")
			garbage++
		}
		bad.WriteString(line)
		if i == len(lines)*3/4 {
			bad.WriteString("<http://ex.org/a> <http://ex.org/p> .\n")
		}
	}
	type outcome struct {
		files  [3][]byte
		stderr string
		err    string
	}
	run := func(tag, dataPath, workers string, extra ...string) outcome {
		var out outcome
		var stderr bytes.Buffer
		paths := [3]string{filepath.Join(dir, tag+"-nodes.csv"), filepath.Join(dir, tag+"-edges.csv"), filepath.Join(dir, tag+"-schema.ddl")}
		args := append([]string{
			"-workers", workers, "-shapes", shapes, "-data", dataPath,
			"-nodes", paths[0], "-edges", paths[1], "-schema", paths[2],
		}, extra...)
		if err := cmdData(args, io.Discard, &stderr); err != nil {
			out.err = err.Error()
			return out
		}
		out.stderr = stderr.String()
		for i, p := range paths {
			var err error
			if out.files[i], err = os.ReadFile(p); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		src   string
		extra []string
		check func(outcome) bool // what the regular file's run must show
	}{
		{"clean", string(clean), nil, func(o outcome) bool { return o.err == "" && len(o.files[0]) > 0 && len(o.files[1]) > 0 }},
		{"lenient", dirty.String(), []string{"-lenient"}, func(o outcome) bool {
			return o.err == "" && strings.Contains(o.stderr, fmt.Sprintf("skipped %d malformed statement(s)", garbage))
		}},
		{"strict_bad_line", bad.String(), nil, func(o outcome) bool {
			return strings.Contains(o.err, fmt.Sprintf("line %d:", len(lines)*3/4+2))
		}},
	} {
		path := filepath.Join(dir, tc.name+".nt")
		if err := os.WriteFile(path, []byte(tc.src), 0o644); err != nil {
			t.Fatal(err)
		}
		want := run(tc.name+"-file", path, "1", tc.extra...)
		if !tc.check(want) {
			t.Fatalf("%s: the regular file's run: err %q, stderr %q", tc.name, want.err, want.stderr)
		}
		for _, workers := range []string{"1", "4"} {
			fifo := filepath.Join(dir, tc.name+"-fifo-"+workers)
			if err := syscall.Mkfifo(fifo, 0o600); err != nil {
				t.Skipf("mkfifo: %v", err)
			}
			wrote := make(chan error, 1)
			go func() {
				w, err := os.OpenFile(fifo, os.O_WRONLY, 0)
				if err == nil {
					_, err = w.Write([]byte(tc.src))
					w.Close()
				}
				wrote <- err
			}()
			got := run(tc.name+"-pipe-"+workers, fifo, workers, tc.extra...)
			if err := <-wrote; err != nil && got.err == "" {
				t.Fatal(err)
			}
			if got.err != want.err || got.stderr != want.stderr {
				t.Errorf("%s at -workers %s from a pipe: err %q, stderr %q; the regular file's: err %q, stderr %q", tc.name, workers, got.err, got.stderr, want.err, want.stderr)
			}
			for i, name := range []string{"nodes.csv", "edges.csv", "schema.ddl"} {
				if !bytes.Equal(got.files[i], want.files[i]) {
					t.Errorf("%s at -workers %s from a pipe: %s differs from the regular file's (%d bytes, want %d)", tc.name, workers, name, len(got.files[i]), len(want.files[i]))
				}
			}
		}
	}
}
