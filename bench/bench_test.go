package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 1..100, unsorted
	}
	for _, c := range []struct{ q, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("nearest-rank p%v of 1..100 = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {39, 50}, {40, 75}, {99, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {50000, 99}} {
		got := tailPercentile(c.n)
		if got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
		if got > 50 && samplesBeyond(c.n, got) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, got, samplesBeyond(c.n, got))
		}
	}
}

func TestSeriesSummaryCounts(t *testing.T) {
	s := &series{Name: "x"}
	for i := 1; i <= 120; i++ {
		s.add(float64(i))
	}
	sum := s.summary()
	if sum.N != 120 || sum.P50 != 60.5 || sum.TailQ != 90 || sum.Tail != 108 {
		t.Errorf("summary = %+v", sum)
	}
	if sum := s.summaryAt(75); sum.TailQ != 75 || sum.Tail != 90 {
		t.Errorf("frozen p75 of 1..120 = %+v", sum)
	}
	if sum := s.summaryAt(99); sum.TailQ != 50 || sum.Tail != sum.P50 {
		t.Errorf("p99 of 120 samples has one sample beyond it and must fall back to the median: %+v", sum)
	}
	few := &series{Name: "few", Samples: []float64{3, 1, 2}}
	if sum := few.summary(); sum.N != 3 || sum.TailQ != 50 || sum.Tail != sum.P50 || sum.P50 != 2 {
		t.Errorf("small series falls back to the median: %+v", sum)
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 1.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

// benchmarkJSON renders BENCHMARK.json from the tables in spec.go.
func benchmarkJSON() []byte {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{Command: []string{"go", "run", "./bench"}, Paths: []string{"bench"}, RunSeconds: 10}
	for _, w := range workloads() {
		doc.Workloads = append(doc.Workloads, workload{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, bounded{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// TestBenchmarkJSONInStep holds BENCHMARK.json to the tables in spec.go.
// BENCH_UPDATE=1 rewrites the file from them.
func TestBenchmarkJSONInStep(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(root, "BENCHMARK.json")
	if os.Getenv("BENCH_UPDATE") == "1" {
		if err := os.WriteFile(path, benchmarkJSON(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads()) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(doc.Workloads), len(workloads()))
	}
	for i, w := range workloads() {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, spec.go {%s %s}", i, doc.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, spec.go %d", kind, len(got), len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better {
				t.Errorf("%s %d: BENCHMARK.json {%s %s %s}, spec.go {%s %s %s}", kind, i, g.Name, g.Unit, g.Better, m.Name, m.Unit, m.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.Bound || m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound out of step or outside (0, 0.25]", m.Name)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd, true)
	check("per_layer", doc.PerLayer, perLayer, false)
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" {
		t.Errorf("paths %v", doc.Paths)
	}
}

// run drives the command the way a user would and returns its exit code
// and the decoded contract lines, one per workload run.
func run(t *testing.T, args ...string) (int, []map[string]any) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := realMain(args, &stdout, &stderr)
	var lines []map[string]any
	for _, line := range strings.Split(stdout.String(), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal([]byte(line), &doc); err != nil {
			t.Fatalf("contract line is not JSON: %v\n%s", err, line)
		}
		lines = append(lines, doc)
	}
	if len(lines) == 0 {
		t.Fatalf("no contract line\nstdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
	return code, lines
}

// TestSmoke runs about 1/20 of every workload against the real binaries
// with every oracle on, end to end and traced, and checks each contract
// line carries every metric.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
		code, lines := run(t, "-smoke", "-seconds", "0.2", "-workload", "all", "-trace", []string{"0", "1"}[trace])
		if code != 0 || len(lines) != len(workloads()) {
			t.Fatalf("trace=%d: exit %d, %d contract lines", trace, code, len(lines))
		}
		for i, w := range workloads() {
			last := lines[i]
			if last["correct"] != true || last["failed"] != float64(0) || last["attempted"].(float64) < 1 {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, last)
			}
			metrics := last["metrics"].(map[string]any)
			if len(metrics) != len(specs) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := metrics[m.Name].(map[string]any)
				if !ok || v["unit"] != m.Unit {
					t.Errorf("%s trace=%d: metric %s missing or wrong unit: %v", w.Name, trace, m.Name, v)
					continue
				}
				if trace == 0 && !(v["value"].(float64) > 0) {
					t.Errorf("%s: end-to-end metric %s must never be 0, got %v", w.Name, m.Name, v["value"])
				}
			}
		}
	}
}

// TestCorruptedOutputFails flips one byte of nodes.csv after every timed
// child: the byte-identity oracle must make the command exit non-zero.
func TestCorruptedOutputFails(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binaries")
	}
	corruptOutput = func(dir string) error {
		path := filepath.Join(dir, outputNames[0])
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[len(b)/2] ^= 0x01
		return os.WriteFile(path, b, 0o644)
	}
	defer func() { corruptOutput = nil }()
	code, lines := run(t, "-smoke", "-seconds", "0.2", "-workload", "batch_seq")
	if last := lines[0]; code == 0 || last["correct"] != false || last["failed"] == float64(0) {
		t.Fatalf("a corrupted nodes.csv went unnoticed: exit %d, %v", code, last)
	}
}
