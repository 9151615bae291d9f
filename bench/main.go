// Command bench is the repository's benchmark: five workloads, end-to-end
// numbers from the real s3pg and s3pgd binaries run as child processes,
// and per-layer numbers from a separate traced in-process replay. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./bench -workload batch_seq -seed 1 -seconds 10 -trace 0
//	go run ./bench -workload all            # every workload, human-readable table
//	go run ./bench -workload all -trace 1   # per-layer numbers + trace.jsonl
//	go run ./bench -aa                      # run the set twice, compare within bounds
//	go run ./bench -list                    # every metric with unit, direction, bound
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runCtx is everything one workload run needs.
type runCtx struct {
	ctx     context.Context
	w       *workloadSpec
	sz      sizes
	seed    int64
	seconds float64
	smoke   bool
	bins    binaries
	dir     string // scratch directory of this run, removed afterwards
	// traceOut is where a traced run writes its spans as JSON lines.
	traceOut string
}

// deadline is when the timed phase that starts now should stop.
func (rc *runCtx) deadline() time.Time {
	return time.Now().Add(time.Duration(rc.seconds * float64(time.Second)))
}

// result is one workload run: the contract's numbers plus the run record.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Noisy     bool               `json:"noisy"`
	Metrics   map[string]float64 `json:"metrics"`
	Series    []seriesSummary    `json:"series,omitempty"`
	// Info is the run record of the workload: frozen sizes, triples and
	// bytes, operation counts, reference timings and raw (unscaled) values.
	Info map[string]any `json:"info"`
}

func newResult(rc *runCtx, traced bool) *result {
	return &result{
		Workload: rc.w.Name,
		Traced:   traced,
		Metrics:  map[string]float64{},
		Info:     map[string]any{"sizes": rc.sz, "seed": rc.seed, "seconds": rc.seconds, "smoke": rc.smoke},
	}
}

// attempt counts one operation; a non-nil err makes it a failed one.
func (r *result) attempt(err error) bool {
	r.Attempted++
	if err == nil {
		return true
	}
	r.Failed++
	if len(r.Failures) < 8 {
		r.Failures = append(r.Failures, err.Error())
	}
	return false
}

// setTimes fills the time-based end-to-end metrics from raw measurements,
// scaled by the run's speed factor (see speed.go); the raw values stay in
// the run record.
func (r *result) setTimes(run *speed, p50Ms, tailMs, opsPerS, cpuMsPerOp float64) {
	f := run.factor()
	r.Metrics["op_p50_ms"] = p50Ms * f
	r.Metrics["op_tail_ms"] = tailMs * f
	r.Metrics["ops_per_s"] = opsPerS / f
	r.Metrics["cpu_ms_per_op"] = cpuMsPerOp * f
	r.Info["raw"] = map[string]float64{"op_p50_ms": p50Ms, "op_tail_ms": tailMs, "ops_per_s": opsPerS, "cpu_ms_per_op": cpuMsPerOp}
	run.record(r)
}

// contractLine is the one JSON object the driver reads from the last line
// of standard output.
func contractLine(r *result, specs []metricSpec) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.Failed == 0 && r.Attempted > 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]mv{}}
	for _, m := range specs {
		out.Metrics[m.Name] = mv{Value: r.Metrics[m.Name], Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	return string(b)
}

// environment is the run record shared by every workload of an invocation.
func environment(root string, bins binaries) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"clients":    parallelism(),
		"build_s":    bins.BuildS,
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(b))
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		env["commit"] = strings.TrimSpace(string(out))
	} else {
		env["commit"] = "unknown (not a git checkout)"
	}
	return env
}

// session owns the built binaries and the scratch directory.
type session struct {
	root    string
	bins    binaries
	scratch string
}

func openSession() (*session, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	bins, err := buildBinaries(root, filepath.Join(build, "bin"))
	if err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return nil, err
	}
	return &session{root: root, bins: bins, scratch: scratch}, nil
}

func (s *session) close() { os.RemoveAll(s.scratch) }

// run executes one workload once, end to end (traced=false) or as the
// traced replay (traced=true).
func (s *session) run(name string, seed int64, seconds float64, smoke, traced bool) (*result, error) {
	w := findWorkload(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
	}
	dir, err := os.MkdirTemp(s.scratch, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rc := &runCtx{ctx: context.Background(), w: w, sz: w.Full, seed: seed, seconds: seconds, smoke: smoke,
		bins: s.bins, dir: dir}
	if smoke {
		rc.sz = w.Smoke
	}
	fn := w.run
	if traced {
		fn = w.trace
		rc.traceOut = filepath.Join(s.root, ".bench_build", "trace-"+name+".jsonl")
	}
	res, err := fn(rc)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if traced {
		res.Metrics["bench.build_s"] = s.bins.BuildS
	}
	return res, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.Name)
	}
	return names
}

func specsFor(traced bool) []metricSpec {
	if traced {
		return perLayer
	}
	return endToEnd
}

// printList prints every metric by name with unit, direction and bound.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads() {
		fmt.Fprintf(w, "  %-12s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (every workload, -trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-30s %-9s %-6s bound %.2f  %s\n", m.Name, m.Unit, m.Better, m.Bound, m.What)
	}
	fmt.Fprintln(w, "\nper-layer metrics (-trace 1; 0 where a workload does not touch the layer):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-38s %-10s %-6s %s\n", m.Name, m.Unit, m.Better, m.What)
	}
}

// printResult is the human-readable row block of one run.
func printResult(w io.Writer, r *result, specs []metricSpec) {
	state := "ok"
	if r.Failed > 0 {
		state = "FAILED"
	}
	noisy := ""
	if r.Noisy {
		noisy = "  [noisy: the reference routine moved >15% across the run]"
	}
	fmt.Fprintf(w, "%s: %s, %d operations attempted, %d failed%s\n", r.Workload, state, r.Attempted, r.Failed, noisy)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  failure: %s\n", f)
	}
	for _, m := range specs {
		v, ok := r.Metrics[m.Name]
		if !ok || (r.Traced && v == 0) {
			continue
		}
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("bound %.2f", m.Bound)
		}
		fmt.Fprintf(w, "  %-38s %14.4f %-10s %-6s %s\n", m.Name, v, m.Unit, m.Better, bound)
	}
	for _, s := range r.Series {
		fmt.Fprintf(w, "  series %-22s n=%-6d p50 %.3f ms   p%.0f %.3f ms   (raw, not speed-scaled)\n", s.Name, s.N, s.P50, s.TailQ, s.Tail)
	}
	keys := make([]string, 0, len(r.Info))
	for k := range r.Info {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(r.Info[k]) // run-record values are plain data
		fmt.Fprintf(w, "  info %-24s %s\n", k, b)
	}
}

// worse reports by how much b is worse than a as a share of a, for a
// metric with the given direction (negative = better).
func worse(m metricSpec, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runAA is the A/A self-check: the full set twice on the same build; every
// end-to-end metric on every workload must agree within its bound.
func runAA(s *session, seed int64, seconds float64, smoke bool, out io.Writer) (bool, []*result, error) {
	ok := true
	var all []*result
	for _, name := range workloadNames() {
		var pair [2]*result
		for i := range pair {
			r, err := s.run(name, seed, seconds, smoke, false)
			if err != nil {
				return false, all, err
			}
			pair[i] = r
			all = append(all, r)
			if r.Failed > 0 {
				ok = false
			}
		}
		for _, m := range endToEnd {
			a, b := pair[0].Metrics[m.Name], pair[1].Metrics[m.Name]
			d := worse(m, a, b)
			if d < 0 {
				d = worse(m, b, a)
			}
			verdict := "ok"
			if d > m.Bound {
				verdict = "OUTSIDE BOUND"
				ok = false
			}
			fmt.Fprintf(out, "aa %-12s %-30s %14.4f %14.4f  apart %.4f  bound %.2f  %s\n", name, m.Name, a, b, d, m.Bound, verdict)
		}
	}
	return ok, all, nil
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload `name`, or all")
	seed := fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed phase of each workload")
	trace := fs.Int("trace", 0, "0: end-to-end run of the real binaries; 1: traced in-process replay (per-layer metrics, trace.jsonl)")
	smoke := fs.Bool("smoke", false, "run about 1/20 of every workload with all oracles on")
	aa := fs.Bool("aa", false, "A/A self-check: run the set twice, exit non-zero unless every end-to-end metric agrees within its bound")
	list := fs.Bool("list", false, "print every workload and metric with unit, direction and bound, then exit")
	out := fs.String("out", "", "also write the full run record as JSON to `file`")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: usage: bench -workload <name>|all -seed n -seconds s -trace 0|1")
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	s, err := openSession()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defer s.close()

	record := map[string]any{"environment": environment(s.root, s.bins)}
	var results []*result
	ok := true
	switch {
	case *aa:
		ok, results, err = runAA(s, *seed, *seconds, *smoke, stdout)
	default:
		names := []string{*workload}
		if *workload == "all" {
			names = workloadNames()
		}
		for _, name := range names {
			var r *result
			if r, err = s.run(name, *seed, *seconds, *smoke, *trace == 1); err != nil {
				break
			}
			results = append(results, r)
			printResult(stdout, r, specsFor(*trace == 1))
			// The contract line of the last workload run is the last line
			// of standard output.
			fmt.Fprintln(stdout, contractLine(r, specsFor(*trace == 1)))
			ok = ok && r.Failed == 0
		}
	}
	record["results"] = results
	if *out != "" {
		b, merr := json.MarshalIndent(record, "", "  ")
		if merr == nil {
			merr = os.WriteFile(*out, append(b, '\n'), 0o644)
		}
		if merr != nil {
			fmt.Fprintln(stderr, "bench:", merr)
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !ok {
		return 1
	}
	return 0
}
