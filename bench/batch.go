package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
)

// outputNames are the three files every transform path must emit
// byte-identically.
var outputNames = [3]string{"nodes.csv", "edges.csv", "schema.ddl"}

// batchInputs is one generated input on disk.
type batchInputs struct {
	data, shapes string
	ntBytes      int64
	triples      int
}

// setupBatch generates the dataset from the seed and writes it out. The
// in-memory graph is dropped again: the children only ever see the files,
// and a fat parent would taint their peak RSS (see slimDown).
func setupBatch(rc *runCtx, dir string) (batchInputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return batchInputs{}, err
	}
	ds, err := generate(rc.sz, rc.seed)
	if err != nil {
		return batchInputs{}, err
	}
	in := batchInputs{triples: ds.Graph.Len()}
	in.data, in.shapes, in.ntBytes, err = ds.writeFiles(dir)
	return in, err
}

// transformArgs is the `s3pg data` command line: no tracing, metrics or
// profiling flags, atomic commits on, as shipped.
func transformArgs(in batchInputs, outDir string, workers, maxMemMB int) []string {
	args := []string{"data", "-workers", strconv.Itoa(workers),
		"-shapes", in.shapes, "-data", in.data,
		"-nodes", filepath.Join(outDir, outputNames[0]),
		"-edges", filepath.Join(outDir, outputNames[1]),
		"-schema", filepath.Join(outDir, outputNames[2])}
	if maxMemMB > 0 {
		args = append(args, "-max-mem", strconv.Itoa(maxMemMB))
	}
	return args
}

// outputs are the bytes of the three output files, in outputNames order.
type outputs [3][]byte

func readOutputs(dir string) (out outputs, err error) {
	for i, name := range outputNames {
		if out[i], err = os.ReadFile(filepath.Join(dir, name)); err != nil {
			return out, err
		}
	}
	return out, nil
}

func (o outputs) digest() (sum [3][sha256.Size]byte) {
	for i, b := range o {
		sum[i] = sha256.Sum256(b)
	}
	return sum
}

func (o outputs) size() (n int64) {
	for _, b := range o {
		n += int64(len(b))
	}
	return n
}

// checkRoundTrip is the Prop 4.1 oracle: the emitted files, loaded back
// and inverted, must equal the generated input graph — not the
// transformer's own idea of what it wrote.
func checkRoundTrip(out outputs, want *rdf.Graph) error {
	store, err := pg.LoadCSV(bytes.NewReader(out[0]), bytes.NewReader(out[1]))
	if err != nil {
		return fmt.Errorf("round trip: load csv: %w", err)
	}
	schema, err := pgschema.ParseDDL(string(out[2]))
	if err != nil {
		return fmt.Errorf("round trip: parse ddl: %w", err)
	}
	back, err := core.InverseData(store, schema)
	if err != nil {
		return fmt.Errorf("round trip: inverse: %w", err)
	}
	if !back.Equal(want) {
		return fmt.Errorf("round trip: InverseData(outputs) has %d triples and differs from the %d-triple input graph (Prop 4.1)", back.Len(), want.Len())
	}
	return nil
}

// corruptOutput, when set (tests only), damages the named output file of
// every timed child before it is checked.
var corruptOutput func(dir string) error

// runBatch is the end-to-end run of the three batch workloads: one child
// at a time, closed loop.
func runBatch(rc *runCtx) (*result, error) {
	res := newResult(rc, false)

	var in batchInputs
	var setups []float64
	setupSpeed := &speed{}
	setupSpeed.sample()
	for i := 0; i < rc.sz.SetupReps; i++ {
		start := time.Now()
		var err error
		if in, err = setupBatch(rc, filepath.Join(rc.dir, "in")); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		setupSpeed.sample()
	}
	res.Info["triples"] = in.triples
	res.Info["input_bytes"] = in.ntBytes
	res.Info["setup_samples"] = len(setups)

	slimDown()

	// The reference: one sequential in-RAM run. It warms the page cache and
	// fixes the bytes every timed run must reproduce, so batch_seq checks
	// itself across reps, batch_par checks against batch_seq, and
	// batch_spill against the in-RAM run.
	refDir, outDir := filepath.Join(rc.dir, "ref"), filepath.Join(rc.dir, "out")
	for _, d := range []string{refDir, outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	if _, err := runChild(rc.ctx, rc.bins.S3pg, transformArgs(in, refDir, 1, 0)...); !res.attempt(err) {
		return res, nil
	}
	ref, err := readOutputs(refDir)
	if err != nil {
		return nil, err
	}
	want := ref.digest()

	wall := &series{Name: "child_wall"}
	var cpu, rss []float64
	var last outputs
	args := transformArgs(in, outDir, rc.sz.Workers, rc.sz.MaxMemMB)
	run := &speed{}
	run.sample()
	deadline := rc.deadline()
	for n := 0; n < rc.sz.MinOps || time.Now().Before(deadline); n++ {
		u, err := runChild(rc.ctx, rc.bins.S3pg, args...)
		if err == nil && rc.sz.MaxMemMB > 0 && len(spillSchedule(u.Stderr)) == 0 {
			err = fmt.Errorf("child never spilled under -max-mem %d: the workload no longer runs out of core", rc.sz.MaxMemMB)
		}
		if err == nil && corruptOutput != nil {
			err = corruptOutput(outDir)
		}
		if err == nil {
			if last, err = readOutputs(outDir); err == nil && last.digest() != want {
				err = errors.New("outputs differ from the sequential in-RAM reference run (byte identity)")
			}
		}
		if !res.attempt(err) {
			break
		}
		wall.add(u.WallMs)
		cpu = append(cpu, u.CPUMs)
		rss = append(rss, u.MaxRSSMB)
		run.sample()
	}
	if len(wall.Samples) == 0 {
		return res, nil
	}

	// Prop 4.1 on the last timed outputs, against a freshly generated graph.
	ds, err := generate(rc.sz, rc.seed)
	if err != nil {
		return nil, err
	}
	res.attempt(checkRoundTrip(last, ds.Graph))

	sum := wall.summaryAt(rc.sz.TailQ)
	var busy float64
	for _, ms := range wall.Samples {
		busy += ms
	}
	res.Series = append(res.Series, sum)
	res.Metrics["setup_s"] = median(setups) * setupSpeed.factor()
	res.setTimes(run, sum.P50, sum.Tail, float64(sum.N)/(busy/1000), median(cpu))
	res.Metrics["peak_rss_mb"] = median(rss)
	res.Metrics["output_bytes_per_input_byte"] = float64(last.size()) / float64(in.ntBytes)
	res.Info["output_bytes"] = last.size()
	res.Info["timed_children"] = sum.N
	res.Info["triples_per_s"] = float64(in.triples) / (sum.P50 / 1000)
	return res, nil
}
