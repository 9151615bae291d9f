package main

// layers.go is the traced run: each workload is replayed in-process stage
// by stage, every call into a layer's public function wrapped in a span.
// Nothing here feeds the end-to-end numbers; those come from the real
// binaries with tracing off (batch.go, daemon.go).

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"time"

	"github.com/s3pg/s3pg/internal/ckpt"
	"github.com/s3pg/s3pg/internal/core"
	"github.com/s3pg/s3pg/internal/cypher"
	"github.com/s3pg/s3pg/internal/jobs"
	"github.com/s3pg/s3pg/internal/pg"
	"github.com/s3pg/s3pg/internal/pgschema"
	"github.com/s3pg/s3pg/internal/rdf"
	"github.com/s3pg/s3pg/internal/rio"
	"github.com/s3pg/s3pg/internal/serve"
	"github.com/s3pg/s3pg/internal/server"
	"github.com/s3pg/s3pg/internal/shacl"
	"github.com/s3pg/s3pg/internal/sparql"
	"github.com/s3pg/s3pg/internal/wal"
)

// minPasses is the least number of replay passes a traced run makes; the
// per-layer metrics are medians over passes.
const minPasses = 3

// passValues collects one value per pass for each per-layer metric.
type passValues map[string][]float64

func (pv passValues) add(name string, v float64) { pv[name] = append(pv[name], v) }

// ratio adds num/den when den is positive.
func (pv passValues) ratio(name string, num, den float64) {
	if den > 0 {
		pv.add(name, num/den)
	}
}

// traced drives a replay: set-up, passes until the deadline, medians,
// trace.jsonl.
func traced(rc *runCtx, setup func(*result) error, pass func(tr *tracer, pv passValues) error) (*result, error) {
	res := newResult(rc, true)
	start := time.Now()
	if err := setup(res); err != nil {
		return nil, err
	}
	res.Metrics["bench.datagen_s"] = time.Since(start).Seconds()

	// One reference timing between passes; the time-based layer metrics are
	// scaled by the run's speed factor like the end-to-end ones.
	run := &speed{}
	run.sample()
	tr := newTracer(rc.w.Name)
	pv := passValues{}
	deadline := rc.deadline()
	passes := 0
	for ; passes < minPasses || time.Now().Before(deadline); passes++ {
		tr.traceID = fmt.Sprintf("%s/%d", rc.w.Name, passes)
		if !res.attempt(pass(tr, pv)) {
			break
		}
		run.sample()
	}
	run.record(res)
	res.Metrics["bench.calib_ms"] = median(run.refs)
	for _, m := range perLayer {
		if vals, ok := pv[m.Name]; ok {
			res.Metrics[m.Name] = median(vals)
			if timeUnit(m.Unit) {
				res.Metrics[m.Name] *= run.factor()
			}
		}
	}
	res.Info["passes"] = passes
	res.Info["spans"] = len(tr.spans)
	if rc.traceOut != "" {
		if err := tr.writeJSONL(rc.traceOut); err != nil {
			return nil, err
		}
		res.Info["trace_jsonl"] = rc.traceOut
	}
	return res, nil
}

// timeUnit reports whether a per-layer unit is a duration (ns, us, ms, or
// one of them per something), as opposed to bytes, counts and ratios.
func timeUnit(unit string) bool {
	for _, p := range []string{"ns", "us", "ms"} {
		if unit == p || strings.HasPrefix(unit, p+"/") {
			return true
		}
	}
	return false
}

func ms(ns float64) float64 { return ns / 1e6 }
func us(ns float64) float64 { return ns / 1e3 }

// pattern is one Graph.Match call of the seeded match set.
type pattern struct{ s, p, o *rdf.Term }

// matchSet draws subject-bound, predicate-bound and predicate+object-bound
// patterns from the graph's own triples, so every pattern has results.
func matchSet(g *rdf.Graph, seed int64) []pattern {
	rng := rand.New(rand.NewSource(seed))
	var pool []rdf.Triple
	step := g.Len()/512 + 1
	i := 0
	g.ForEach(func(t rdf.Triple) bool {
		if i%step == 0 {
			pool = append(pool, t)
		}
		i++
		return true
	})
	var set []pattern
	for k := 0; k < 64 && len(pool) > 0; k++ {
		t := pool[rng.Intn(len(pool))]
		switch k % 8 {
		case 0: // predicate-bound: long posting lists
			set = append(set, pattern{p: &t.P})
		case 1: // predicate+object-bound
			set = append(set, pattern{p: &t.P, o: &t.O})
		default: // subject-bound: the shape F_dt and the evaluators use most
			set = append(set, pattern{s: &t.S})
		}
	}
	return set
}

func runMatchSet(g *rdf.Graph, set []pattern) (results int64) {
	for _, p := range set {
		g.Match(p.s, p.p, p.o, func(rdf.Triple) bool { results++; return true })
	}
	return results
}

func dirSize(dir string) (total int64) {
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // best effort: a vanished file counts 0
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}

func loadShapes(path string) (*shacl.Schema, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseShapes(string(src))
}

func parseShapes(ttl string) (*shacl.Schema, error) {
	g, err := rio.ParseTurtle(ttl)
	if err != nil {
		return nil, err
	}
	return shacl.FromGraph(g)
}

// ---- batch_seq, batch_par, batch_spill ------------------------------------

// traceBatch replays `s3pg data` in-process, stage by stage in the order
// the CLI runs them, and times the real child on the same files so the
// staged total can be held against the end-to-end number.
func traceBatch(rc *runCtx) (*result, error) {
	var in batchInputs
	outDir := filepath.Join(rc.dir, "out")
	args := func() []string { return transformArgs(in, outDir, rc.sz.Workers, rc.sz.MaxMemMB) }
	setup := func(res *result) error {
		var err error
		if in, err = setupBatch(rc, filepath.Join(rc.dir, "in")); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		res.Info["triples"] = in.triples
		res.Info["input_bytes"] = in.ntBytes
		slimDown()
		_, err = runChild(rc.ctx, rc.bins.S3pg, args()...) // warms the page cache
		return err
	}
	first := true
	return traced(rc, setup, func(tr *tracer, pv passValues) error {
		if first {
			// Space is measured once, outside the timed passes: the forced
			// collections it needs would otherwise sit inside the spans.
			first = false
			if err := batchSpace(rc, in, pv); err != nil {
				return err
			}
		}
		// One real child beside every pass: the box's speed drifts by the
		// minute, so the staged total is held against a wall time taken
		// at the same moment.
		u, err := runChild(rc.ctx, rc.bins.S3pg, args()...)
		if err != nil {
			return err
		}
		return stagedBatch(rc, tr, pv, in, outDir, u)
	})
}

// spillLine is the CLI's report of one spill: the graph's slot count at the
// heap check that tripped the watermark.
var spillLine = regexp.MustCompile(`spilled (\d+) triple slots`)

// spillSchedule reads the slot counts at which a real child spilled.
func spillSchedule(stderr string) []int {
	var at []int
	for _, m := range spillLine.FindAllStringSubmatch(stderr, -1) {
		n, _ := strconv.Atoi(m[1]) // the pattern admits digits only
		at = append(at, n)
	}
	return at
}

// ingestGoverned mirrors the CLI's loadDataGoverned: sequential scan into
// the graph with a check every 4096 statements. When the governor trips
// depends on the garbage a process happens to hold, so the replay does not
// consult its own heap: it spills at exactly the slot counts the real child
// beside this pass reported, and collects afterwards as the governor does.
func ingestGoverned(tr *tracer, f *os.File, spillDir string, schedule []int) (*rdf.Graph, error) {
	g := rdf.NewGraph()
	check := func() error {
		if len(schedule) == 0 || g.NumSlots() != schedule[0] {
			return nil
		}
		schedule = schedule[1:]
		sp := tr.start("rdf.spill").count("slots", int64(g.NumSlots()))
		err := g.Spill(spillDir, nil)
		runtime.GC()
		sp.end()
		return err
	}
	sc := rio.NewNTriplesScanner(f, rio.Options{})
	for n := 1; ; n++ {
		t, ok, err := sc.Scan()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		g.Add(t)
		if n%4096 == 0 {
			if err := check(); err != nil {
				return nil, err
			}
		}
	}
	if err := check(); err != nil {
		return nil, err
	}
	if len(schedule) > 0 {
		return nil, fmt.Errorf("replay missed %d of the child's spill points (next at %d slots)", len(schedule), schedule[0])
	}
	return g, nil
}

func stagedBatch(rc *runCtx, tr *tracer, pv passValues, in batchInputs, outDir string, cli childUsage) error {
	ctx := rc.ctx
	workers, spill := rc.sz.Workers, rc.sz.MaxMemMB > 0
	spillDir := filepath.Join(rc.dir, "spill")
	defer os.RemoveAll(spillDir)
	id := tr.traceID

	root := tr.start("pipeline")
	sp := tr.start("shacl.load")
	sg, err := loadShapes(in.shapes)
	sp.end()
	if err != nil {
		return err
	}

	f, err := os.Open(in.data)
	if err != nil {
		return err
	}
	defer f.Close()
	var g *rdf.Graph
	switch {
	case spill:
		sp = tr.start("ingest.governed").count("bytes", in.ntBytes)
		g, err = ingestGoverned(tr, f, spillDir, spillSchedule(cli.Stderr))
		sp.end()
	case workers > 1:
		sp = tr.start("rio.load_par").count("bytes", in.ntBytes)
		g, err = rio.LoadNTriplesParallel(ctx, f, in.ntBytes, rio.Options{}, workers)
		sp.end()
	default:
		sp = tr.start("rio.scan").count("bytes", in.ntBytes)
		var triples []rdf.Triple
		sc := rio.NewNTriplesScanner(f, rio.Options{})
		for {
			t, ok, serr := sc.Scan()
			if serr != nil || !ok {
				err = serr
				break
			}
			triples = append(triples, t)
		}
		sp.end()
		sp = tr.start("rdf.add").count("triples", int64(len(triples)))
		g = rdf.NewGraph()
		for _, t := range triples {
			g.Add(t)
		}
		sp.end()
	}
	if err != nil {
		return err
	}
	triples := float64(g.Len())
	spillBytes := dirSize(spillDir)

	sp = tr.start("core.fst")
	spg, err := core.TransformSchema(sg, core.Parsimonious)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.start("core.mapping")
	t, err := core.NewTransformerForSchema(spg, core.Parsimonious)
	sp.end()
	if err != nil {
		return err
	}
	fdt := "core.fdt"
	switch {
	case spill:
		fdt = "core.fdt_spilled"
	case workers > 1:
		fdt = "core.fdt_par"
	}
	sp = tr.startAllocs(fdt).count("triples", int64(triples))
	if workers > 1 {
		err = t.ApplyParallel(ctx, g, workers, nil)
	} else {
		err = t.Apply(g)
	}
	sp.end()
	if err != nil {
		return err
	}
	store := t.Store()
	rows := float64(store.NumNodes() + store.NumEdges())

	// The CLI's writeStoreAtomic: two nested atomic commits around one
	// export call, then the schema.
	write := "pg.write_csv"
	if workers > 1 {
		write = "pg.write_csv_par"
	}
	commit := tr.start("ckpt.commit")
	err = ckpt.WriteFileAtomic(filepath.Join(outDir, outputNames[0]), 0o644, func(nw io.Writer) error {
		return ckpt.WriteFileAtomic(filepath.Join(outDir, outputNames[1]), 0o644, func(ew io.Writer) error {
			sp := tr.start(write).count("rows", int64(rows))
			defer sp.end()
			return store.WriteCSVParallel(nw, ew, workers)
		})
	})
	commit.end()
	if err != nil {
		return err
	}
	sp = tr.start("pgschema.write_ddl")
	ddl := pgschema.WriteDDL(t.Schema())
	sp.end()
	commit = tr.start("ckpt.commit")
	err = ckpt.WriteFileAtomic(filepath.Join(outDir, outputNames[2]), 0o644, func(w io.Writer) error {
		_, werr := io.WriteString(w, ddl)
		return werr
	})
	commit.end()
	if err != nil {
		return err
	}
	root.end()

	// Layers beside the pipeline, over the same data.
	sp = tr.start("pgschema.ddl_roundtrip")
	_, err = pgschema.ParseDDL(pgschema.WriteDDL(t.Schema()))
	sp.end()
	if err != nil {
		return err
	}
	if spill {
		set := matchSet(g, rc.seed)
		sp = tr.start("rdf.spilled_match")
		sp.count("results", runMatchSet(g, set))
		sp.end()
		pv.ratio("rdf.spilled_match_ns_per_result", sp.ns(), float64(sp.Counts["results"]))
		rng := rand.New(rand.NewSource(rc.seed))
		ids := make([]rdf.TermID, 20000)
		for i := range ids {
			ids[i] = rdf.TermID(rng.Intn(g.Dict().Len()))
		}
		sp = tr.start("rdf.spilled_term").count("terms", int64(len(ids)))
		for _, id := range ids {
			termSink = g.Dict().Term(id)
		}
		sp.end()
		pv.ratio("rdf.spilled_term_ns", sp.ns(), float64(len(ids)))
	} else {
		nodes, err := os.ReadFile(filepath.Join(outDir, outputNames[0]))
		if err != nil {
			return err
		}
		edges, err := os.ReadFile(filepath.Join(outDir, outputNames[1]))
		if err != nil {
			return err
		}
		sp = tr.start("pg.load_csv").count("rows", int64(rows))
		_, err = pg.LoadCSV(bytes.NewReader(nodes), bytes.NewReader(edges))
		sp.end()
		if err != nil {
			return err
		}
		pv.ratio("pg.load_csv_ns_per_row", sp.ns(), rows)
	}

	one := func(name string) float64 { return tr.sum(id, name, (*span).ns) }
	pv.add("shacl.load_ms", ms(one("shacl.load")))
	pv.add("core.fst_ms", ms(one("core.fst")))
	pv.ratio("rio.scan_ns_per_byte", one("rio.scan"), float64(in.ntBytes))
	pv.ratio("rio.load_par_ns_per_byte", one("rio.load_par"), float64(in.ntBytes))
	pv.ratio("rdf.add_ns_per_triple", one("rdf.add"), triples)
	pv.ratio("core.fdt_ns_per_triple", one("core.fdt"), triples)
	pv.ratio("core.fdt_par_ns_per_triple", one("core.fdt_par"), triples)
	pv.ratio("core.fdt_spilled_ns_per_triple", one("core.fdt_spilled"), triples)
	if s := tr.byName(id, "core.fdt"); len(s) == 1 {
		pv.ratio("core.fdt_allocs_per_triple", float64(s[0].Counts["allocs"]), triples)
	}
	pv.ratio("pg.write_csv_ns_per_row", one("pg.write_csv"), rows)
	pv.ratio("pg.write_csv_par_ns_per_row", one("pg.write_csv_par"), rows)
	pv.add("ckpt.commit_ms", ms(tr.sum(id, "ckpt.commit", tr.selfNs)))
	pv.add("pgschema.ddl_roundtrip_ms", ms(one("pgschema.ddl_roundtrip")))
	if spill {
		pv.add("rdf.spill_ms", ms(one("rdf.spill")))
		pv.ratio("rdf.spill_bytes_per_triple", float64(spillBytes), triples)
	}

	// Does the layer table explain the end-to-end number? Coverage: the
	// share of the pipeline's time that lies inside a layer span.
	pv.ratio("trace.batch_coverage", root.ns()-tr.selfNs(root), root.ns())
	pv.ratio("trace.staged_vs_cli_ratio", ms(root.ns()), cli.WallMs)
	return nil
}

var termSink rdf.Term

// batchSpace measures live heap per triple of the graph and the store (and
// of the spilled graph on batch_spill) with forced collections between
// stages.
func batchSpace(rc *runCtx, in batchInputs, pv passValues) error {
	sg, err := loadShapes(in.shapes)
	if err != nil {
		return err
	}
	f, err := os.Open(in.data)
	if err != nil {
		return err
	}
	defer f.Close()
	base := liveHeap()
	g, err := rio.LoadNTriples(f)
	if err != nil {
		return err
	}
	triples := float64(g.Len())
	graphBytes := heapGrowth(base)
	pv.ratio("rdf.graph_bytes_per_triple", graphBytes, triples)
	if rc.sz.MaxMemMB > 0 {
		spillDir := filepath.Join(rc.dir, "spill-space")
		defer os.RemoveAll(spillDir)
		if err := g.Spill(spillDir, nil); err != nil {
			return err
		}
		pv.ratio("rdf.spilled_resident_bytes_per_triple", heapGrowth(base), triples)
		return nil
	}
	store, _, err := core.Transform(g, sg, core.Parsimonious)
	if err != nil {
		return err
	}
	pv.ratio("core.store_bytes_per_triple", heapGrowth(base)-graphBytes, triples)
	runtime.KeepAlive(store)
	runtime.KeepAlive(g)
	return nil
}

// ---- live_mixed ------------------------------------------------------------

// parseMode reads a sizes.Mode the way the daemon reads a create request:
// empty means parsimonious.
func parseMode(mode string) (core.Mode, error) {
	if mode == "" {
		return core.Parsimonious, nil
	}
	return core.ParseMode(mode)
}

// traceLive replays the first round of the write script (ChurnEvery
// cycles: grow batches, then one churn batch) against an in-process
// DeltaState, WAL and snapshot publish, then once more through
// server.GraphManager.
func traceLive(rc *runCtx) (*result, error) {
	var ds *dataset
	var sg *shacl.Schema
	var script []scriptStep
	var cases []queryCase
	var nt string
	setup := func(res *result) error {
		var err error
		if ds, err = generate(rc.sz, rc.seed); err != nil {
			return err
		}
		if nt, err = ds.ntString(); err != nil {
			return err
		}
		sz := rc.sz
		if sz.MaxCycles > sz.ChurnEvery {
			sz.MaxCycles = sz.ChurnEvery
		}
		script = updateScript(ds, sz, rc.seed)
		cases = qmix(ds, rc.seed)
		res.Info["triples"] = ds.Graph.Len()
		res.Info["cycles_per_pass"] = len(script)
		sg, err = parseShapes(ds.Shapes)
		return err
	}
	mode, err := parseMode(rc.sz.Mode)
	if err != nil {
		return nil, err
	}
	return traced(rc, setup, func(tr *tracer, pv passValues) error {
		id := tr.traceID
		dir, err := os.MkdirTemp(rc.dir, "pass-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		g := ds.Graph.Clone()

		root := tr.start("live.replay")
		sp := tr.start("core.new_delta_state")
		st, err := core.NewDeltaState(g, sg, mode)
		sp.end()
		if err != nil {
			return err
		}
		walDir := filepath.Join(dir, "wal")
		log, _, err := wal.Open(walDir, wal.Options{})
		if err != nil {
			return err
		}
		var stmts, growStmts float64
		for i, step := range script {
			sp = tr.start("sparql.parse_update").count("stmts", int64(step.Delta.Len()))
			d, err := sparql.ParseUpdate(step.Body)
			sp.end()
			if err != nil {
				return err
			}
			stmts += float64(d.Len())
			name := "core.delta_grow"
			if step.Churn {
				name = "core.delta_churn"
			} else {
				growStmts += float64(d.Len())
			}
			sp = tr.start(name).count("stmts", int64(d.Len()))
			pd, err := st.ApplyDelta(d)
			sp.end()
			if err != nil {
				return err
			}
			// The update path of server.applyOne: UPDATE record, digest,
			// APPLIED record, both appends fsynced.
			sp = tr.start("wal.append")
			lsn, err := log.AppendUpdate(d.Encode())
			if err == nil {
				pd.LSN = lsn
				var digest string
				if digest, err = pd.Digest(); err == nil {
					err = log.AppendApplied(lsn, []byte(digest))
				}
			}
			sp.end()
			if err != nil {
				return err
			}
			if step.Churn {
				sp = tr.start("core.transform_full")
				_, _, err = core.Transform(st.Graph(), sg, mode)
				sp.end()
				if err != nil {
					return err
				}
			}
			// The lazy publish the first query after an update pays.
			sp = tr.start("rdf.clone")
			gc := st.Graph().Clone()
			sp.end()
			sp = tr.start("pg.clone")
			sc := st.Store().Clone()
			sp.end()
			sp = tr.start("serve.snapshot_build")
			snap := serve.NewSnapshot(gc, sc, st.SchemaDDL(), lsn)
			sp.end()
			for k := 0; k < queriesPerCycle; k++ {
				c := cases[(i*queriesPerCycle+k)%len(cases)]
				sp = tr.start("serve.execute")
				_, err := serve.Execute(rc.ctx, snap, serve.Request{Lang: c.Req.Lang, Query: c.Req.Query, Params: c.Req.Params})
				sp.end()
				if err != nil {
					return fmt.Errorf("%s: %w", c.Name, err)
				}
			}
		}
		if err := log.Close(); err != nil {
			return err
		}
		walBytes := float64(dirSize(walDir))
		sp = tr.start("wal.open_replay")
		log, recs, err := wal.Open(walDir, wal.Options{})
		sp.count("records", int64(len(recs))).end()
		if err != nil {
			return err
		}
		if err := log.Close(); err != nil {
			return err
		}
		root.end()

		// The same round through the daemon's own update path.
		gm, err := server.OpenGraphs(server.GraphConfig{Dir: filepath.Join(dir, "graphs")})
		if err != nil {
			return err
		}
		defer gm.Close()
		if _, err := gm.Create(graphID, rc.sz.Mode, ds.Shapes, nt); err != nil {
			return err
		}
		for _, step := range script {
			sp = tr.start("server.graph_update")
			_, err := gm.Update(graphID, step.Delta)
			sp.end()
			if err != nil {
				return err
			}
		}

		one := func(name string) float64 { return tr.sum(id, name, (*span).ns) }
		n := func(name string) float64 { return float64(len(tr.byName(id, name))) }
		pv.add("core.new_delta_state_ms", ms(one("core.new_delta_state")))
		pv.ratio("sparql.parse_update_us_per_stmt", us(one("sparql.parse_update")), stmts)
		pv.ratio("core.delta_grow_us_per_stmt", us(one("core.delta_grow")), growStmts)
		pv.ratio("core.delta_churn_ms", ms(one("core.delta_churn")), n("core.delta_churn"))
		pv.ratio("core.delta_rebuild_ratio", one("core.delta_churn"), one("core.transform_full"))
		pv.ratio("wal.append_us", us(one("wal.append")), n("wal.append"))
		pv.ratio("wal.bytes_per_stmt", walBytes, stmts)
		pv.add("wal.open_replay_ms", ms(one("wal.open_replay")))
		pv.ratio("rdf.clone_ms", ms(one("rdf.clone")), n("rdf.clone"))
		pv.ratio("pg.clone_ms", ms(one("pg.clone")), n("pg.clone"))
		pv.ratio("serve.snapshot_build_ms", ms(one("serve.snapshot_build")), n("serve.snapshot_build"))
		pv.ratio("serve.execute_us", us(one("serve.execute")), n("serve.execute"))
		pv.ratio("server.graph_update_ms", ms(one("server.graph_update")), n("server.graph_update"))
		return nil
	})
}

// ---- query_read ------------------------------------------------------------

// traceQuery evaluates qmix layer by layer over one static snapshot: parse,
// eval, serve.Execute, and the HTTP handler with a recorder against a live
// graph and a finished job.
func traceQuery(rc *runCtx) (*result, error) {
	var (
		ds       *dataset
		cases    []queryCase
		snap     *serve.Snapshot
		srv      *server.Server
		handlers [][]byte
		csv      [2][]byte
		cleanup  []func()
	)
	defer func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}()
	setup := func(res *result) error {
		var err error
		if ds, err = generate(rc.sz, rc.seed); err != nil {
			return err
		}
		nt, err := ds.ntString()
		if err != nil {
			return err
		}
		cases = qmix(ds, rc.seed)
		res.Info["triples"] = ds.Graph.Len()

		// The daemon's handler stack over a temp spool, as s3pgd mounts it.
		mgr, err := jobs.Open(jobs.Config{Dir: filepath.Join(rc.dir, "jobs"), Workers: 1})
		if err != nil {
			return err
		}
		cleanup = append(cleanup, func() { mgr.Close() })
		gm, err := server.OpenGraphs(server.GraphConfig{Dir: filepath.Join(rc.dir, "graphs")})
		if err != nil {
			return err
		}
		cleanup = append(cleanup, func() { gm.Close() })
		if _, err := gm.Create(graphID, rc.sz.Mode, ds.Shapes, nt); err != nil {
			return err
		}
		job, err := mgr.Submit(jobs.Spec{}, ds.Shapes, nt)
		if err != nil {
			return err
		}
		for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(5 * time.Millisecond) {
			j, err := mgr.Get(job.ID)
			if err != nil {
				return err
			}
			if j.State == jobs.StateDone {
				break
			}
			if j.State.Terminal() || time.Now().After(deadline) {
				return fmt.Errorf("job %s: state %s %s", j.ID, j.State, j.Error)
			}
		}
		srv = server.New(server.Config{Manager: mgr, Graphs: gm})
		for i, c := range cases {
			req := c.Req
			if i%2 == 0 {
				req.Graph = graphID
			} else {
				req.Job = job.ID
			}
			raw, err := json.Marshal(req)
			if err != nil {
				return err
			}
			handlers = append(handlers, raw)
		}
		return nil
	}
	first := true
	return traced(rc, setup, func(tr *tracer, pv passValues) error {
		id := tr.traceID
		ctx := rc.ctx
		if first {
			first = false
			sg, err := parseShapes(ds.Shapes)
			if err != nil {
				return err
			}
			mode, err := parseMode(rc.sz.Mode)
			if err != nil {
				return err
			}
			st, err := core.NewDeltaState(ds.Graph.Clone(), sg, mode)
			if err != nil {
				return err
			}
			snap = serve.NewSnapshot(st.Graph(), st.Store(), st.SchemaDDL(), 0)
			var nodes, edges bytes.Buffer
			if err := st.WriteCSV(&nodes, &edges); err != nil {
				return err
			}
			csv = [2][]byte{nodes.Bytes(), edges.Bytes()}
		}

		root := tr.start("query.replay")
		for _, c := range cases {
			var rows int
			switch c.Req.Lang {
			case "sparql":
				sp := tr.start("sparql.parse")
				q, err := sparql.Parse(c.Req.Query)
				sp.end()
				if err != nil {
					return err
				}
				sp = tr.startAllocs("sparql.eval")
				r, err := sparql.EvalCtx(ctx, snap.Graph, q)
				if err == nil {
					rows = r.Len()
				}
				sp.count("rows", int64(rows)).end()
				if err != nil {
					return err
				}
			case "cypher":
				sp := tr.start("cypher.parse")
				q, err := cypher.Parse(c.Req.Query)
				sp.end()
				if err != nil {
					return err
				}
				params := map[string]pg.Value{}
				for k, v := range c.Req.Params {
					params[k] = v
				}
				sp = tr.startAllocs("cypher.eval")
				r, err := cypher.EvalWith(snap.Store, q, cypher.EvalOptions{Ctx: ctx, Params: params})
				if err == nil {
					rows = r.Len()
				}
				sp.count("rows", int64(rows)).end()
				if err != nil {
					return err
				}
			}
			sp := tr.start("serve.execute")
			_, err := serve.Execute(ctx, snap, serve.Request{Lang: c.Req.Lang, Query: c.Req.Query, Params: c.Req.Params})
			sp.end()
			if err != nil {
				return fmt.Errorf("%s: %w", c.Name, err)
			}
		}
		for i, raw := range handlers {
			req := httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			sp := tr.start("server.query_handler")
			srv.ServeHTTP(rec, req)
			sp.end()
			if rec.Code != http.StatusOK {
				return fmt.Errorf("%s: handler status %d: %s", cases[i].Name, rec.Code, rec.Body.String())
			}
		}
		root.end()

		cache := serve.NewCache(0)
		load := func() (*serve.Snapshot, error) { return snap, nil }
		if _, _, err := cache.Get(ctx, "resident", load); err != nil {
			return err
		}
		const gets = 10000
		sp := tr.start("serve.cache_hit").count("gets", gets)
		for i := 0; i < gets; i++ {
			if _, _, err := cache.Get(ctx, "resident", load); err != nil {
				return err
			}
		}
		sp.end()
		pv.ratio("serve.cache_hit_ns", sp.ns(), gets)

		set := matchSet(snap.Graph, rc.seed)
		sp = tr.start("rdf.match")
		sp.count("results", runMatchSet(snap.Graph, set))
		sp.end()
		pv.ratio("rdf.match_ns_per_result", sp.ns(), float64(sp.Counts["results"]))

		rows := float64(snap.Store.NumNodes() + snap.Store.NumEdges())
		sp = tr.start("pg.load_csv").count("rows", int64(rows))
		_, err := pg.LoadCSV(bytes.NewReader(csv[0]), bytes.NewReader(csv[1]))
		sp.end()
		if err != nil {
			return err
		}
		pv.ratio("pg.load_csv_ns_per_row", sp.ns(), rows)

		one := func(name string) float64 { return tr.sum(id, name, (*span).ns) }
		n := func(name string) float64 { return float64(len(tr.byName(id, name))) }
		cnt := func(name, key string) float64 {
			return tr.sum(id, name, func(s *span) float64 { return float64(s.Counts[key]) })
		}
		pv.ratio("sparql.parse_us", us(one("sparql.parse")), n("sparql.parse"))
		pv.ratio("sparql.eval_ns_per_row", one("sparql.eval"), cnt("sparql.eval", "rows"))
		pv.ratio("sparql.eval_allocs_per_row", cnt("sparql.eval", "allocs"), cnt("sparql.eval", "rows"))
		pv.ratio("cypher.parse_us", us(one("cypher.parse")), n("cypher.parse"))
		pv.ratio("cypher.eval_ns_per_row", one("cypher.eval"), cnt("cypher.eval", "rows"))
		pv.ratio("cypher.eval_allocs_per_row", cnt("cypher.eval", "allocs"), cnt("cypher.eval", "rows"))
		pv.ratio("serve.execute_us", us(one("serve.execute")), n("serve.execute"))
		pv.ratio("server.query_handler_us", us(one("server.query_handler")), n("server.query_handler"))
		return nil
	})
}
