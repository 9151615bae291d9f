package main

import "runtime"

// metricSpec names one reported number. The end-to-end table and the
// per-layer table below are mirrored by BENCHMARK.json at the repo root (a
// test keeps the two in step).
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change counts as a regression. Per-layer
	// metrics carry no bound.
	Bound float64
	What  string
}

// endToEnd is what a user of the system sees. Every workload reports every
// metric. Times are scaled by the run's speed factor (speed.go). "Operation"
// means the workload's primary operation:
//
//	batch_*     one `s3pg data` child process, exec to exit
//	live_mixed  one script cycle (1 update + 8 queries); latencies are the
//	            update's 202-ack
//	query_read  one POST /query
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25, "median of several set-ups (5 on batch_*, 3 otherwise): input generation and, for the server workloads, daemon start to ready, PUT /graphs, job submit to done and one warm-up pass of qmix; the binary build is excluded"},
	{"op_p50_ms", "ms", "lower", 0.25, "median latency of the primary operation"},
	{"op_tail_ms", "ms", "lower", 0.25, "upper percentile of the primary operation, frozen per workload: p95 on query_read, p75 on live_mixed, the median on batch_* (too few children for a tail); falls back to the median with fewer than ten samples beyond it"},
	{"ops_per_s", "1/s", "higher", 0.25, "primary operations completed and checked per second of timed wall time"},
	{"cpu_ms_per_op", "ms", "lower", 0.25, "user+sys CPU of the program under test per primary operation (child rusage; /proc/<pid>/stat deltas across the timed phase for the daemon)"},
	{"peak_rss_mb", "MiB", "lower", 0.15, "peak resident set of the program under test (ru_maxrss; median over children for batch, the daemon's at exit otherwise)"},
	{"output_bytes_per_input_byte", "ratio", "lower", 0.03, "(nodes.csv + edges.csv + schema.ddl) bytes per input byte (N-Triples, plus update bodies on live_mixed); exact for a seed"},
}

// perLayer is measured by the traced in-process replay. A layer a workload
// does not touch reports 0 on that workload.
var perLayer = []metricSpec{
	{Name: "rio.scan_ns_per_byte", Unit: "ns/byte", Better: "lower", What: "NTriplesScanner.Scan loop, triples kept in a slice"},
	{Name: "rio.load_par_ns_per_byte", Unit: "ns/byte", Better: "lower", What: "LoadNTriplesParallel(workers=P)"},
	{Name: "rdf.add_ns_per_triple", Unit: "ns/triple", Better: "lower", What: "Graph.Add of pre-parsed triples (Intern + 3 indexes)"},
	{Name: "rdf.graph_bytes_per_triple", Unit: "B/triple", Better: "lower", What: "live heap of the built graph / triples"},
	{Name: "rdf.match_ns_per_result", Unit: "ns/result", Better: "lower", What: "seeded s-, p- and po-bound Graph.Match patterns in RAM"},
	{Name: "rdf.clone_ms", Unit: "ms", Better: "lower", What: "Graph.Clone of the live graph"},
	{Name: "rdf.spill_ms", Unit: "ms", Better: "lower", What: "total time in Graph.Spill during a governed ingest"},
	{Name: "rdf.spill_bytes_per_triple", Unit: "B/triple", Better: "lower", What: "spill directory size / triples (exact)"},
	{Name: "rdf.spilled_match_ns_per_result", Unit: "ns/result", Better: "lower", What: "the same Match set on the spilled graph"},
	{Name: "rdf.spilled_term_ns", Unit: "ns", Better: "lower", What: "Dict.Term over seeded ids on the spilled graph"},
	{Name: "rdf.spilled_resident_bytes_per_triple", Unit: "B/triple", Better: "lower", What: "live heap of the spilled graph / triples"},
	{Name: "shacl.load_ms", Unit: "ms", Better: "lower", What: "rio.ParseTurtle + shacl.FromGraph"},
	{Name: "core.fst_ms", Unit: "ms", Better: "lower", What: "core.TransformSchema"},
	{Name: "core.fdt_ns_per_triple", Unit: "ns/triple", Better: "lower", What: "Transformer.Apply"},
	{Name: "core.fdt_allocs_per_triple", Unit: "1/triple", Better: "lower", What: "heap allocations in Transformer.Apply / triples"},
	{Name: "core.store_bytes_per_triple", Unit: "B/triple", Better: "lower", What: "live heap of the resulting store / triples"},
	{Name: "core.fdt_par_ns_per_triple", Unit: "ns/triple", Better: "lower", What: "Transformer.ApplyParallel(workers=P)"},
	{Name: "core.fdt_spilled_ns_per_triple", Unit: "ns/triple", Better: "lower", What: "Transformer.Apply over the spilled graph"},
	{Name: "core.delta_grow_us_per_stmt", Unit: "us/stmt", Better: "lower", What: "DeltaState.ApplyDelta on the script's grow batches"},
	{Name: "core.delta_churn_ms", Unit: "ms", Better: "lower", What: "ApplyDelta on the script's churn batches"},
	{Name: "core.delta_rebuild_ratio", Unit: "ratio", Better: "lower", What: "churn ApplyDelta time / core.Transform of the same graph"},
	{Name: "core.new_delta_state_ms", Unit: "ms", Better: "lower", What: "core.NewDeltaState on the base graph"},
	{Name: "pg.write_csv_ns_per_row", Unit: "ns/row", Better: "lower", What: "Store.WriteCSVParallel(workers=1), the CLI's sequential export"},
	{Name: "pg.write_csv_par_ns_per_row", Unit: "ns/row", Better: "lower", What: "Store.WriteCSVParallel(workers=P)"},
	{Name: "pg.load_csv_ns_per_row", Unit: "ns/row", Better: "lower", What: "pg.LoadCSV (the paper's load time)"},
	{Name: "pg.clone_ms", Unit: "ms", Better: "lower", What: "Store.Clone of the live store"},
	{Name: "pgschema.ddl_roundtrip_ms", Unit: "ms", Better: "lower", What: "WriteDDL + ParseDDL"},
	{Name: "ckpt.commit_ms", Unit: "ms", Better: "lower", What: "self time of the nested ckpt.WriteFileAtomic commits around the CSV export (temp, fsync, rename)"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", What: "Log.AppendUpdate + AppendApplied with fsync, per batch"},
	{Name: "wal.bytes_per_stmt", Unit: "B/stmt", Better: "lower", What: "WAL directory size / statements logged (exact)"},
	{Name: "wal.open_replay_ms", Unit: "ms", Better: "lower", What: "wal.Open on the script's final log"},
	{Name: "sparql.parse_us", Unit: "us", Better: "lower", What: "sparql.Parse per query of the SPARQL half of qmix"},
	{Name: "sparql.eval_ns_per_row", Unit: "ns/row", Better: "lower", What: "sparql.EvalCtx time / rows returned"},
	{Name: "sparql.eval_allocs_per_row", Unit: "1/row", Better: "lower", What: "sparql.EvalCtx heap allocations / rows returned"},
	{Name: "sparql.parse_update_us_per_stmt", Unit: "us/stmt", Better: "lower", What: "sparql.ParseUpdate on the script's request bodies"},
	{Name: "cypher.parse_us", Unit: "us", Better: "lower", What: "cypher.Parse per query of the Cypher half of qmix"},
	{Name: "cypher.eval_ns_per_row", Unit: "ns/row", Better: "lower", What: "cypher.EvalWith time / rows returned"},
	{Name: "cypher.eval_allocs_per_row", Unit: "1/row", Better: "lower", What: "cypher.EvalWith heap allocations / rows returned"},
	{Name: "serve.execute_us", Unit: "us", Better: "lower", What: "serve.Execute per qmix request"},
	{Name: "serve.snapshot_build_ms", Unit: "ms", Better: "lower", What: "serve.NewSnapshot over cloned graph and store"},
	{Name: "serve.cache_hit_ns", Unit: "ns", Better: "lower", What: "Cache.Get on a resident key"},
	{Name: "server.query_handler_us", Unit: "us", Better: "lower", What: "Server.ServeHTTP of POST /query with a recorder, per qmix request"},
	{Name: "server.graph_update_ms", Unit: "ms", Better: "lower", What: "GraphManager.Update per script batch (apply + WAL)"},
	{Name: "trace.batch_coverage", Unit: "ratio", Better: "higher", What: "sum of layer self times / staged in-process pipeline total"},
	{Name: "trace.staged_vs_cli_ratio", Unit: "ratio", Better: "lower", What: "staged pipeline total / wall time of the real s3pg child on the same input; outside 0.85-1.15 the layer table does not explain the end-to-end number"},
	{Name: "bench.build_s", Unit: "s", Better: "lower", What: "go build of s3pg and s3pgd (informational)"},
	{Name: "bench.datagen_s", Unit: "s", Better: "lower", What: "set-up of the traced run: input generation, plus the in-process server or one warm child (informational)"},
	{Name: "bench.calib_ms", Unit: "ms", Better: "lower", What: "median duration of the speed reference routine during the run (informational; 28 at nominal machine speed)"},
}

// sizes freezes what a workload runs. The values were calibrated once on a
// 2-core box so that set-up, warm-up, `-seconds 10` of timed work and the
// oracles of one run end within about 25 s (the driver's budget per run).
type sizes struct {
	Profile string  // datagen profile
	Scale   float64 // datagen scale
	Mode    string  // transform mode of the live graph ("" = parsimonious)

	MaxMemMB int // batch_spill: -max-mem
	Workers  int // batch: -workers

	GrowFrac   float64 // live_mixed: datagen.Evolve fraction per grow batch
	ChurnEvery int     // live_mixed: every n-th cycle sends a churn batch
	Churn      [3]float64
	MaxCycles  int // live_mixed: script length; the run stops at the deadline or here
	Restarts   int // live_mixed: SIGKILL + restart rounds after the timed phase
	MinOps     int // least timed operations, whatever -seconds says
	SetupReps  int // set-ups per run; setup_s is their median

	// TailQ is the percentile op_tail_ms reports for the primary series,
	// frozen so that a faster run does not switch percentile (0 = median).
	TailQ float64
}

// parallelism is P: workers for batch_par and client connections for
// query_read. Loads are sized for the box, capped at 4.
func parallelism() int {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	return p
}

type workloadSpec struct {
	Name  string
	Why   string
	Full  sizes
	Smoke sizes // about 1/20 of Full, all oracles on
	run   func(*runCtx) (*result, error)
	trace func(*runCtx) (*result, error)
}

const queriesPerCycle = 8

func workloads() []workloadSpec {
	return []workloadSpec{
		{
			Name:  "batch_seq",
			Why:   "Table 4 job on the sequential path: rio scan, Dict.Intern and index build, F_dt and CSV export share the time, so a single-layer win shows",
			Full:  sizes{Profile: "DBpedia2022", Scale: 0.001, Workers: 1, MinOps: 3, SetupReps: 5},
			Smoke: sizes{Profile: "DBpedia2022", Scale: 0.0001, Workers: 1, MinOps: 2, SetupReps: 3},
			run:   runBatch, trace: traceBatch,
		},
		{
			Name:  "batch_par",
			Why:   "same input at -workers P, the CLI default path: parallel ingest, F_dt and export; wall bought with CPU or RSS shows as a split from batch_seq",
			Full:  sizes{Profile: "DBpedia2022", Scale: 0.001, Workers: parallelism(), MinOps: 3, SetupReps: 5},
			Smoke: sizes{Profile: "DBpedia2022", Scale: 0.0001, Workers: parallelism(), MinOps: 2, SetupReps: 3},
			run:   runBatch, trace: traceBatch,
		},
		{
			Name:  "batch_spill",
			Why:   "working set over the -max-mem budget: spilled arena, posting and triple-log reads do the work; the only row where peak RSS says whether -max-mem buys anything",
			Full:  sizes{Profile: "XL", Scale: 0.06, Workers: 1, MaxMemMB: 4, MinOps: 3, SetupReps: 5},
			Smoke: sizes{Profile: "XL", Scale: 0.01, Workers: 1, MaxMemMB: 1, MinOps: 2, SetupReps: 3},
			run:   runBatch, trace: traceBatch,
		},
		{
			Name: "live_mixed",
			Why:  "writes beside reads on one live graph: WAL fsync, ApplyDelta fast and rebuild paths, and the snapshot publish the first query after each update pays",
			Full: sizes{Profile: "DBpedia2022", Scale: 0.0003, Mode: "nonparsimonious", GrowFrac: 0.008,
				ChurnEvery: 10, Churn: [3]float64{0.002, 0.001, 0.001}, MaxCycles: 200, Restarts: 2, MinOps: 20, SetupReps: 3, TailQ: 75},
			Smoke: sizes{Profile: "DBpedia2022", Scale: 0.00005, Mode: "nonparsimonious", GrowFrac: 0.01,
				ChurnEvery: 3, Churn: [3]float64{0.01, 0.005, 0.005}, MaxCycles: 6, Restarts: 1, MinOps: 6, SetupReps: 3, TailQ: 75},
			run: runLive, trace: traceLive,
		},
		{
			Name:  "query_read",
			Why:   "no writes: P closed-loop clients round-robin qmix over a live graph and a finished job (LRU snapshot cache); evaluator and HTTP tier only",
			Full:  sizes{Profile: "DBpedia2022", Scale: 0.0005, MinOps: 200, SetupReps: 3, TailQ: 95},
			Smoke: sizes{Profile: "DBpedia2022", Scale: 0.00005, MinOps: 56, SetupReps: 3, TailQ: 95},
			run:   runQuery, trace: traceQuery,
		},
	}
}

func findWorkload(name string) *workloadSpec {
	ws := workloads()
	for i := range ws {
		if ws[i].Name == name {
			return &ws[i]
		}
	}
	return nil
}
