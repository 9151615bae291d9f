GO ?= go
FUZZTIME ?= 10s

.PHONY: build test bench bench-e2e bench-layers bench-json bench-obs bench-dist bench-delta bench-serve bench-oocore verify fuzz chaos dist-chaos delta-chaos experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-e2e and bench-layers run the repository's benchmark (bench/,
# BENCHMARK.json): the five workloads end to end against the real binaries,
# and the traced in-process replay that yields the per-layer numbers and
# .bench_build/trace-<workload>.jsonl. The bench-* targets below are the older
# per-feature harnesses of cmd/benchjson.
bench-e2e:
	$(GO) run ./bench -workload all

bench-layers:
	$(GO) run ./bench -workload all -trace 1

# bench-json measures the -workers parallel pipeline against the sequential
# baseline, verifies byte-identical outputs, and writes BENCH_parallel.json.
# MIN_SPEEDUP > 0 turns it into a gate (auto-skipped on <4-CPU machines).
MIN_SPEEDUP ?= 0
bench-json:
	$(GO) run ./cmd/benchjson -out BENCH_parallel.json -min-speedup $(MIN_SPEEDUP)

# bench-obs measures the telemetry layer's overhead: the pipeline run bare
# versus run with the daemon's per-job instrumentation (span tree, lifecycle
# logs, histograms, JSONL trace) live, writing BENCH_obs.json.
# MAX_OBS_OVERHEAD > 0 turns it into a gate (auto-skipped on <4-CPU machines).
MAX_OBS_OVERHEAD ?= 0
bench-obs:
	$(GO) run ./cmd/benchjson -mode obs -out BENCH_obs.json -reps 5 -max-overhead-pct $(MAX_OBS_OVERHEAD)

# bench-dist times the coordinator/worker distributed transform (real loopback
# HTTP, real spool writes, dense-remap merge) against the sequential pipeline,
# writing BENCH_dist.json. Byte-equality of the merged outputs is a hard gate;
# the speedup number is informational (on one machine the protocol overhead is
# what is being tracked).
bench-dist:
	$(GO) run ./cmd/benchjson -mode dist -out BENCH_dist.json

# bench-delta measures change-based incremental maintenance (ApplyDelta)
# against full re-transformation, writing BENCH_delta.json. Two workloads:
# grow-only batches ride the monotone fast path (the speedup gate), and
# mixed churn (deletes + mutations) takes the deterministic rebuild path
# (informational). Byte-equality of the incrementally maintained exports
# with a from-scratch transform is a hard gate on both.
MIN_DELTA_SPEEDUP ?= 0
bench-delta:
	$(GO) run ./cmd/benchjson -mode delta -out BENCH_delta.json -min-speedup $(MIN_DELTA_SPEEDUP)

# bench-serve load-tests the online query tier: first the -race hammer test
# (the concurrency proof for lock-free snapshot swaps + LRU eviction), then
# SERVE_CLIENTS concurrent clients firing mixed Cypher/SPARQL queries at a
# real in-process daemon for SERVE_DURATION, writing BENCH_serve.json with
# p50/p95/p99 and QPS. Hard gates (CPU-independent): every answer byte-equals
# a single-threaded evaluation, and the snapshot cache records zero loads
# during the run.
SERVE_CLIENTS ?= 1000
SERVE_DURATION ?= 2s
bench-serve:
	$(GO) test -race -count=1 ./internal/serve
	$(GO) run ./cmd/benchjson -mode serve -out BENCH_serve.json \
		-scale 0.0002 -serve-clients $(SERVE_CLIENTS) -serve-duration $(SERVE_DURATION)

# bench-oocore gates the out-of-core transformation path: an XL-profile
# dataset whose in-RAM graph footprint is ≥ 3× OOCORE_BUDGET_MB is ingested
# under the spill governor, held under the budget on disk, and transformed
# over paged reads, writing BENCH_oocore.json. All gates are hard and
# CPU-independent: the 3× dataset-to-budget ratio, the post-spill residency
# ceiling, at least one spill, and byte-equality of nodes.csv/edges.csv/
# schema.ddl with the unconstrained in-RAM run.
OOCORE_BUDGET_MB ?= 16
bench-oocore:
	$(GO) run ./cmd/benchjson -mode oocore -out BENCH_oocore.json \
		-oocore-budget-mb $(OOCORE_BUDGET_MB)

# verify is the pre-commit gate: static checks, formatting, the racy
# packages (the obs instruments and the core transformer they instrument)
# under the race detector, the full test suite (including the corrupted-input
# corpus tests), and a short fuzz pass over every parser entry point.
verify:
	$(GO) vet ./...
	@fmtout="$$(gofmt -l .)"; if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; fi
	$(GO) test -race ./internal/obs/... ./internal/core/...
	$(GO) test ./...
	$(MAKE) fuzz

# fuzz runs every native fuzz target for FUZZTIME each: the N-Triples and
# Turtle parsers (strict and lenient), the Cypher lexer and parser, the
# SPARQL parser, both engines' executor against the reference evaluator it
# replaced, the /query JSON writer against encoding/json, and a spilled
# graph under random Add/Remove/Spill/Clone schedules against a twin that
# never spilled. New crashers land in testdata/fuzz/ and become regression
# tests.
FUZZ_TARGETS = \
	FuzzParseNTriplesLine:./internal/rio \
	FuzzReadNTriplesLenient:./internal/rio \
	FuzzReadTurtle:./internal/rio \
	FuzzLexer:./internal/cypher \
	FuzzParse:./internal/cypher \
	FuzzParse:./internal/sparql \
	FuzzParseUpdate:./internal/sparql \
	FuzzEvalDifferential:./internal/cypher \
	FuzzEvalDifferential:./internal/sparql \
	FuzzRowJSON:./internal/serve \
	FuzzSpillSchedule:./internal/rdf

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzzing $$name in $$pkg for $(FUZZTIME)"; \
		$(GO) test -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# chaos runs the s3pgd chaos matrix (real binary × fixed-seed fault
# regimes × SIGTERM/SIGKILL) plus the job manager and HTTP layer tests
# under the race detector. Daemon logs are kept in CHAOS_LOG_DIR so a CI
# failure ships them as an artifact.
CHAOS_LOG_DIR ?= $(CURDIR)/chaos-logs
chaos:
	S3PGD_CHAOS_LOG_DIR=$(CHAOS_LOG_DIR) \
		$(GO) test -race -count=1 ./internal/jobs ./internal/server ./cmd/s3pgd

# dist-chaos runs the distributed-transform fault matrix: a coordinator and
# three worker daemons (one straggler, one with injected FS faults, one
# healthy) through SIGKILL-a-worker, SIGTERM-and-restart-the-coordinator,
# lease eviction, and speculative reassignment — asserting every shard
# completes exactly once and the merged output is byte-identical to the
# sequential pipeline. The dist package's ledger/merge/registry unit tests
# ride along under the same race detector. Daemon and coordinator logs land
# in CHAOS_LOG_DIR for post-mortem.
dist-chaos:
	$(GO) test -race -count=1 ./internal/dist
	S3PGD_CHAOS_LOG_DIR=$(CHAOS_LOG_DIR) \
		$(GO) test -race -count=1 -run 'TestDist' ./cmd/s3pgd

# delta-chaos runs the crash-safe incremental-transform matrix: the WAL and
# live-graph layers under the race detector, then the SIGKILL matrix against
# the real daemon — kill mid-ApplyDelta, mid-WAL-append, and mid-/changes
# stream — asserting no acknowledged LSN is lost or double-applied, resumed
# subscriber streams are byte-identical to uninterrupted ones, and the
# recovered exports equal a full re-transform of the accepted batch prefix.
# Daemon logs land in CHAOS_LOG_DIR for post-mortem.
delta-chaos:
	$(GO) test -race -count=1 ./internal/wal ./internal/server
	S3PGD_CHAOS_LOG_DIR=$(CHAOS_LOG_DIR) \
		$(GO) test -race -count=1 -run 'TestDeltaChaos' ./cmd/s3pgd

experiments:
	$(GO) run ./cmd/experiments
